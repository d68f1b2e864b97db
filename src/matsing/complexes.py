"""Finite free complexes, comparison maps and homology dimensions.

A FreeComplex is a chain of free modules

    F_L --d_L--> F_(L-1) --> ... --> F_1 --d_1--> F_0

given by its ranks and the matrices of the differentials (d_k maps F_k to
F_(k-1), so it has ranks[k-1] rows and ranks[k] columns).

Built here:
  * Koszul complexes of a function's partials, plain and augmented by the
    function itself.
  * The three explicit resolutions attached to a square matrix family:
    symmetric (length 3), skew (length 6) and general (length 4).  Their
    differentials are written so that every composite vanishes identically
    for any family, which verify_complex rechecks.
  * The comparison morphism phi from the Koszul complex of det/Pf of a
    family into the pulled-back resolution, through degree 2.
  * Mapping cones, and homology dimensions over the local ring at 0.

Homology in degree k is computed as a presentation H_k = O^t / R.  Each
differential d_k gets one GLOBAL stacked completion of its columns, cached
on the complex, which serves twice: its syzygies are t generators z_i of
ker d_k, and its upper block is a standard basis of im d_k.  R is then
modulo(z, im d_(k+1)), the a with sum a_i z_i a boundary.  Localisation at
0 is exact, so global generators generate the local modules too, and only
the colength of O^t / R is taken under the local order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .groebner import (GLOBAL, INFINITE, LOCAL, ModuleBasis, column_syzygies,
                       modulo, quotient_dimension)
from .matalg import (MatrixFamily, PolyMatrix, flatten, sl_coords, space_dim,
                     unflatten)
from .poly import Poly, SubstitutionMap, partial


@dataclass(frozen=True)
class FreeComplex:
    """ranks[k] is the rank of F_k; differentials[k-1] is the matrix of d_k."""

    ranks: tuple
    differentials: tuple
    nvars: int
    # k -> the GLOBAL ModuleBasis of the columns of d_k, built on first use
    # (see _columns).
    _column_bases: dict = field(default_factory=dict, init=False,
                                compare=False, repr=False)

    def __post_init__(self):
        if len(self.differentials) != len(self.ranks) - 1:
            raise ValueError("rank/differential count mismatch")
        for k, d in enumerate(self.differentials, start=1):
            if d.rows != self.ranks[k - 1] or d.cols != self.ranks[k]:
                raise ValueError(
                    f"d_{k} is {d.rows}x{d.cols}, expected "
                    f"{self.ranks[k - 1]}x{self.ranks[k]}")

    @property
    def length(self) -> int:
        return len(self.differentials)

    def diff(self, k: int) -> PolyMatrix:
        """The matrix of d_k for 1 <= k <= length."""
        return self.differentials[k - 1]


def verify_complex(c: FreeComplex) -> bool:
    """True iff all composites d_k d_(k+1) vanish identically."""
    for k in range(1, c.length):
        if not (c.diff(k) @ c.diff(k + 1)).is_zero():
            return False
    return True


@dataclass(frozen=True)
class ComplexMorphism:
    """A degreewise map between complexes; maps[k] sends source F_k to
    target F_k."""

    source: FreeComplex
    target: FreeComplex
    maps: tuple

    def __post_init__(self):
        for k, m in enumerate(self.maps):
            if (m.rows != self.target.ranks[k]
                    or m.cols != self.source.ranks[k]):
                raise ValueError(f"map {k} has the wrong shape")


def verify_chain_map(phi: ComplexMorphism) -> bool:
    """True iff d_k phi_k = phi_(k-1) d_k for all degrees covered by maps."""
    for k in range(1, len(phi.maps)):
        lhs = phi.target.diff(k) @ phi.maps[k]
        rhs = phi.maps[k - 1] @ phi.source.diff(k)
        if lhs != rhs:
            return False
    return True


# -- Koszul ------------------------------------------------------------------

def _koszul_on(seq: Sequence[Poly], nvars: int) -> FreeComplex:
    n = len(seq)
    ranks = tuple(len(list(combinations(range(n), k))) for k in range(n + 1))
    diffs = []
    for k in range(1, n + 1):
        src = list(combinations(range(n), k))
        dst = list(combinations(range(n), k - 1))
        index = {s: i for i, s in enumerate(dst)}
        cols = []
        for s in src:
            col = [Poly.zero(nvars)] * len(dst)
            for pos, i in enumerate(s):
                rest = s[:pos] + s[pos + 1:]
                term = seq[i] if pos % 2 == 0 else -seq[i]
                col[index[rest]] = col[index[rest]] + term
            cols.append(col)
        diffs.append(PolyMatrix.from_columns(len(dst), cols, nvars))
    return FreeComplex(ranks, tuple(diffs), nvars)


def koszul(g: Poly) -> FreeComplex:
    """Koszul complex of the partial derivatives of g."""
    parts = [partial(g, i) for i in range(g.nvars)]
    return _koszul_on(parts, g.nvars)


def koszul_augmented(g: Poly) -> FreeComplex:
    """Koszul complex of (dg/dx_1, ..., dg/dx_m, g), the function last."""
    parts = [partial(g, i) for i in range(g.nvars)] + [g]
    return _koszul_on(parts, g.nvars)


# -- the three kind resolutions ------------------------------------------------

def jozefiak_complex(fam: MatrixFamily) -> FreeComplex:
    """Length-3 complex of a symmetric family S (A = adjugate of S):

        0 -> skew -> sl -> sym -> O
        d1(X) = trace(A X),  d2(Y) = S Y + Y^t S,  d3(Z) = Z S
    """
    if fam.kind != "symmetric":
        raise ValueError("symmetric family required")
    from .matalg import adjugate, skew_basis, sl_basis, sym_basis
    n, nv = fam.n, fam.m
    s = fam.entries
    a = adjugate(s)
    ranks = (1, space_dim("symmetric", n), n * n - 1, space_dim("skew", n))
    d1_cols = [[(a @ b).trace()] for b in sym_basis(n, nv)]
    d1 = PolyMatrix.from_columns(1, d1_cols, nv)
    d2_cols = [flatten("symmetric", s @ b + b.transpose() @ s)
               for b in sl_basis(n, nv)]
    d2 = PolyMatrix.from_columns(ranks[1], d2_cols, nv)
    d3_cols = [sl_coords(b @ s) for b in skew_basis(n, nv)]
    d3 = PolyMatrix.from_columns(ranks[2], d3_cols, nv)
    return FreeComplex(ranks, (d1, d2, d3), nv)


def jp_complex(fam: MatrixFamily) -> FreeComplex:
    """Length-6 complex of a skew family S of even size (P = sub-pfaffian
    matrix of S, so P S = S P = Pf(S) I):

        0 -> O -> skew -> sl -> sym + sym -> sl -> skew -> O
        d1(U) = trace(P U) / 2
        d2(V) = S V + V^t S
        d3(W, X) = P W - X S
        d4(Y) = (S Y + (S Y)^t,  Y P + (Y P)^t)
        d5(Z) = Z S - trace(Z S)/n I
        d6(a) = a P
    """
    if fam.kind != "skew":
        raise ValueError("skew family required")
    if fam.n % 2 != 0:
        raise ValueError("even size required")
    from .matalg import skew_basis, sl_basis, sub_pfaffian_matrix, sym_basis
    n, nv = fam.n, fam.m
    s = fam.entries
    p = sub_pfaffian_matrix(s)
    sk = space_dim("skew", n)
    sy = space_dim("symmetric", n)
    sl = n * n - 1
    ranks = (1, sk, sl, 2 * sy, sl, sk, 1)
    half = Fraction(1, 2)
    skb = skew_basis(n, nv)
    slb = sl_basis(n, nv)
    syb = sym_basis(n, nv)
    ident = PolyMatrix.identity(n, nv)

    d1 = PolyMatrix.from_columns(
        1, [[(p @ b).trace() * half] for b in skb], nv)
    d2 = PolyMatrix.from_columns(
        sk, [flatten("skew", s @ b + b.transpose() @ s) for b in slb], nv)
    d3_cols = [sl_coords(p @ w) for w in syb]
    d3_cols += [sl_coords(-(x @ s)) for x in syb]
    d3 = PolyMatrix.from_columns(sl, d3_cols, nv)
    d4_cols = []
    for y in slb:
        sy_part = s @ y
        sy_part = sy_part + sy_part.transpose()
        yp = y @ p
        yp = yp + yp.transpose()
        d4_cols.append(flatten("symmetric", sy_part)
                       + flatten("symmetric", yp))
    d4 = PolyMatrix.from_columns(2 * sy, d4_cols, nv)
    d5_cols = []
    for z in skb:
        zs = z @ s
        corr = ident.scale(zs.trace() * Fraction(1, n))
        d5_cols.append(sl_coords(zs - corr))
    d5 = PolyMatrix.from_columns(sl, d5_cols, nv)
    d6 = PolyMatrix.from_columns(sk, [flatten("skew", p)], nv)
    return FreeComplex(ranks, (d1, d2, d3, d4, d5, d6), nv)


def gn_complex(fam: MatrixFamily) -> FreeComplex:
    """Length-4 complex of a general square family M (A = adjugate of M):

        0 -> O -> gl -> sl + sl -> gl -> O
        d1(U) = trace(A U)
        d2(X, Y) = M X - Y M
        d3(Z) = (Z M - trace(Z M)/n I,  M Z - trace(M Z)/n I)
        d4(a) = a A
    """
    if fam.kind != "general":
        raise ValueError("general family required")
    from .matalg import adjugate, gl_basis, sl_basis
    n, nv = fam.n, fam.m
    m = fam.entries
    a = adjugate(m)
    gl = n * n
    sl = n * n - 1
    ranks = (1, gl, 2 * sl, gl, 1)
    glb = gl_basis(n, nv)
    slb = sl_basis(n, nv)
    ident = PolyMatrix.identity(n, nv)

    d1 = PolyMatrix.from_columns(1, [[(a @ b).trace()] for b in glb], nv)
    d2_cols = [flatten("general", m @ x) for x in slb]
    d2_cols += [flatten("general", -(y @ m)) for y in slb]
    d2 = PolyMatrix.from_columns(gl, d2_cols, nv)
    d3_cols = []
    inv_n = Fraction(1, n)
    for z in glb:
        zm = z @ m
        mz = m @ z
        left = zm - ident.scale(zm.trace() * inv_n)
        right = mz - ident.scale(mz.trace() * inv_n)
        d3_cols.append(sl_coords(left) + sl_coords(right))
    d3 = PolyMatrix.from_columns(2 * sl, d3_cols, nv)
    d4 = PolyMatrix.from_columns(gl, [flatten("general", a)], nv)
    return FreeComplex(ranks, (d1, d2, d3, d4), nv)


def kind_complex(fam: MatrixFamily) -> FreeComplex:
    if fam.kind == "symmetric":
        return jozefiak_complex(fam)
    if fam.kind == "skew":
        return jp_complex(fam)
    return gn_complex(fam)


# -- pullback and comparison maps ----------------------------------------------

def pullback(c: FreeComplex, f: SubstitutionMap) -> FreeComplex:
    """Apply f to every differential entry; ranks are unchanged."""
    if c.nvars != f.target_nvars:
        raise ValueError("complex ring does not match the map's target")
    return FreeComplex(c.ranks,
                       tuple(d.apply_map(f) for d in c.differentials),
                       f.source_nvars)


def _kind_size(kind: str, coord_count: int) -> int:
    n = 0
    while space_dim(kind, n) < coord_count:
        n += 1
    if space_dim(kind, n) != coord_count:
        raise ValueError(f"{coord_count} is not the coordinate count of a "
                         f"{kind} matrix space")
    return n


def phi_f(g: Poly, f: SubstitutionMap, l: FreeComplex, kind: str) -> ComplexMorphism:
    """Comparison map from the Koszul complex of g into l through degree 2.

    f is a matrix family in flattened coordinates, l the (pulled-back)
    resolution of the same kind, and g the composite det/Pf function; the
    three maps built here satisfy the chain-map identities by construction.

    Degree 2 sends e_i ^ e_j (i < j, with d(e_i ^ e_j) = g_i e_j - g_j e_i)
    to the commutator-type expressions in the partials of the family and of
    its adjugate/sub-pfaffian companion; these are trace free because mixed
    second partials of g commute.
    """
    if kind not in ("symmetric", "skew", "general"):
        raise ValueError(f"unknown kind {kind!r}")
    from .matalg import adjugate, pfaffian, determinant, sub_pfaffian_matrix
    m = f.source_nvars
    n = _kind_size(kind, f.target_nvars)
    s = unflatten(kind, f.images, n, m)
    expected = pfaffian(s) if kind == "skew" else determinant(s)
    if g != expected:
        raise ValueError("g is not the det/Pf of the family")
    comp = sub_pfaffian_matrix(s) if kind == "skew" else adjugate(s)
    ds = [s.map_entries(lambda p, i=i: partial(p, i)) for i in range(m)]
    dcomp = [comp.map_entries(lambda p, i=i: partial(p, i)) for i in range(m)]

    k = koszul(g)
    one = PolyMatrix([[Poly.constant(m, 1)]], m)
    jac = PolyMatrix([[partial(f.images[r], i) for i in range(m)]
                      for r in range(f.target_nvars)], m)
    maps = [one, jac]
    if m >= 2 and l.length >= 2:
        half = Fraction(1, 2)
        cols = []
        for i, j in combinations(range(m), 2):
            if kind == "general":
                a = (dcomp[i] @ ds[j] - dcomp[j] @ ds[i]).scale(half)
                b = (ds[i] @ dcomp[j] - ds[j] @ dcomp[i]).scale(half)
                cols.append(sl_coords(a) + sl_coords(b))
            else:
                v = (dcomp[i] @ ds[j] - dcomp[j] @ ds[i]).scale(half)
                cols.append(sl_coords(v))
        phi2 = PolyMatrix.from_columns(l.ranks[2], cols, m)
        maps.append(phi2)
    return ComplexMorphism(k, l, tuple(maps))


def cone(phi: ComplexMorphism, through_degree: int) -> FreeComplex:
    """Mapping cone of phi, truncated: C_0 = B_0 and C_k = A_(k-1) + B_k
    for 1 <= k <= through_degree, with

        d_1 = [-phi_0 | d^B_1]
        d_k = [[-d^A_(k-1), 0], [-phi_(k-1), d^B_k]]   (k >= 2)

    so that H_0 and H_1 of the cone measure the comparison map's cokernel
    behaviour in low degrees.
    """
    a, b = phi.source, phi.target
    d = through_degree
    if d < 1:
        raise ValueError("through_degree must be at least 1")
    if len(phi.maps) < d or a.length < d - 1 or b.length < d:
        raise ValueError("not enough data for the requested cone length")
    nv = b.nvars
    ranks = [b.ranks[0]]
    for k in range(1, d + 1):
        ranks.append(a.ranks[k - 1] + b.ranks[k])
    diffs = []
    d1 = PolyMatrix.block([[phi.maps[0].scale(-1), b.diff(1)]],
                          [b.ranks[0]], [a.ranks[0], b.ranks[1]], nv)
    diffs.append(d1)
    for k in range(2, d + 1):
        blk = [[a.diff(k - 1).scale(-1), None],
               [phi.maps[k - 1].scale(-1), b.diff(k)]]
        diffs.append(PolyMatrix.block(
            blk,
            [a.ranks[k - 2], b.ranks[k - 1]],
            [a.ranks[k - 1], b.ranks[k]], nv))
    return FreeComplex(tuple(ranks), tuple(diffs), nv)


# -- homology -------------------------------------------------------------------

def _columns(c: FreeComplex, k: int) -> ModuleBasis:
    """The GLOBAL module of the columns of d_k, built once per complex, so
    that its cached stacked completion gives ker d_k for H_k and the
    boundaries im d_k for H_(k-1)."""
    basis = c._column_bases.get(k)
    if basis is None:
        d = c.diff(k)
        basis = c._column_bases[k] = ModuleBasis(
            d.rows, [d.column(j) for j in range(d.cols)], GLOBAL)
    return basis


def homology_dimension(c: FreeComplex, k: int):
    """dim_Q H_k(c) over the local ring at the origin; INFINITE if not finite.

    H_0 is the cokernel of d_1, or F_0 itself when the length is 0.  For
    0 < k < length the GLOBAL syzygies z_1..z_t of the columns of d_k
    generate the kernel, locally too, since localisation is flat, and
    H_k = O^t / R with R = modulo(z, im d_(k+1)): the coefficient vectors a
    with sum a_i z_i a boundary.  Both come from the stacked completions of
    the columns of d_k and d_(k+1), each built once per complex.  Only the
    colength of O^t / R is taken under the local order.  For k = length the
    kernel itself is the homology, which is either 0 or infinite
    dimensional.
    """
    if not 0 <= k <= c.length:
        raise ValueError(f"degree {k} outside the complex")
    if k == 0:
        cols = []
        if c.length:
            d1 = c.diff(1)
            cols = [d1.column(j) for j in range(d1.cols)]
        return quotient_dimension(ModuleBasis(c.ranks[0], cols, LOCAL))
    cycles = column_syzygies(c.diff(k), _columns(c, k))
    t = len(cycles)
    if k == c.length:
        return 0 if t == 0 else INFINITE
    if t == 0:
        return 0
    relations = modulo(cycles, _columns(c, k + 1))
    return quotient_dimension(ModuleBasis._of(t, relations, LOCAL))


def homology_profile(c: FreeComplex) -> list:
    """Homology dimensions in all degrees 0..length."""
    return [homology_dimension(c, k) for k in range(c.length + 1)]
