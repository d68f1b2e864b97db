"""Finite free complexes, pullbacks and homology dimensions.

A FreeComplex is a chain of free modules

    F_L --d_L--> F_(L-1) --> ... --> F_1 --d_1--> F_0

given by its ranks and the matrices of the differentials (d_k maps F_k to
F_(k-1), so it has ranks[k-1] rows and ranks[k] columns).

Built here:
  * The Koszul complex of a function's partials.
  * The three explicit resolutions attached to a square matrix family:
    symmetric (length 3), skew (length 6) and general (length 4).  Their
    differentials are linear in the coordinates of the family matrix S and
    of its adjugate or sub-Pfaffian matrix, with coefficients fixed by the
    kind and size, so the formulas run once per (kind, n), on linear forms,
    into a template, and a family's complex is that template evaluated at
    its own two matrices.  They are written so that every composite
    vanishes identically for any family, which verify_complex rechecks on
    the evaluated matrices.
  * Pullbacks along a map, and homology dimensions over the local ring
    at 0.

The resolution formulas and the Lie-algebra images never multiply out a
product with a basis matrix B: B S and S B place rows and columns of S by
the entries of B (matalg._placed).

Homology in degree k is computed as a presentation H_k = O^t / R.  Each
differential d_k gets one GLOBAL stacked completion of its columns (see
groebner._Stack), cached on the complex, which serves twice: its relations
are t generators z_i of ker d_k, and its upper block is a standard basis of
im d_k.  R is then the modulo relations of z over im d_(k+1), the a with
sum a_i z_i a boundary.  d_0 is the zero map from F_0, whose cycles are
the unit vectors, so R for H_0 is im d_1 itself, read off the standard
basis with no colon stack; in higher degrees the cycles that are already
boundaries are dropped before the colon stack, which is skipped when none
is left (see groebner._homology_colength).  Localisation at 0 is exact, so
global generators generate the local modules too, and only the colength
of O^t / R is taken under the local order.  The z_i and R stay flat (see
groebner), never Polys; every degree must stay below 2^31, and past it a
ValueError is raised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

from .groebner import _column_stack, _homology_colength
from .matalg import (MatrixFamily, PolyMatrix, _coords, _lie_images,
                     _placed, _sl_coords, _sparse_basis, _trace_times,
                     adjugate, flatten, space_dim, sub_pfaffian_matrix)
from .poly import Poly, SubstitutionMap, _Record, _canonical, partial


class FreeComplex(_Record):
    """ranks[k] is the rank of F_k; differentials[k-1] is the matrix of d_k."""

    FIELDS = ("ranks", "differentials", "nvars")

    def __init__(self, ranks: tuple, differentials: tuple, nvars: int):
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", differentials)
        object.__setattr__(self, "nvars", nvars)
        # k -> the stack of the columns of d_k, built on first use (see
        # _stack).
        object.__setattr__(self, "_column_stacks", {})
        if len(self.differentials) != len(self.ranks) - 1:
            raise ValueError("rank/differential count mismatch")
        for k, d in enumerate(self.differentials, start=1):
            if d.rows != self.ranks[k - 1] or d.cols != self.ranks[k]:
                raise ValueError(
                    f"d_{k} is {d.rows}x{d.cols}, expected "
                    f"{self.ranks[k - 1]}x{self.ranks[k]}")

    def __setattr__(self, name, value):
        raise AttributeError("FreeComplex is immutable")

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


# -- the three kind resolutions ------------------------------------------------

class _Form:
    """A linear form in the coordinates of a family matrix S and of its
    companion C (adjugate or sub-Pfaffian matrix) in the basis of their
    kind: terms maps the index of a coordinate, of S then of C, to its
    nonzero coefficient.  It has the Poly operations the resolution
    formulas use, and like a Poly it is never changed once built, so an
    operation with zero or with 1 may return an operand itself."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other: "_Form") -> "_Form":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return _Form(out)

    def __neg__(self) -> "_Form":
        if not self.terms:
            return self
        return _Form({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "_Form") -> "_Form":
        return self + -other

    def __mul__(self, c) -> "_Form":
        if c == 1 or not self.terms:
            return self
        return _Form(_canonical({k: v * c for k, v in self.terms.items()}))


def _symbolic(kind: str, n: int, source: int) -> PolyMatrix:
    """S (source 0) or C (source 1) as an n x n matrix of forms, built
    unchecked: the sum of the basis matrices of kind's space
    (matalg._sparse_basis), basis matrix k times the coordinate of index
    source * dim + k, so that the formulas see the symmetry."""
    basis = _sparse_basis(kind, n)
    ent = [[_Form({})] * n for _ in range(n)]
    for k, b in enumerate(basis, start=source * len(basis)):
        for i, j, c in b:
            ent[i][j] = _Form({k: c})
    return PolyMatrix._of(ent, 0, n)


def _jozefiak(s: PolyMatrix, a: PolyMatrix, z) -> tuple:
    """Ranks and column lists of the length-3 complex of a symmetric S with
    adjugate A, z the zero entry:

        0 -> skew -> sl -> sym -> O
        d1(X) = trace(A X),  d2(Y) = S Y + Y^t S,  d3(Z) = Z S
    """
    n = s.rows
    ranks = (1, space_dim("symmetric", n), n * n - 1, space_dim("skew", n))
    d1 = [[_trace_times(a, b)] for b in _sparse_basis("symmetric", n)]
    d2 = _lie_images("symmetric", s, "special", z)
    d3 = [_sl_coords(_placed(b, s, True), n, z)
          for b in _sparse_basis("skew", n)]
    return ranks, (d1, d2, d3)


def _jp(s: PolyMatrix, p: PolyMatrix, z) -> tuple:
    """Ranks and column lists of the length-6 complex of a skew S of even
    size with sub-Pfaffian matrix P (P S = S P = Pf(S) I), z the zero
    entry:

        0 -> O -> skew -> sl -> sym + sym -> sl -> skew -> O
        d1(U) = trace(P U) / 2
        d2(V) = S V + V^t S
        d3(W, X) = P W - X S
        d4(Y) = (S Y + (S Y)^t,  Y P + (Y P)^t)
        d5(Z) = Z S - trace(Z S)/n I
        d6(a) = a P
    """
    n = s.rows
    sk, sy, sl = space_dim("skew", n), space_dim("symmetric", n), n * n - 1
    half = Fraction(1, 2)
    skb, slb = _sparse_basis("skew", n), _sparse_basis("sl", n)
    syb = _sparse_basis("symmetric", n)
    d1 = [[_trace_times(p, b) * half] for b in skb]
    d2 = _lie_images("skew", s, "special", z)
    d3 = [_sl_coords(_placed(w, p, False), n, z) for w in syb]
    d3 += [[-c for c in _sl_coords(_placed(x, s, True), n, z)] for x in syb]
    d4 = [_coords("symmetric", _placed(y, s, False), n, z, 1)
          + _coords("symmetric", _placed(y, p, True), n, z, 1) for y in slb]
    d5 = [_sl_coords(_placed(x, s, True), n, z, centred=True) for x in skb]
    d6 = [flatten("skew", p)]
    return (1, sk, sl, 2 * sy, sl, sk, 1), (d1, d2, d3, d4, d5, d6)


def _gn(m: PolyMatrix, a: PolyMatrix, z) -> tuple:
    """Ranks and column lists of the length-4 complex of a general square M
    with adjugate A, z the zero entry:

        0 -> O -> gl -> sl + sl -> gl -> O
        d1(U) = trace(A U)
        d2(X, Y) = M X - Y M
        d3(Z) = (Z M - trace(Z M)/n I,  M Z - trace(M Z)/n I)
        d4(a) = a A
    """
    n = m.rows
    glb, slb = _sparse_basis("general", n), _sparse_basis("sl", n)
    d1 = [[_trace_times(a, b)] for b in glb]
    d2 = [_coords("general", _placed(x, m, False), n, z) for x in slb]
    d2 += [[-c for c in _coords("general", _placed(y, m, True), n, z)]
           for y in slb]
    d3 = [_sl_coords(_placed(x, m, True), n, z, centred=True)
          + _sl_coords(_placed(x, m, False), n, z, centred=True)
          for x in glb]
    d4 = [flatten("general", a)]
    return (1, n * n, 2 * (n * n - 1), n * n, 1), (d1, d2, d3, d4)


_FORMULAS = {"symmetric": _jozefiak, "skew": _jp, "general": _gn}


@cache
def _template(kind: str, n: int) -> tuple:
    """(ranks, atoms, entries) of the kind resolution of size n, derived
    once by running its formulas on forms.  Every entry of a differential
    is then c times one coordinate of S or C: atoms lists the distinct
    (index, c), and entries[k-1] the nonzero entries of d_k as (row,
    column, atom).
    """
    ranks, diffs = _FORMULAS[kind](_symbolic(kind, n, 0),
                                   _symbolic(kind, n, 1), _Form({}))
    atoms: dict = {}
    entries = []
    for cols in diffs:
        nonzero = []
        for j, col in enumerate(cols):
            for i, p in enumerate(col):
                if p.terms:
                    (term,) = p.terms.items()
                    nonzero.append((i, j, atoms.setdefault(term, len(atoms))))
        entries.append(tuple(nonzero))
    return ranks, tuple(atoms), tuple(entries)


def _evaluated(fam: MatrixFamily, companion: PolyMatrix) -> FreeComplex:
    """The template of the family's (kind, n) at the coordinates of its
    own S and companion, which has S's kind (a symmetric S has a symmetric
    adjugate, and P* is skew)."""
    ranks, atoms, entries = _template(fam.kind, fam.n)
    nv = fam.m
    z = Poly.zero(nv)
    values = flatten(fam.kind, fam.entries) + flatten(fam.kind, companion)
    scaled = [values[k] * c if values[k].terms else z for k, c in atoms]
    diffs = []
    for k, nonzero in enumerate(entries, start=1):
        cols = ranks[k]
        grid = [[z] * cols for _ in range(ranks[k - 1])]
        for i, j, atom in nonzero:
            grid[i][j] = scaled[atom]
        diffs.append(PolyMatrix._of(grid, nv, cols))
    return FreeComplex(ranks, tuple(diffs), nv)


def jozefiak_complex(fam: MatrixFamily) -> FreeComplex:
    """The complex of a symmetric family, see _jozefiak."""
    if fam.kind != "symmetric":
        raise ValueError("symmetric family required")
    return _evaluated(fam, adjugate(fam.entries))


def jp_complex(fam: MatrixFamily) -> FreeComplex:
    """The complex of a skew family of even size, see _jp."""
    if fam.kind != "skew":
        raise ValueError("skew family required")
    if fam.n % 2 != 0:
        raise ValueError("even size required")
    return _evaluated(fam, sub_pfaffian_matrix(fam.entries))


def gn_complex(fam: MatrixFamily) -> FreeComplex:
    """The complex of a general square family, see _gn."""
    if fam.kind != "general":
        raise ValueError("general family required")
    return _evaluated(fam, adjugate(fam.entries))


def kind_complex(fam: MatrixFamily) -> FreeComplex:
    if fam.kind == "symmetric":
        return jozefiak_complex(fam)
    if fam.kind == "skew":
        return jp_complex(fam)
    return gn_complex(fam)


# -- pullback -----------------------------------------------------------------

def pullback(c: FreeComplex, f: SubstitutionMap) -> FreeComplex:
    """Apply f to every differential entry; ranks are unchanged."""
    if c.nvars != f.target_nvars:
        raise ValueError("complex ring does not match the map's target")
    return FreeComplex(c.ranks,
                       tuple(d.apply_map(f) for d in c.differentials),
                       f.source_nvars)


# -- homology -------------------------------------------------------------------

def _stack(c: FreeComplex, k: int):
    """The stack of the columns of d_k, built once per complex, so that it
    gives ker d_k for H_k and the boundaries im d_k for H_(k-1).  d_0 is the
    0 x r_0 zero matrix."""
    st = c._column_stacks.get(k)
    if st is None:
        d = c.diff(k) if k else PolyMatrix.zeros(0, c.ranks[0], c.nvars)
        st = c._column_stacks[k] = _column_stack(d)
    return st.reused()


def homology_dimension(c: FreeComplex, k: int):
    """dim_Q H_k(c) over the local ring at the origin; INFINITE if not finite.

    The GLOBAL relations z_1..z_t of the columns of d_k generate its
    kernel, locally too, since localisation is flat, and
    H_k = O^t / R with R the modulo relations of z over im d_(k+1): the
    coefficient vectors a with sum a_i z_i a boundary.  Both come from the
    stacks of the columns of d_k and d_(k+1), each built once per complex.
    Only the colength of O^t / R is taken under the local order.  d_0 is
    the zero map to 0, so H_0 is the cokernel of d_1, or F_0 itself when
    the length is 0; it takes no colon stack, and neither does a degree
    whose cycles are all boundaries.  For k = length the kernel itself is
    the homology, which is either 0 or infinite dimensional.
    """
    if not 0 <= k <= c.length:
        raise ValueError(f"degree {k} outside the complex")
    return _homology_colength(_stack(c, k),
                              _stack(c, k + 1) if k < c.length else None)


def homology_profile(c: FreeComplex) -> list:
    """Homology dimensions in all degrees 0..length."""
    return [homology_dimension(c, k) for k in range(c.length + 1)]
