"""Independent brute-force oracles used to cross-check the algebra engine.

The jet-space dimension counter below never touches the standard-basis
machinery: it truncates to finite-dimensional jet spaces and does exact
Gaussian elimination over the rationals, stopping once the answer is
stable under raising the truncation degree.

The written-out basis matrices, the product-built resolutions and the
comparison-map route to tau at the end are references the library itself
does without.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
import random

from matsing import (FreeComplex, Poly, PolyMatrix, SubstitutionMap,
                     homology_dimension, kind_complex, koszul)
from matsing.complexes import _koszul_on
from matsing.matalg import (_sl_coords, _sparse_basis, adjugate, flatten,
                            space_dim, sub_pfaffian_matrix)
from matsing.poly import partial, substitute


def is_canonical(p):
    """Each coefficient of p is a nonzero int or a Fraction of
    denominator > 1, the canonical scalars of a Poly."""
    return all(type(c) is int and c != 0
               or type(c) is Fraction and c.denominator > 1
               for c in p.terms.values())


def is_constant(p):
    """Whether the Poly p has no term of positive degree."""
    return all(sum(e) == 0 for e in p.terms)


def compose(outer, inner):
    """The SubstitutionMap x -> outer(inner(x))."""
    return SubstitutionMap([substitute(p, inner) for p in outer.images])


def preserves_origin(f):
    """Whether every image of the SubstitutionMap f vanishes at 0."""
    return all(p.constant_term() == 0 for p in f.images)


def transpose(m):
    """The transpose of a PolyMatrix; a matrix with no rows keeps its
    columns as rows."""
    return PolyMatrix.from_columns(m.cols, m.entries, m.nvars)


def trace(m):
    """The sum of the diagonal entries of a square PolyMatrix."""
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((m.entries[i][i] for i in range(m.rows)), Poly.zero(m.nvars))


def monomials_below(nvars, degree):
    """All exponent vectors of total degree < degree, graded order."""
    out = []
    for d in range(degree):
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _rank(rows):
    """Rank of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = Fraction(rows[i][col], lead)
                rows[i] = [a - factor * b
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def jet_quotient_dimension(gens, degree_cap=14):
    """dim of O^r/(gens) as a vector space at the origin, or None when it
    does not stabilize below the cap (treated as infinite by callers).
    gens are Polys (r = 1) or r-tuples of Polys.

    Works degree by degree: dim O^r/(M + m^D O^r) is r times the number of
    monomials of degree < D minus the rank of all multiples of the
    generators truncated to that jet space; the sequence stabilizes exactly
    at dim O^r/M when the colength is finite (Nakayama).
    """
    gens = [g if isinstance(g, tuple) else (g,) for g in gens]
    gens = [g for g in gens if not all(p.is_zero() for p in g)]
    if not gens:
        return None
    nvars = gens[0][0].nvars
    if len(gens[0]) == 1 and any(g[0].constant_term() != 0 for g in gens):
        return 0
    prev = None
    for degree in range(2, degree_cap + 1):
        monos = monomials_below(nvars, degree)
        basis = [(c, e) for c in range(len(gens[0])) for e in monos]
        index = {ce: i for i, ce in enumerate(basis)}
        rows = []
        for g in gens:
            for mono in monos:
                row = [Fraction(0)] * len(basis)
                hit = False
                for comp, p in enumerate(g):
                    for e, c in p:
                        prod = tuple(a + b for a, b in zip(e, mono))
                        slot = index.get((comp, prod))
                        if slot is not None:
                            row[slot] = c
                            hit = True
                if hit:
                    rows.append(row)
        dim = len(basis) - _rank(rows)
        if dim == prev:
            return dim
        prev = dim
    return None


def jet_milnor(g, degree_cap=14):
    return jet_quotient_dimension(
        [partial(g, i) for i in range(g.nvars)], degree_cap)


def jet_tjurina(g, degree_cap=14):
    return jet_quotient_dimension(
        [g] + [partial(g, i) for i in range(g.nvars)], degree_cap)


def random_poly(rng: random.Random, nvars, max_degree=3, terms=4,
                zero_constant=True) -> Poly:
    """A random sparse rational polynomial, reproducible from the rng."""
    parts = {}
    for _ in range(rng.randint(1, terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0 if not zero_constant else 1,
                                   max_degree)):
            e[rng.randrange(nvars)] += 1
        if zero_constant and sum(e) == 0:
            e[rng.randrange(nvars)] = 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            parts[tuple(e)] = parts.get(tuple(e), Fraction(0)) + c
    p = Poly(nvars, parts)
    return p


def random_finite_colength_ideal(rng: random.Random, nvars):
    """Generators that certainly cut out a finite-dimensional quotient: a
    unit multiple of a pure power of every variable, plus sometimes one
    extra random element.  The unit keeps the colength finite and small,
    so the jet oracle stabilizes quickly."""
    max_power = 3 if nvars <= 2 else 2
    gens = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = rng.randint(1, max_power)
        power = Poly.monomial(nvars, tuple(e))
        unit = Poly.constant(nvars, 1) + random_poly(
            rng, nvars, max_degree=2, terms=2)
        gens.append(power * unit)
    if rng.random() < 0.5:
        gens.append(random_poly(rng, nvars, max_degree=2, terms=3))
    return gens


def random_finite_colength_module(rng: random.Random, nvars, rank):
    """rank-tuples of Polys that certainly cut out a finite-dimensional
    quotient of O^rank.  For each component k, the generators of a
    random_finite_colength_ideal sit in component k, with random entries
    in the later components and zeros in the earlier ones; this triangular
    module contains m^N O^rank for some N.  A random constant unipotent
    change of coordinates (adding multiples of later components to earlier
    ones) then mixes the components without changing the colength."""
    zero = Poly.zero(nvars)
    gens = []
    for comp in range(rank):
        for g in random_finite_colength_ideal(rng, nvars):
            gens.append([zero] * comp + [g] + [
                random_poly(rng, nvars, max_degree=2, terms=2)
                for _ in range(comp + 1, rank)])
    for i in range(rank):
        for k in range(i + 1, rank):
            c = rng.randint(-2, 2)
            for vec in gens:
                vec[i] = vec[i] + vec[k] * c
    return [tuple(vec) for vec in gens]


# -- written-out matrices -----------------------------------------------------

def elementary(n, nvars, units):
    """The constant n x n matrix with entry c at (i, j) for (i, j, c) in
    units and 0 elsewhere."""
    ent = [[Poly.zero(nvars)] * n for _ in range(n)]
    for i, j, c in units:
        ent[i][j] = Poly.constant(nvars, c)
    return PolyMatrix(ent, nvars)


def dense_basis(kind, n, nvars):
    """The basis matrices of kind's space ('sl' for the trace-free one),
    in the library's coordinate order, written out."""
    return [elementary(n, nvars, b) for b in _sparse_basis(kind, n)]


def sl_coords(m):
    """Coordinates of a trace-free PolyMatrix: off-diagonal entries
    row-major, then the n-1 leading partial sums of the diagonal.  Raises
    if the trace is not identically zero."""
    return _sl_coords({(i, j): p for i, r in enumerate(m.entries)
                       for j, p in enumerate(r)}, m.rows, Poly.zero(m.nvars))


def block(grid):
    """The PolyMatrix assembled from a grid of PolyMatrix blocks.  A block
    of the wrong height raises from zip, one of the wrong width from
    PolyMatrix."""
    rows = [sum(parts, ()) for line in grid
            for parts in zip(*(b.entries for b in line), strict=True)]
    return PolyMatrix(rows, grid[0][0].nvars, sum(b.cols for b in grid[0]))


# -- product-built resolutions and Lie images ----------------------------------
#
# The library places rows and columns of the family matrix S by the entries
# of each basis matrix.  These references multiply out the PolyMatrix
# products of the written-out basis matrices instead.

def lie_images_by_products(fam, flavour):
    """Flattened images of sl (special) or gl (general) acting on S."""
    basis = dense_basis("sl" if flavour == "special" else "general",
                        fam.n, fam.m)
    s = fam.entries
    if fam.kind == "general":
        return ([tuple(flatten("general", a @ s)) for a in basis]
                + [tuple(flatten("general", s @ b)) for b in basis])
    return [tuple(flatten(fam.kind, transpose(a) @ s + s @ a))
            for a in basis]


def _jozefiak_by_products(fam):
    n, nv, s = fam.n, fam.m, fam.entries
    a = adjugate(s)
    ranks = (1, space_dim("symmetric", n), n * n - 1, space_dim("skew", n))
    d1 = PolyMatrix.from_columns(
        1, [[trace(a @ b)] for b in dense_basis("symmetric", n, nv)], nv)
    d2 = PolyMatrix.from_columns(
        ranks[1], [flatten("symmetric", s @ b + transpose(b) @ s)
                   for b in dense_basis("sl", n, nv)], nv)
    d3 = PolyMatrix.from_columns(
        ranks[2], [sl_coords(b @ s) for b in dense_basis("skew", n, nv)], nv)
    return FreeComplex(ranks, (d1, d2, d3), nv)


def _jp_by_products(fam):
    n, nv, s = fam.n, fam.m, fam.entries
    p = sub_pfaffian_matrix(s)
    sk, sy, sl = space_dim("skew", n), space_dim("symmetric", n), n * n - 1
    half = Fraction(1, 2)
    skb, slb, syb = (dense_basis(kind, n, nv)
                     for kind in ("skew", "sl", "symmetric"))
    ident = PolyMatrix.identity(n, nv)
    d1 = PolyMatrix.from_columns(
        1, [[trace(p @ b) * half] for b in skb], nv)
    d2 = PolyMatrix.from_columns(
        sk, [flatten("skew", s @ b + transpose(b) @ s) for b in slb], nv)
    d3 = PolyMatrix.from_columns(
        sl, [sl_coords(p @ w) for w in syb]
        + [sl_coords(-(x @ s)) for x in syb], nv)
    d4_cols = []
    for y in slb:
        sy_part, yp = s @ y, y @ p
        d4_cols.append(flatten("symmetric", sy_part + transpose(sy_part))
                       + flatten("symmetric", yp + transpose(yp)))
    d4 = PolyMatrix.from_columns(2 * sy, d4_cols, nv)
    d5_cols = []
    for z in skb:
        zs = z @ s
        d5_cols.append(sl_coords(zs - ident.scale(trace(zs)
                                                  * Fraction(1, n))))
    d5 = PolyMatrix.from_columns(sl, d5_cols, nv)
    d6 = PolyMatrix.from_columns(sk, [flatten("skew", p)], nv)
    return FreeComplex((1, sk, sl, 2 * sy, sl, sk, 1),
                       (d1, d2, d3, d4, d5, d6), nv)


def _gn_by_products(fam):
    n, nv, m = fam.n, fam.m, fam.entries
    a = adjugate(m)
    gl, sl = n * n, n * n - 1
    glb, slb = dense_basis("general", n, nv), dense_basis("sl", n, nv)
    ident = PolyMatrix.identity(n, nv)
    d1 = PolyMatrix.from_columns(1, [[trace(a @ b)] for b in glb], nv)
    d2 = PolyMatrix.from_columns(
        gl, [flatten("general", m @ x) for x in slb]
        + [flatten("general", -(y @ m)) for y in slb], nv)
    d3_cols = []
    for z in glb:
        zm, mz = z @ m, m @ z
        d3_cols.append(
            sl_coords(zm - ident.scale(trace(zm) * Fraction(1, n)))
            + sl_coords(mz - ident.scale(trace(mz) * Fraction(1, n))))
    d3 = PolyMatrix.from_columns(2 * sl, d3_cols, nv)
    d4 = PolyMatrix.from_columns(gl, [flatten("general", a)], nv)
    return FreeComplex((1, gl, 2 * sl, gl, 1), (d1, d2, d3, d4), nv)


def kind_complex_by_products(fam):
    """The kind resolution of a family, by PolyMatrix products."""
    return {"symmetric": _jozefiak_by_products, "skew": _jp_by_products,
            "general": _gn_by_products}[fam.kind](fam)


# -- the comparison-map route to tau ------------------------------------------
#
# The source paper proves tau = mu through the comparison map from the
# Koszul complex of g = det/Pf into the family's resolution: H_1 of its
# mapping cone is tau.  A map of complexes is the tuple of its degreewise
# matrices, maps[k] from source F_k to target F_k; a map of the wrong shape
# raises from PolyMatrix's product check.

def koszul_augmented(g):
    """Koszul complex of (dg/dx_1, ..., dg/dx_m, g), the function last."""
    return _koszul_on([partial(g, i) for i in range(g.nvars)] + [g], g.nvars)


def verify_chain_map(source, target, maps):
    """True iff d_k phi_k = phi_(k-1) d_k in every degree maps covers."""
    return all(target.diff(k) @ maps[k] == maps[k - 1] @ source.diff(k)
               for k in range(1, len(maps)))


def phi_f(fam, l):
    """The comparison maps, through degree 2 (1 for a one-parameter
    family), from koszul(g) into l, the (pulled-back) resolution of fam's
    kind.  Degree 1 is the jacobian of
    the family in the flattening coordinates of its kind.  Degree 2 sends
    e_i ^ e_j (i < j, with d(e_i ^ e_j) = g_i e_j - g_j e_i) to the
    commutator-type expressions in the partials of the family and of its
    adjugate or sub-Pfaffian companion; these are trace free because mixed
    second partials of g commute."""
    kind, m, s = fam.kind, fam.m, fam.entries
    comp = sub_pfaffian_matrix(s) if kind == "skew" else adjugate(s)
    ds = [fam.partial(i) for i in range(m)]
    dc = [comp.map_entries(lambda p, i=i: partial(p, i)) for i in range(m)]
    maps = (PolyMatrix.identity(1, m), PolyMatrix.from_columns(
        space_dim(kind, fam.n), [flatten(kind, d) for d in ds], m))
    if m < 2:
        return maps
    half = Fraction(1, 2)
    cols = []
    for i, j in combinations(range(m), 2):
        col = sl_coords((dc[i] @ ds[j] - dc[j] @ ds[i]).scale(half))
        if kind == "general":
            col += sl_coords((ds[i] @ dc[j] - ds[j] @ dc[i]).scale(half))
        cols.append(col)
    return maps + (PolyMatrix.from_columns(l.ranks[2], cols, m),)


def cone(source, target, maps, through_degree):
    """Mapping cone of the chain map, truncated: C_0 = B_0 and
    C_k = A_(k-1) + B_k for 1 <= k <= through_degree, with

        d_1 = [-phi_0 | d^B_1]
        d_k = [[-d^A_(k-1), 0], [-phi_(k-1), d^B_k]]   (k >= 2)
    """
    a, b = source, target
    diffs = [block([[-maps[0], b.diff(1)]])]
    for k in range(2, through_degree + 1):
        zero = PolyMatrix.zeros(a.ranks[k - 2], b.ranks[k], b.nvars)
        diffs.append(block([[-a.diff(k - 1), zero],
                            [-maps[k - 1], b.diff(k)]]))
    ranks = [b.ranks[0]] + [a.ranks[k - 1] + b.ranks[k]
                            for k in range(1, through_degree + 1)]
    return FreeComplex(tuple(ranks), tuple(diffs), b.nvars)


def tau_homological(fam):
    """Third route to tau: H_1 of the cone over the comparison map."""
    l = kind_complex(fam)
    k = koszul(fam.function())
    return homology_dimension(cone(k, l, phi_f(fam, l), 2), 1)
