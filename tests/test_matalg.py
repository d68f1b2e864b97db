from fractions import Fraction
from itertools import combinations
import random

import pytest
from hypothesis import given, settings, strategies as st

from matsing import (
    KINDS,
    LOCAL,
    MatrixFamily,
    ModuleBasis,
    Poly,
    PolyMatrix,
    SubstitutionMap,
    catalog,
    flatten,
    generic_family,
    minors_ideal,
    parse_family,
    parse_poly,
    quotient_dimension,
    space_dim,
    sub_pfaffian_matrix,
    unflatten,
)
from matsing import matalg
from matsing.matalg import _pfaffians, adjugate, determinant, pfaffian

from oracle import (block, dense_basis, elementary, is_canonical, random_poly,
                    sl_coords, trace, transpose)


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def random_matrix(rng, n, nvars):
    return PolyMatrix([[random_poly(rng, nvars, max_degree=2, terms=3,
                                    zero_constant=False)
                        for _ in range(n)] for _ in range(n)], nvars)


def random_skew(rng, n, nvars):
    z = Poly.zero(nvars)
    grid = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = random_poly(rng, nvars, max_degree=2, terms=2,
                            zero_constant=False)
            grid[i][j] = p
            grid[j][i] = -p
    return PolyMatrix(grid, nvars)


def test_determinant_known_values():
    m = PolyMatrix([[P("x"), P("y")], [P("y"), P("x")]], 2)
    assert determinant(m) == P("x^2 - y^2")
    c = PolyMatrix([[Poly.constant(0, Fraction(a)) for a in row]
                    for row in ((2, 0, 1), (1, 3, -1), (0, 5, 1))], 0)
    assert determinant(c) == Fraction(21)


def test_adjugate_identity(rng):
    for n in (1, 2, 3):
        m = random_matrix(rng, n, 2)
        det = determinant(m)
        left = adjugate(m) @ m
        right = m @ adjugate(m)
        expect = PolyMatrix.identity(n, 2).scale(det)
        assert left == expect
        assert right == expect
        # The shared minor memo gives each cofactor's own determinant.
        adj = adjugate(m)
        for i in range(n):
            for j in range(n):
                sub = PolyMatrix([[m.entries[r][c] for c in range(n) if c != j]
                                  for r in range(n) if r != i], 2, cols=n - 1)
                sign = 1 if (i + j) % 2 == 0 else -1
                assert adj.entries[j][i] == determinant(sub) * sign


def test_pfaffian_generic_four():
    fam = generic_family("skew", 4)
    assert fam.function() == parse_poly(
        "x1*x6 - x2*x5 + x3*x4", [f"x{i}" for i in range(1, 7)])


def test_pfaffian_squares_to_determinant(rng):
    for n in (2, 4, 6):
        s = random_skew(rng, n, 2)
        pf = pfaffian(s)
        assert pf * pf == determinant(s)


def test_pfaffian_rejects_bad_shapes():
    odd = PolyMatrix([[Poly.zero(1)]], 1)
    with pytest.raises(ValueError):
        pfaffian(odd)
    not_skew = PolyMatrix([[P("x"), P("y")], [P("y"), P("x")]], 2)
    with pytest.raises(ValueError):
        pfaffian(not_skew)


def test_sub_pfaffian_identity(rng):
    for n in (2, 4):
        s = random_skew(rng, n, 2)
        comp = sub_pfaffian_matrix(s)
        pf = pfaffian(s)
        expect = PolyMatrix.identity(n, 2).scale(pf)
        assert comp @ s == expect
        assert s @ comp == expect


def test_generic_sub_pfaffians_match_the_adjugate():
    for n in (2, 4, 6):
        s = generic_family("skew", n).entries
        assert adjugate(s) == sub_pfaffian_matrix(s).scale(pfaffian(s))


def test_generic_sub_pfaffian_identity_at_size_eight():
    s = generic_family("skew", 8).entries
    comp = sub_pfaffian_matrix(s)
    expect = PolyMatrix.identity(8, s.nvars).scale(pfaffian(s))
    assert comp @ s == expect
    assert s @ comp == expect


# The skew pencils of perfbench/gen.py, then its slow-skew6.
SKEW_TEXTS = [
    "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1]]",
    "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1+x2^2]]",
    "kind=skew; vars=x,y,z; "
    "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]",
]


def skew_inputs(rng):
    """Skew matrices: the catalog skew entries, normal-form-skew n = 4, 6,
    8, the skew pencils, slow-skew6 and seeded random draws."""
    specs = [catalog("generic-skew-4")]
    specs += [catalog("normal-form-skew", n=n) for n in (4, 6, 8)]
    specs += [parse_family(t) for t in SKEW_TEXTS]
    mats = [s.to_family().entries for s in specs]
    return mats + [random_skew(rng, n, nv) for n in (2, 4, 6) for nv in (2, 3)]


def generic_route_sub_pfaffians(m):
    """P* of m as the generic sub-pfaffian matrix of m's size, built from
    one pfaffian memo of the generic skew matrix and then substituted by
    the skew coordinates of m."""
    n = m.rows
    s = generic_family("skew", n).entries
    pf = _pfaffians(s)
    ent = [[Poly.zero(s.nvars)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sub = pf(tuple(k for k in range(n) if k != i and k != j))
            ent[i][j] = sub if (i + j) % 2 == 0 else -sub
            ent[j][i] = -ent[i][j]
    return PolyMatrix(ent, s.nvars).apply_map(
        SubstitutionMap(flatten("skew", m)))


def test_sub_pfaffians_match_the_generic_route(rng):
    for m in skew_inputs(rng):
        assert sub_pfaffian_matrix(m) == generic_route_sub_pfaffians(m)


def test_sub_pfaffian_two_by_two():
    s = PolyMatrix([[Poly.zero(2), P("x")], [P("-x"), Poly.zero(2)]], 2)
    comp = sub_pfaffian_matrix(s)
    assert comp.entries[0][1] == Poly.constant(2, -1)
    assert comp.entries[1][0] == Poly.constant(2, 1)
    assert comp.entries[0][0].is_zero() and comp.entries[1][1].is_zero()


def test_sub_pfaffian_check_catches_one_corrupted_entry(monkeypatch):
    """The one product P* m = Pf I that sub_pfaffian_matrix checks rejects
    a P* with any single sub-Pfaffian (entry (i, j), and (j, i) with it)
    off by one, on the generic 4x4 and a seeded 6x6 skew matrix."""
    for m in (generic_family("skew", 4).entries,
              random_skew(random.Random(6), 6, 2)):
        n = m.rows
        for i, j in combinations(range(n), 2):
            bad = tuple(k for k in range(n) if k not in (i, j))

            def corrupted(mat, bad=bad):
                pf = _pfaffians(mat)
                return lambda rows: pf(rows) + 1 if rows == bad else pf(rows)

            monkeypatch.setattr(matalg, "_pfaffians", corrupted)
            with pytest.raises(AssertionError, match="sub-pfaffian"):
                sub_pfaffian_matrix(m)
        monkeypatch.undo()
        sub_pfaffian_matrix(m)


def test_matrix_ring_operations():
    a = PolyMatrix([[P("x"), P("y")], [Poly.zero(2), P("x")]], 2)
    b = PolyMatrix([[P("y"), Poly.zero(2)], [P("x"), P("y")]], 2)
    assert (a @ b).entries[0][0] == P("x*y + x*y")
    assert (a + b - b) == a
    assert transpose(a).entries[0][1].is_zero()
    assert trace(a @ b) == P("2*x*y") + P("x*y")


def test_block_assembly():
    z = Poly.zero(1)
    x = Poly.variable(1, 0)
    a = PolyMatrix([[x]], 1)
    o = PolyMatrix([[z]], 1)
    m = block([[a, o], [o, a]])
    assert m.entries[0][0] == x and m.entries[1][1] == x
    assert m.entries[0][1] == z


def test_zero_row_matrices_keep_columns():
    m = PolyMatrix.zeros(0, 3, 2)
    assert m.rows == 0 and m.cols == 3
    t = transpose(m)
    assert t.rows == 3 and t.cols == 0
    prod = t @ m
    assert prod.rows == 3 and prod.cols == 3 and prod.is_zero()


def test_public_constructor_validates():
    x = P("x")
    with pytest.raises(ValueError):
        PolyMatrix([[x, x], [x]], 2)
    with pytest.raises(TypeError):
        PolyMatrix([[x, 1]], 2)
    with pytest.raises(ValueError):
        PolyMatrix([[x, Poly.variable(3, 0)]])
    with pytest.raises(ValueError):
        PolyMatrix([], cols=2)


def test_cols_must_match_the_rows():
    x = P("x")
    with pytest.raises(ValueError):
        PolyMatrix([[x, x]], 2, cols=3)
    assert PolyMatrix([[x, x]], 2, cols=2).cols == 2
    assert PolyMatrix([], 2, cols=3).cols == 3


# Entries that exercise every branch of the kernel: zero, +-1, other
# constants and general polynomials.
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_NV = 2


def _entries():
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)
                       for _ in range(_NV)])
    return st.one_of(
        st.just(Poly.zero(_NV)),
        st.sampled_from((1, -1)).map(lambda c: Poly.constant(_NV, c)),
        _coeffs.map(lambda c: Poly.constant(_NV, c)),
        st.dictionaries(exps, _coeffs, max_size=3).map(
            lambda d: Poly(_NV, d)))


def _matrices(rows, cols):
    return st.lists(st.lists(_entries(), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda g: PolyMatrix(g, _NV, cols=cols))


@st.composite
def _chain(draw):
    """Matrices a (r x k), b (k x c) and a2 (r x k)."""
    r, k, c = (draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    return (draw(_matrices(r, k)), draw(_matrices(k, c)),
            draw(_matrices(r, k)))


def _dense(rows, cols, fn):
    """The reference: every entry computed by fn, zeros included."""
    return PolyMatrix([[fn(i, j) for j in range(cols)] for i in range(rows)],
                      _NV, cols=cols)


def _dense_product(a, b):
    def entry(i, j):
        acc = Poly.zero(_NV)
        for k in range(a.cols):
            acc = acc + a.entries[i][k] * b.entries[k][j]
        return acc
    return _dense(a.rows, b.cols, entry)


def _assert_same(got, want):
    """Equal entries, in the same term order, with canonical coefficients
    in the matrix's ring."""
    assert (got.rows, got.cols, got.nvars) == (want.rows, want.cols,
                                               want.nvars)
    for rg, rw in zip(got.entries, want.entries):
        for p, q in zip(rg, rw):
            assert isinstance(p, Poly) and p.nvars == _NV
            assert list(p.terms.items()) == list(q.terms.items())
            assert is_canonical(p)


@settings(max_examples=80, deadline=None)
@given(_chain(), _entries(), st.sampled_from((0, 1, -1, Fraction(3, 2))))
def test_kernel_matches_dense_reference(mats, p, c):
    a, b, a2 = mats
    _assert_same(a @ b, _dense_product(a, b))
    ea, ea2 = a.entries, a2.entries
    _assert_same(a + a2, _dense(a.rows, a.cols,
                                lambda i, j: ea[i][j] + ea2[i][j]))
    _assert_same(a - a2, _dense(a.rows, a.cols,
                                lambda i, j: ea[i][j] - ea2[i][j]))
    _assert_same(-a, _dense(a.rows, a.cols, lambda i, j: -ea[i][j]))
    _assert_same(a.scale(p), _dense(a.rows, a.cols,
                                    lambda i, j: ea[i][j] * p))
    _assert_same(a.scale(c), _dense(a.rows, a.cols,
                                    lambda i, j: ea[i][j] * c))
    if b.rows != a.rows or b.cols != a.cols:
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ValueError):
                op(b)
    if b.rows != b.cols:
        with pytest.raises(ValueError):
            b @ b
    # Matrices over another ring, shaped to fit a.
    same = PolyMatrix.zeros(a.rows, a.cols, _NV + 1)
    fit = PolyMatrix.zeros(a.cols, 2, _NV + 1)
    for op, x in ((a.__add__, same), (a.__sub__, same), (a.__matmul__, fit)):
        with pytest.raises(ValueError):
            op(x)
    with pytest.raises(ValueError):
        a.scale(Poly.constant(_NV + 1, 1))


def test_flatten_round_trips(rng):
    for kind, n in (("symmetric", 3), ("skew", 4), ("general", 2)):
        fam = generic_family(kind, n)
        coords = flatten(kind, fam.entries)
        assert len(coords) == space_dim(kind, n)
        back = unflatten(kind, coords, n, fam.m)
        assert back == fam.entries


def test_sl_coords_round_trip():
    m = PolyMatrix([[P("x"), P("y")], [P("x^2"), P("-x")]], 2)
    coords = sl_coords(m)
    assert len(coords) == 3
    trace_full = PolyMatrix([[P("x"), P("y")], [P("y"), P("x")]], 2)
    with pytest.raises(ValueError):
        sl_coords(trace_full)


def test_constant_bases_shapes():
    assert len(dense_basis("symmetric", 3, 1)) == 6
    assert len(dense_basis("skew", 4, 1)) == 6
    assert len(dense_basis("general", 2, 1)) == 4
    assert len(dense_basis("sl", 3, 1)) == 8
    for b in dense_basis("skew", 4, 1):
        assert (b + transpose(b)).is_zero()


def test_constant_bases_are_unflattened_unit_vectors():
    # Each basis is unflatten of the unit coordinate vectors, and equals
    # the elementary matrices written out entry by entry.
    nv = 2
    for n in range(6):
        expected = {
            "symmetric": [elementary(n, nv, {(i, j, 1), (j, i, 1)})
                          for i in range(n) for j in range(i, n)],
            "skew": [elementary(n, nv, [(i, j, 1), (j, i, -1)])
                     for i in range(n) for j in range(i + 1, n)],
            "general": [elementary(n, nv, [(i, j, 1)])
                        for i in range(n) for j in range(n)],
        }
        for kind in ("symmetric", "skew", "general"):
            d = space_dim(kind, n)
            units = [[Poly.constant(nv, int(i == k)) for i in range(d)]
                     for k in range(d)]
            basis = dense_basis(kind, n, nv)
            assert basis == expected[kind], (kind, n)
            assert basis == [unflatten(kind, e, n, nv)
                             for e in units], (kind, n)
            assert [flatten(kind, b) for b in basis] == units


def test_family_validation():
    with pytest.raises(ValueError):
        MatrixFamily("symmetric",
                     PolyMatrix([[P("x"), P("y")], [P("x"), P("y")]], 2))
    with pytest.raises(ValueError):
        MatrixFamily("skew",
                     PolyMatrix([[P("x"), P("y")], [P("-y"), Poly.zero(2)]],
                                2))
    with pytest.raises(ValueError):
        MatrixFamily("nonsense",
                     PolyMatrix([[P("x"), P("y")], [P("y"), P("x")]], 2))
    with pytest.raises(ValueError, match="square"):
        MatrixFamily("general", PolyMatrix([[P("x"), P("y")]], 2))


def test_family_is_an_immutable_record():
    fam = generic_family("symmetric", 2)
    assert fam == MatrixFamily(kind="symmetric", entries=fam.entries)
    assert (fam.n, fam.m) == (2, 3)
    assert fam != generic_family("general", 2)
    assert repr(fam) == ("MatrixFamily(kind='symmetric', "
                         "entries=PolyMatrix(2x2 in 3 vars))")
    with pytest.raises(AttributeError):
        fam.n = 3


def test_generic_family_structure():
    for kind in KINDS:
        n = 4 if kind == "skew" else 2
        fam = generic_family(kind, n)
        assert fam.m == space_dim(kind, n)
        assert not fam.function().is_zero()


def test_minors_ideal_generic_colengths():
    fam = generic_family("symmetric", 2)
    b = minors_ideal(fam, 1)
    assert quotient_dimension(b) == 1
    skew = generic_family("skew", 4)
    sub = minors_ideal(skew, 2)
    assert quotient_dimension(sub) == 1
    with pytest.raises(ValueError):
        minors_ideal(skew, 3)
    unit = minors_ideal(fam, 0)
    assert quotient_dimension(unit) == 0


def test_minors_ideal_full_size_is_function():
    fam = generic_family("general", 2)
    b = minors_ideal(fam, 2)
    assert len(b.generators) == 1
    assert b.generators[0][0] == fam.function()


def submatrix_route_minors(fam, size):
    """The generators of minors_ideal(fam, size) as the determinant or
    pfaffian of each size x size submatrix, built as its own matrix."""
    e = fam.entries.entries
    subsets = list(combinations(range(fam.n), size))
    if fam.kind == "skew":
        return [pfaffian(PolyMatrix([[e[i][j] for j in rows] for i in rows],
                                    fam.m, cols=size))
                for rows in subsets]
    return [determinant(PolyMatrix([[e[i][j] for j in cols] for i in rows],
                                   fam.m, cols=size))
            for rows in subsets for cols in subsets]


def random_symmetric(rng, n, nvars):
    m = random_matrix(rng, n, nvars)
    return m + transpose(m)


def test_minors_ideal_matches_the_submatrix_route(rng):
    fams = [MatrixFamily("skew", m) for m in skew_inputs(rng)]
    for name, params in (("generic-sym-2", {}), ("generic-gen-2", {}),
                         ("normal-form-sym", {"n": 3}),
                         ("normal-form-gen", {"n": 3}),
                         ("diag-sym", {"a": (1, 3, 2)})):
        fams.append(catalog(name, **params).to_family())
    for n in (1, 2, 3):
        fams.append(MatrixFamily("general", random_matrix(rng, n, 2)))
        fams.append(MatrixFamily("symmetric", random_symmetric(rng, n, 2)))
    for fam in fams:
        for size in range(0, fam.n + 1, 2 if fam.kind == "skew" else 1):
            ref = ModuleBasis(1, [(g,) for g in
                                  submatrix_route_minors(fam, size)], LOCAL)
            got = minors_ideal(fam, size)
            assert got == ref and repr(got) == repr(ref), (fam, size)
