from fractions import Fraction

import pytest

from matsing import (
    FreeComplex,
    INFINITE,
    MatrixFamily,
    Poly,
    PolyMatrix,
    cone,
    generic_family,
    gn_complex,
    homology_dimension,
    homology_profile,
    jozefiak_complex,
    jp_complex,
    kind_complex,
    koszul,
    koszul_augmented,
    parse_poly,
    phi_f,
    pullback,
    verify_chain_map,
    verify_complex,
)
from matsing.poly import SubstitutionMap

from oracle import random_poly


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def random_family(rng, kind, n, nvars, linear_bias=True):
    """A random family of the given kind with entries vanishing at 0."""
    def entry():
        p = random_poly(rng, nvars, max_degree=2 if linear_bias else 3,
                        terms=3)
        return p
    z = Poly.zero(nvars)
    if kind == "general":
        grid = [[entry() for _ in range(n)] for _ in range(n)]
    elif kind == "symmetric":
        grid = [[z] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p = entry()
                grid[i][j] = p
                grid[j][i] = p
    else:
        grid = [[z] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                p = entry()
                grid[i][j] = p
                grid[j][i] = -p
    return MatrixFamily(kind, n, nvars, PolyMatrix(grid, nvars))


def test_koszul_shapes_and_exactness():
    g = P("x^2 + y^3")
    k = koszul(g)
    assert k.ranks == (1, 2, 1)
    assert verify_complex(k)
    # The partials form a regular sequence, so positive homology vanishes.
    assert homology_profile(k) == [2, 0, 0]


def test_koszul_augmented_known_small():
    g = parse_poly("x^2", ["x"])
    k = koszul_augmented(g)
    assert k.ranks == (1, 2, 1)
    assert verify_complex(k)
    # H_0 = O/(2x, x^2) = O/(x): dimension 1.
    assert homology_dimension(k, 0) == 1


def test_resolution_shapes():
    sym = jozefiak_complex(generic_family("symmetric", 2))
    assert sym.ranks == (1, 3, 3, 1)
    gen = gn_complex(generic_family("general", 2))
    assert gen.ranks == (1, 4, 6, 4, 1)
    skew = jp_complex(generic_family("skew", 4))
    assert skew.ranks == (1, 6, 15, 20, 15, 6, 1)


def test_resolutions_square_zero_generic():
    for kind in ("symmetric", "general", "skew"):
        for n in ((2, 3) if kind != "skew" else (4, 6)):
            fam = generic_family(kind, n)
            assert verify_complex(kind_complex(fam)), (kind, n)


def test_resolutions_square_zero_random(rng):
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        for _ in range(5):
            fam = random_family(rng, kind, n, 2)
            assert verify_complex(kind_complex(fam)), kind


def test_generic_resolutions_acyclic():
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        fam = generic_family(kind, n)
        profile = homology_profile(kind_complex(fam))
        assert profile[0] == 1, kind
        assert all(h == 0 for h in profile[1:]), kind


def test_pullback_keeps_square_zero():
    fam = generic_family("symmetric", 2)
    c = jozefiak_complex(fam)
    fmap = SubstitutionMap([P("x"), P("y"), P("x + y")])
    pulled = pullback(c, fmap)
    assert pulled.nvars == 2
    assert verify_complex(pulled)
    with pytest.raises(ValueError):
        pullback(c, SubstitutionMap([P("x"), P("y")]))


def test_kind_complex_is_pullback_of_generic(rng):
    # A family is the section fam.as_map() of the generic det/Pf, and its
    # own kind complex is the generic one pulled back along that map.
    for kind, n in (("symmetric", 2), ("symmetric", 3), ("general", 2),
                    ("general", 3), ("skew", 2), ("skew", 4)):
        generic = kind_complex(generic_family(kind, n))
        for _ in range(5):
            fam = random_family(rng, kind, n, rng.choice((1, 2, 3)))
            assert pullback(generic, fam.as_map()) == kind_complex(fam), \
                (kind, n)


def test_chain_map_three_kinds(rng):
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        for _ in range(4):
            fam = random_family(rng, kind, n, 3)
            g = fam.function()
            if g.is_zero():
                continue
            l = pullback(kind_complex(generic_family(kind, n)), fam.as_map())
            phi = phi_f(g, fam.as_map(), l, kind)
            assert verify_chain_map(phi), kind


def test_chain_map_one_parameter_family():
    # One source variable: the Koszul complex stops at degree 1, phi has
    # no degree-2 component.
    fam = MatrixFamily("symmetric", 2, 1, PolyMatrix(
        [[parse_poly("x", ["x"]), Poly.zero(1)],
         [Poly.zero(1), parse_poly("x^2", ["x"])]], 1))
    l = pullback(jozefiak_complex(generic_family("symmetric", 2)),
                 fam.as_map())
    phi = phi_f(fam.function(), fam.as_map(), l, "symmetric")
    assert len(phi.maps) == 2
    assert verify_chain_map(phi)


def test_cone_square_zero_and_h1():
    fam = generic_family("symmetric", 2)
    l = jozefiak_complex(fam)
    phi = phi_f(fam.function(), fam.as_map(), l, "symmetric")
    c = cone(phi, 2)
    assert verify_complex(c)
    assert homology_dimension(c, 1) == 0


def test_homology_detects_nonexact():
    d1 = PolyMatrix([[P("x"), P("y")]], 2)
    # Both columns are multiples of the kernel generator (-y, x), by y and
    # by x, so H_1 = O/(x, y) has dimension 1.
    d2 = PolyMatrix([[P("-y^2"), P("-x*y")], [P("x*y"), P("x^2")]], 2)
    c = FreeComplex((1, 2, 2), (d1, d2), 2)
    assert verify_complex(c)
    assert homology_dimension(c, 1) == 1
    assert homology_dimension(c, 0) == 1
    assert homology_dimension(c, 2) is INFINITE


def test_homology_single_multiple_of_kernel_is_infinite():
    d1 = PolyMatrix([[P("x"), P("y")]], 2)
    d2 = PolyMatrix([[P("-y^2")], [P("x*y")]], 2)
    c = FreeComplex((1, 2, 1), (d1, d2), 2)
    assert verify_complex(c)
    # The image is y * (-y, x), so H_1 = O/(y): infinite-dimensional.
    assert homology_dimension(c, 1) is INFINITE


def test_homology_infinite_when_module_infinite():
    d1 = PolyMatrix([[P("x"), Poly.zero(2)]], 2)
    c = FreeComplex((1, 2), (d1,), 2)
    assert homology_dimension(c, 0) is INFINITE


def test_complex_validation():
    with pytest.raises(ValueError):
        FreeComplex((1, 2), (PolyMatrix([[P("x")]], 2),), 2)
