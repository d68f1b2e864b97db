import random

import pytest

from matsing import (
    FreeComplex,
    INFINITE,
    MatrixFamily,
    Poly,
    PolyMatrix,
    StepLimitExceeded,
    generic_family,
    gn_complex,
    homology_dimension,
    homology_profile,
    jozefiak_complex,
    jp_complex,
    kind_complex,
    koszul,
    parse_poly,
    pullback,
    verify_complex,
)
from matsing.complexes import _template
from matsing.families import catalog, parse_family
from matsing.groebner import (GLOBAL, LOCAL, ModuleBasis, member, modulo,
                              quotient_dimension, syzygies, syzygies_of_basis)
from matsing.invariants import _lie_images, function_presentation
from matsing.poly import SubstitutionMap, substitute

from conftest import budget
from oracle import (block, cone, kind_complex_by_products, koszul_augmented,
                    lie_images_by_products, phi_f, random_poly,
                    verify_chain_map)


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
    return MatrixFamily(kind, PolyMatrix(grid, nvars))


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


@pytest.mark.parametrize("name, n", [
    ("normal-form-sym", 4), ("normal-form-gen", 4), ("normal-form-skew", 6)])
def test_normal_forms_are_pullbacks_of_the_generic_objects(name, n):
    # The kind complex and the Lie-algebra tangent images are linear in the
    # family matrix S, so building them on S directly and pulling back the
    # generic ones along fam.as_map() are two routes to the same matrices.
    fam = catalog(name, n=n).to_family()
    generic = generic_family(fam.kind, n)
    fmap = fam.as_map()
    assert kind_complex(fam) == pullback(kind_complex(generic), fmap)
    for flavour in ("special", "general"):
        pulled = [tuple(substitute(p, fmap) for p in v)
                  for v in _lie_images(fam.kind, generic.entries, flavour)]
        assert _lie_images(fam.kind, fam.entries, flavour) == pulled, \
            flavour


# Families with rational entries, with entries that do not vanish at 0, and
# of sizes 1 (symmetric, general) and 2 (skew).
_EDGE_FAMILIES = [
    "kind=symmetric; vars=x,y; matrix=[[1/2*x,y],[y,1/3*x^2]]",
    "kind=general; vars=x,y; matrix=[[2/3*x,y],[-1/2*y,x^2+1/5*y]]",
    "kind=skew; vars=x1..x4; upper=[[1/2*x1,x2,x3],[x4,-1/3*x2],[x1]]",
    "kind=symmetric; vars=x,y; matrix=[[x+1,y],[y,x^2-2]]",
    "kind=general; vars=x,y,z; matrix=[[1,x+y],[z,x^2+3]]",
    "kind=skew; vars=x1..x4; upper=[[x1+1,x2,x3],[x4,-x2],[x1+2]]",
    "kind=symmetric; vars=x; matrix=[[x^2]]",
    "kind=general; vars=x,y; matrix=[[x*y+y^3]]",
    "kind=skew; vars=x,y; upper=[[x+y^2]]",
]


def _placement_cases():
    """Catalog entries, the edge families above and seeded draws of
    symmetric and general n = 2..4 and skew n = 4, 6."""
    for name, params in (("generic-sym-2", {}), ("generic-gen-2", {}),
                         ("generic-skew-4", {}), ("diag-sym", {"a": (2, 3, 1)})):
        yield (name, params), catalog(name, **params).to_family()
    for name, sizes in (("normal-form-sym", (2, 3, 4)),
                        ("normal-form-gen", (2, 3, 4)),
                        ("normal-form-skew", (4, 6))):
        for n in sizes:
            yield (name, n), catalog(name, n=n).to_family()
    for text in _PENCILS + _EDGE_FAMILIES:
        yield text, parse_family(text).to_family()
    rng = random.Random(2021)
    for kind, sizes in (("symmetric", (2, 3, 4)), ("general", (2, 3, 4)),
                        ("skew", (4, 6))):
        for n in sizes:
            for _ in range(3):
                yield (kind, n), random_family(rng, kind, n,
                                               rng.choice((1, 2, 3)))


def test_templated_resolutions_match_the_products():
    # The library evaluates one template per (kind, n), derived from the
    # formulas on linear forms; the references multiply out the written-out
    # basis matrices with the family's own S and companion.  The Polys are
    # canonical, so equal matrices mean equal entries.  Two passes in
    # opposite orders, from an empty template cache: the first derives each
    # template on some family of its (kind, n), and the second reuses every
    # template on the others.
    cases = list(_placement_cases())
    _template.cache_clear()
    for label, fam in cases + cases[::-1]:
        assert kind_complex(fam) == kind_complex_by_products(fam), label


def test_placed_lie_images_match_the_products():
    # The Lie images place rows and columns of S by the entries of each
    # basis matrix; the references multiply out the basis matrices.
    for label, fam in _placement_cases():
        for flavour in ("special", "general"):
            assert _lie_images(fam.kind, fam.entries, flavour) \
                == lie_images_by_products(fam, flavour), (label, flavour)


def test_chain_map_three_kinds(rng):
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        for _ in range(4):
            fam = random_family(rng, kind, n, 3)
            g = fam.function()
            if g.is_zero():
                continue
            l = pullback(kind_complex(generic_family(kind, n)), fam.as_map())
            assert verify_chain_map(koszul(g), l, phi_f(fam, l)), kind


def test_chain_map_one_parameter_family():
    # One source variable: the Koszul complex stops at degree 1, phi has
    # no degree-2 component.
    fam = MatrixFamily("symmetric", PolyMatrix(
        [[parse_poly("x", ["x"]), Poly.zero(1)],
         [Poly.zero(1), parse_poly("x^2", ["x"])]], 1))
    l = pullback(jozefiak_complex(generic_family("symmetric", 2)),
                 fam.as_map())
    phi = phi_f(fam, l)
    assert len(phi) == 2
    assert verify_chain_map(koszul(fam.function()), l, phi)


def test_cone_square_zero_and_h1():
    fam = generic_family("symmetric", 2)
    l = jozefiak_complex(fam)
    c = cone(koszul(fam.function()), l, phi_f(fam, l), 2)
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


def test_homology_of_zero_modules_is_zero():
    # F_0 = 0: H_0 is 0 whether or not a differential maps into it.
    zero_to_o2 = PolyMatrix([], 2, cols=2)
    assert homology_dimension(FreeComplex((0, 2), (zero_to_o2,), 2), 0) == 0
    assert homology_dimension(FreeComplex((0,), (), 2), 0) == 0
    assert homology_dimension(FreeComplex((1,), (), 2), 0) is INFINITE


def test_complex_validation():
    with pytest.raises(ValueError):
        FreeComplex((1, 2), (PolyMatrix([[P("x")]], 2),), 2)
    # A chain map with a map of the wrong shape fails PolyMatrix's product
    # check.
    c = koszul(P("x^2 + y^3"))
    with pytest.raises(ValueError):
        verify_chain_map(c, c, (PolyMatrix.identity(1, 2),
                                PolyMatrix([[P("x"), P("y")]], 2)))


def test_complexes_are_immutable_records():
    fam = generic_family("symmetric", 2)
    c = jozefiak_complex(fam)
    assert c == FreeComplex(ranks=c.ranks, differentials=c.differentials,
                            nvars=c.nvars)
    assert repr(c) == (
        "FreeComplex(ranks=(1, 3, 3, 1), differentials=(PolyMatrix(1x3 in 3 "
        "vars), PolyMatrix(3x3 in 3 vars), PolyMatrix(3x1 in 3 vars)), "
        "nvars=3)")
    for name in ("ranks", "_column_stacks"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)


def test_column_bases_are_built_once_and_reused():
    fam = generic_family("symmetric", 2)
    c = jozefiak_complex(fam)
    assert c._column_stacks == {}
    first = homology_profile(c)
    bases = dict(c._column_stacks)
    assert sorted(bases) == list(range(c.length + 1))
    assert homology_profile(c) == first
    assert all(c._column_stacks[k] is b for k, b in bases.items())
    # The cache is no field: it changes neither == nor repr.
    fresh = jozefiak_complex(fam)
    assert c == fresh and repr(c) == repr(fresh)


def test_cached_stacks_keep_the_step_limit():
    # H_1 reads the stack of d_1 cached by the profile; under a budget too
    # small to build that stack it must raise, as a fresh build would.
    x, y = P("x"), P("y")
    row = PolyMatrix([[x ** 4 + y ** 3, x * y ** 2 + x ** 3 * y,
                       x ** 2 * y ** 2]], 2)
    c = FreeComplex((1, 3), (row,), 2)
    assert homology_profile(c) == [10, INFINITE]
    with budget(1), pytest.raises(StepLimitExceeded):
        homology_dimension(c, 1)


# -- homology against the route by membership certificates ---------------------

def _homology_by_membership(c, k):
    """dim H_k, k >= 1, by the earlier route: a kernel z_1..z_t of
    d_k, one membership certificate in the z_i per column of d_(k+1), plus
    the syzygies of the z_i, then the colength of O^t modulo all of these."""
    kernel = syzygies(c.diff(k))
    t = kernel.cols
    if k == c.length:
        return 0 if t == 0 else INFINITE
    if t == 0:
        return 0
    zbasis = ModuleBasis(c.diff(k).cols,
                         [kernel.column(j) for j in range(t)], LOCAL)
    dk1 = c.diff(k + 1)
    relations = []
    for j in range(dk1.cols):
        col = dk1.column(j)
        if all(p.is_zero() for p in col):
            continue
        res = member(col, zbasis)
        assert res.contains, "boundary column outside the kernel"
        relations.append(res.coefficients)
    relations.extend(syzygies_of_basis(zbasis))
    return quotient_dimension(ModuleBasis(t, relations, LOCAL))


def _homology_by_combined_syzygies(c, k):
    """dim H_k, k >= 1, by the route before modulo: a GLOBAL kernel
    z_1..z_t of d_k, then the first t components of the GLOBAL syzygies of
    [Z | d_(k+1)], whose completion pairs the columns of d_(k+1) again."""
    kernel = syzygies(c.diff(k))
    t = kernel.cols
    if k == c.length:
        return 0 if t == 0 else INFINITE
    if t == 0:
        return 0
    dk1 = c.diff(k + 1)
    rel = syzygies(block([[kernel, dk1]]))
    return quotient_dimension(ModuleBasis(
        t, [rel.column(j)[:t] for j in range(rel.cols)], LOCAL))


def _homology_by_poly_modulo(c, k):
    """dim H_k, k >= 1, through the public Poly API: the columns of
    syzygies(d_k), modulo im d_(k+1), then quotient_dimension under the
    local order.  homology_dimension takes the same steps on flat vectors
    throughout."""
    def columns(d):
        return ModuleBasis(d.rows, [d.column(j) for j in range(d.cols)],
                           GLOBAL)
    kernel = syzygies(c.diff(k))
    cycles = [kernel.column(j) for j in range(kernel.cols)]
    t = len(cycles)
    if k == c.length:
        return 0 if t == 0 else INFINITE
    if t == 0:
        return 0
    relations = modulo(cycles, columns(c.diff(k + 1)))
    return quotient_dimension(ModuleBasis(t, relations, LOCAL))


def _flat_homology_cases():
    """The kind complexes of the catalog families and of seeded random
    families of several shapes."""
    for name, params in (("generic-sym-2", {}), ("generic-gen-2", {}),
                         ("generic-skew-4", {}), ("normal-form-sym", {"n": 3}),
                         ("normal-form-sym", {"n": 4}),
                         ("normal-form-gen", {"n": 3}),
                         ("normal-form-gen", {"n": 4}),
                         ("normal-form-skew", {"n": 4}),
                         ("normal-form-skew", {"n": 6}),
                         ("diag-sym", {"a": (2, 3, 1)})):
        yield (name, params), catalog(name, **params).to_family()
    for text in _PENCILS:
        yield text, parse_family(text).to_family()
    for shape in (("symmetric", 2, 1), ("symmetric", 2, 2), ("general", 2, 2),
                  ("general", 2, 3), ("skew", 4, 3)):
        rng = random.Random(sum(map(ord, str(shape))))
        for i in range(3):
            yield (shape, i), random_family(rng, *shape)


def test_flat_homology_matches_the_poly_route():
    # homology_dimension hands flats from the syzygies to modulo to the
    # local colength; the public functions go through Polys in between.
    for label, fam in _flat_homology_cases():
        c = kind_complex(fam)
        for k in range(1, c.length + 1):
            assert homology_dimension(c, k) == _homology_by_poly_modulo(c, k), \
                (label, k)


def _h0_by_local_colength(c):
    """H_0 as the LOCAL colength of the columns of d_1 (of nothing for
    length 0), without the stacks."""
    cols = []
    if c.length:
        d1 = c.diff(1)
        cols = [d1.column(j) for j in range(d1.cols)]
    return quotient_dimension(ModuleBasis(c.ranks[0], cols, LOCAL))


def test_h0_by_the_stacks_matches_the_local_colength_of_d1():
    cases = [(label, kind_complex(fam))
             for label, fam in _flat_homology_cases()]
    for name in ("remark-4-8-iii", "cross-ratio-example"):
        spec = catalog(name)
        g = substitute(spec.f, SubstitutionMap(spec.map_images))
        cases += [(name, koszul(g)), ((name, "augmented"),
                                      koszul_augmented(g))]
    for label, c in cases:
        assert homology_dimension(c, 0) == _h0_by_local_colength(c), label
    for r0, want in ((0, 0), (2, INFINITE)):
        c = FreeComplex((r0,), (), 2)
        assert homology_dimension(c, 0) == _h0_by_local_colength(c) == want


@pytest.mark.parametrize("family, profile", [
    (lambda: catalog("generic-skew-4").to_family(), [1, 0, 0, 0, 0, 0, 0]),
    (lambda: parse_family(_PENCILS[6]).to_family(), [1, 2, 1, 0, 0, 0, 0]),
], ids=["generic-skew-4", "pencil-skew-a"])
def test_colon_stacks_only_where_a_cycle_is_no_boundary(monkeypatch, family,
                                                        profile):
    # H_0 reads the boundaries' seed alone, and a degree whose cycles all
    # divide to 0 by it answers 0: a seeded stack (the colon stack of
    # _Stack.modulo) is built only for the nonzero H_k below the top
    # degree, besides one column stack per differential.
    from matsing.groebner import _Stack
    built = []
    init = _Stack.__init__

    def spy(self, flats, rank, enc, *seed):
        built.append(bool(seed))
        init(self, flats, rank, enc, *seed)

    monkeypatch.setattr(_Stack, "__init__", spy)
    c = kind_complex(family())
    seeded = []
    for k in range(c.length + 1):
        built.clear()
        assert homology_dimension(c, k) == profile[k], k
        seeded.append(built.count(True))
    assert seeded == [1 if h and 0 < k < c.length else 0
                      for k, h in enumerate(profile)]
    assert sorted(c._column_stacks) == list(range(c.length + 1))


def _assert_same_homology(c, label):
    # H_0, the cokernel of d_1, is computed the same way on both routes.
    for k in range(1, c.length + 1):
        assert homology_dimension(c, k) == _homology_by_membership(c, k), \
            (label, k)


# The pencils of perfbench/gen.py, then its pencil-skew-gor.
_PENCILS = [
    "kind=symmetric; vars=x,y; matrix=[[x,y],[y,-x]]",
    "kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]",
    "kind=general; vars=x,y,z; matrix=[[x,y],[z,-x]]",
    "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]",
    "kind=general; vars=x,y; matrix=[[x,y],[-y,x]]",
    "kind=general; vars=x,y; matrix=[[x,y],[-y,x+y^2]]",
    "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1]]",
    "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1+x2^2]]",
]

# slow-sym and slow-gen of perfbench/gen.py.  H_1 of the cones of their
# comparison maps (see oracle.tau_homological) is left out: the membership
# route passes 8 s on both.
_SLOW = [
    "kind=symmetric; vars=x,y; upper=[[x,y,0],[x,y^2],[x^2+y]]",
    "kind=general; vars=x,y,z; matrix=[[x,y^2+z^3],[z^2+x*y,y+x^3]]",
]


@pytest.mark.parametrize("text", _PENCILS + _SLOW)
def test_homology_matches_membership_route_on_pencils(text):
    fam = parse_family(text).to_family()
    l = kind_complex(fam)
    _assert_same_homology(l, text)
    if text in _PENCILS:
        # The cone behind oracle.tau_homological, whose H_1 is tau.
        phi = phi_f(fam, l)
        _assert_same_homology(cone(koszul(fam.function()), l, phi, 2),
                              (text, "cone"))


@pytest.mark.parametrize("name, n", [
    ("normal-form-sym", 2), ("normal-form-sym", 3), ("normal-form-sym", 4),
    ("normal-form-gen", 2), ("normal-form-gen", 3), ("normal-form-gen", 4),
    ("normal-form-skew", 4)])
def test_homology_matches_membership_route_on_normal_forms(name, n):
    _assert_same_homology(kind_complex(catalog(name, n=n).to_family()),
                          (name, n))


def test_homology_matches_membership_route_on_random_families():
    for seed in range(20):
        fam = random_family(random.Random(seed), "symmetric", 2, 1,
                            linear_bias=False)
        _assert_same_homology(kind_complex(fam), seed)


def test_homology_matches_membership_route_on_koszul():
    for text, names in (("x^2 + y^3", "xy"), ("x^3 + y^4", "xy"),
                        ("x^2*y + y^4", "xy"), ("x^5 + x*y^3", "xy"),
                        ("x^2 + y^2 + z^3", "xyz"),
                        ("x*y*z + x^3 + y^3 + z^3", "xyz")):
        g = parse_poly(text, list(names))
        _assert_same_homology(koszul(g), text)


@pytest.mark.parametrize("name", ["remark-4-8-iii", "cross-ratio-example"])
def test_homology_matches_membership_route_on_sections(name):
    spec = catalog(name)
    pres = function_presentation(spec.f)
    _assert_same_homology(pres, name)
    _assert_same_homology(pullback(pres, SubstitutionMap(spec.map_images)),
                          (name, "pulled back"))


# slow-skew6 of perfbench/gen.py KNOWN_SLOW, and the 4x4 skew family left
# after splitting off its unit entry s_34.
_SLOW_SKEW6 = ("kind=skew; vars=x,y,z; "
               "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]")
_SLOW_SKEW6_COMPLEMENT = (
    "kind=skew; vars=x,y,z; "
    "upper=[[x-y^2*z, y, z*x^2+z*y^3], [z+x*y^2, 0], [x^3+x*y^3]]")


def test_slow_skew6_homology_matches_its_schur_complement():
    # The two families are congruent up to a unit 2x2 block, so their
    # pulled-back resolutions have the same homology.  The complement goes
    # through both routes before modulo.
    small = kind_complex(parse_family(_SLOW_SKEW6_COMPLEMENT).to_family())
    reference = [homology_dimension(small, 0)] + [
        _homology_by_combined_syzygies(small, k)
        for k in range(1, small.length + 1)]
    assert reference == [1, 3, 3, 1, 0, 0, 0]
    assert reference[1:] == [_homology_by_membership(small, k)
                             for k in range(1, small.length + 1)]
    big = kind_complex(parse_family(_SLOW_SKEW6).to_family())
    assert homology_profile(big) == reference


def _below_codim_families():
    """Families in m < codim Sigma variables (3 symmetric, 4 general,
    6 skew): the pencils, diag-sym tuples, the known-slow inputs and the
    seeded symmetric 2x2 families in one variable."""
    for text in _PENCILS + _SLOW + [_SLOW_SKEW6]:
        yield text, parse_family(text).to_family()
    for a in ((1, 2), (2, 3), (1, 1, 2), (1, 2, 2), (2, 3, 1, 1)):
        yield a, catalog("diag-sym", a=a).to_family()
    for seed in range(20):
        yield seed, random_family(random.Random(seed), "symmetric", 2, 1,
                                  linear_bias=False)


def test_euler_characteristic_vanishes_below_the_codimension():
    # H_k is Tor_k, over the local ring of C^m x Mat (dimension m + N), of
    # O_(C^m) (x) O_Sigma (dimension m + N - c) and of the graph of the
    # family (dimension m).  Every H_k is finite on these families, so
    # Serre's vanishing theorem gives sum (-1)^k H_k = 0, since
    # 2m + N - c < m + N exactly when m < c.
    for label, fam in _below_codim_families():
        profile = homology_profile(kind_complex(fam))
        assert INFINITE not in profile, (label, profile)
        assert sum((-1) ** k * h for k, h in enumerate(profile)) == 0, \
            (label, profile)


def test_sugar_finishes_the_symmetric_3x3_draw_1401():
    # Before pairs were keyed by their sugar under the global order too, the
    # global stack of the columns of d_2 of this draw grew 17,000-bit
    # coefficients and did not finish in minutes.  Its homology is checked
    # against the Poly route and against the Euler characteristic (m = 2 is
    # below the codimension 3, so the alternating sum vanishes).  Its largest
    # computation takes 941 steps; the budget makes a regression fail fast.
    fam = random_family(random.Random(1401), "symmetric", 3, 2)
    c = kind_complex(fam)
    with budget(1000):
        profile = homology_profile(c)
        assert profile[1:] == [_homology_by_poly_modulo(c, k)
                               for k in range(1, c.length + 1)]
    assert profile == [3, 3, 0, 0]
    assert sum((-1) ** k * h for k, h in enumerate(profile)) == 0
