import random
from fractions import Fraction

import pytest

from matsing import (
    INFINITE,
    IDENTITIES,
    LOCAL,
    MatrixFamily,
    ModuleBasis,
    Poly,
    PolyMatrix,
    SubstitutionMap,
    analyze,
    betti_numbers,
    catalog,
    corank_at_origin,
    der_log_V,
    der_log_f,
    function_presentation,
    generic_family,
    member,
    milnor_number,
    minors_ideal,
    parse_family,
    parse_poly,
    quotient_dimension,
    t1_kf,
    t1_kv,
    tau_homological,
    tangent_module,
    tau_matrix,
    tjurina_number_function,
    verify_identity,
)
from matsing.groebner import GLOBAL, syzygies
from matsing.invariants import CheckRecord, _Analysis, _jsonable
from matsing.poly import add, mul, partial, substitute

from conftest import budget
from oracle import jet_milnor, jet_tjurina, random_poly
from test_complexes import _PENCILS, random_family


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def sym_family(texts, names):
    entries = [[parse_poly(t, list(names)) for t in row] for row in texts]
    return MatrixFamily("symmetric", len(entries), len(names),
                        PolyMatrix(entries, len(names)))


def test_milnor_known_values():
    assert milnor_number(P("x^2 + y^2")) == 1
    assert milnor_number(P("x^3 + y^3")) == 4
    assert milnor_number(P("x*y")) == 1
    assert milnor_number(parse_poly("x^3", ["x"])) == 2
    assert milnor_number(P("x^2")) is INFINITE


def test_milnor_requires_vanishing():
    with pytest.raises(ValueError):
        milnor_number(P("1 + x"))


def test_tjurina_known_values():
    # Quasihomogeneous: tau = mu.
    assert tjurina_number_function(P("x^3 + y^3")) == 4
    # Not quasihomogeneous: tau < mu.
    g = P("x^3 + y^7 + x*y^5")
    mu = milnor_number(g)
    tau = tjurina_number_function(g)
    assert mu == jet_milnor(g, degree_cap=16)
    assert tau == jet_tjurina(g, degree_cap=16)
    assert tau < mu


def test_milnor_tjurina_match_oracle(rng):
    for _ in range(6):
        g = random_poly(rng, 2, max_degree=3, terms=4)
        want_mu = jet_milnor(g)
        if want_mu is None:
            continue
        assert milnor_number(g) == want_mu
        assert tjurina_number_function(g) == jet_tjurina(g)


def test_der_log_annihilates_function():
    f = parse_poly("x^2 + y^2 + z^2", ["x", "y", "z"])
    for field in der_log_f(f).generators:
        acc = Poly.zero(3)
        for i in range(3):
            acc = add(acc, mul(field[i], partial(f, i)))
        assert acc.is_zero()


def test_der_log_V_preserves_ideal():
    f = P("x*y")
    fields = der_log_V(f).generators
    target = ModuleBasis(1, [(f,)], LOCAL)
    assert fields, "the log module of xy is nontrivial"
    for field in fields:
        acc = Poly.zero(2)
        for i in range(2):
            acc = add(acc, mul(field[i], partial(f, i)))
        assert member(acc, target).contains
    # The Euler-type fields x d/dx and y d/dy belong to it.
    module = ModuleBasis(2, list(fields), LOCAL)
    assert member((P("x"), Poly.zero(2)), module).contains
    assert member((Poly.zero(2), P("y")), module).contains


LIE_DIMS = {  # (Der(-log f), Der(-log V)) generator counts
    "symmetric": lambda n: (n * n - 1, n * n),
    "general": lambda n: (2 * (n * n - 1), 2 * n * n - 1),
    "skew": lambda n: (n * n - 1, n * n),
}


def _same_module(a, b):
    return (all(member(v, b).contains for v in a.generators)
            and all(member(v, a).contains for v in b.generators))


@pytest.mark.parametrize("kind,n", [("symmetric", 2), ("symmetric", 3),
                                    ("general", 2), ("general", 3),
                                    ("skew", 4)])
def test_pruned_generic_log_fields(kind, n):
    f = generic_family(kind, n).function()
    nv = f.nvars
    fields_f = der_log_f(f)
    fields_v = der_log_V(f)
    assert (len(fields_f.generators), len(fields_v.generators)) \
        == LIE_DIMS[kind](n)
    # The pruned basis spans the whole syzygy module it was taken from.
    row = PolyMatrix([[partial(f, i) for i in range(nv)]], nv)
    z = syzygies(row, GLOBAL)
    unpruned = ModuleBasis(nv, [z.column(j) for j in range(z.cols)], GLOBAL)
    assert _same_module(fields_f, unpruned)
    # Der(-log f) plus the Euler field is all of Der(-log V).
    assert _same_module(fields_v, der_log_V(f))


def _syzygy_route_V(f):
    """Der(-log V) as the first N components of the syzygies of
    (df/dx_1, ..., df/dx_N, f), unpruned."""
    n = f.nvars
    row = PolyMatrix([[partial(f, i) for i in range(n)] + [f]], n)
    z = syzygies(row, GLOBAL)
    return ModuleBasis(n, [z.column(j)[:n] for j in range(z.cols)], GLOBAL)


@pytest.mark.parametrize("f", [
    parse_poly("x^5*z + x^3*y^3 + y^5*z", ["x", "y", "z"]),
    generic_family("symmetric", 3).function(),
    generic_family("general", 2).function(),
    generic_family("skew", 4).function(),
])
def test_der_log_V_euler_shortcut_matches_syzygy_route(f):
    # A homogeneous target takes Der(-log f) plus the Euler field.
    fields = der_log_V(f)
    euler = tuple(Poly.variable(f.nvars, i) for i in range(f.nvars))
    assert euler in fields.generators
    assert _same_module(fields, _syzygy_route_V(f))


def test_der_log_V_inhomogeneous_uses_syzygy_route():
    f = P("x^2 + y^3")
    fields = der_log_V(f)
    assert _same_module(fields, _syzygy_route_V(f))
    # x^2 + y^3 is quasihomogeneous: the weighted Euler field 3x d/dx +
    # 2y d/dy is tangent, the plain one is not.
    assert member((P("3*x"), P("2*y")), fields).contains
    assert not member((P("x"), P("y")), fields).contains


def test_t1_identity_section_is_stable():
    # The identity section is infinitesimally stable: its normal space
    # vanishes because the jacobian columns already span everything.
    f = P("x^2 + y^3")
    identity = SubstitutionMap([P("x"), P("y")])
    assert t1_kv(f, identity) == 0
    assert t1_kf(f, identity) == 0


def test_t1_diagonal_section_of_node():
    # f = u*v, F(t) = (t, t): one transverse modulus either way.
    f = P("u*v", ("u", "v"))
    t = parse_poly("t", ["t"])
    fmap = SubstitutionMap([t, t])
    assert t1_kv(f, fmap) == 1
    assert t1_kf(f, fmap) == 1


def test_t1_routes_on_known_section():
    f = parse_poly("x^5*z + x^3*y^3 + y^5*z", ["x", "y", "z"])
    fmap = SubstitutionMap([P("x"), P("y"), P("x + y")])
    assert t1_kf(f, fmap) == 10
    assert t1_kv(f, fmap) == 10


def test_tau_matrix_diag_families():
    for a, want in (((1, 2), 3), ((2, 3), 6), ((1, 1, 2), 6),
                    ((1, 2, 2), 8)):
        n = len(a)
        entries = [["0"] * n for _ in range(n)]
        for i, ai in enumerate(a):
            entries[i][i] = f"x^{ai}"
        fam = sym_family(entries, ["x"])
        assert tau_matrix(fam, "special") == want


def test_tau_matrix_generic_families_vanish():
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        fam = generic_family(kind, n)
        assert tau_matrix(fam, "special") == 0
        assert tau_matrix(fam, "general") == 0


def test_tau_routes_agree():
    fam = sym_family([["x", "y"], ["y", "-x"]], ["x", "y"])
    t_lie = tau_matrix(fam, "special")
    t_hom = tau_homological(fam)
    assert t_lie == t_hom == 1
    assert milnor_number(fam.function()) == 1


def test_corank_at_origin():
    fam = sym_family([["x", "y"], ["y", "-x"]], ["x", "y"])
    assert corank_at_origin(fam) == 2
    shifted = sym_family([["x + 1", "y"], ["y", "x"]], ["x", "y"])
    assert corank_at_origin(shifted) == 1


def test_betti_numbers_diag():
    fam = sym_family([["x", "0"], ["0", "x^2"]], ["x"])
    assert betti_numbers(fam) == [1, 2, 1, 0]


def test_function_presentation_shape():
    g = P("x*y")
    c = function_presentation(g)
    assert c.ranks[0] == 1 and c.ranks[1] == 2
    assert homology_like_zero(c)


def homology_like_zero(c):
    from matsing import verify_complex
    return verify_complex(c)


def test_analyze_rejects_nonvanishing():
    fam = sym_family([["x + 1", "y"], ["y", "x + 1"]], ["x", "y"])
    with pytest.raises(ValueError):
        analyze(fam)


def test_verify_identity_records():
    fam = sym_family([["x", "y"], ["y", "-x"]], ["x", "y"])
    rec = verify_identity(fam, "submax")
    assert rec.verdict == "HOLDS"
    assert rec.lhs == rec.rhs == 1
    rec2 = verify_identity(fam, "imax")
    assert rec2.verdict == "NOT-APPLICABLE"


def test_analyze_report_shape():
    fam = generic_family("symmetric", 2)
    rep = analyze(fam, name="generic")
    assert rep.kind == "symmetric"
    assert rep.m == 3 and rep.m0 == 3
    assert [c.identity for c in rep.checks] == list(IDENTITIES)
    d = rep.to_dict()
    assert d["mu"] == 1 and d["tau_matrix_special"] == 0
    assert all(isinstance(c, dict) for c in d["checks"])


def test_infinite_tau_detected():
    # det = x^2 over two variables: the singularity is not isolated.
    fam = sym_family([["x", "0"], ["0", "x"]], ["x", "y"])
    assert milnor_number(fam.function()) is INFINITE
    assert tau_matrix(fam, "special") is INFINITE


def test_section_analyze_matches_catalog_expectations():
    f = parse_poly("x^5*z + x^3*y^3 + y^5*z", ["x", "y", "z"])
    fmap = SubstitutionMap([P("x"), P("y"), P("x + y")])
    rep = analyze((f, fmap))
    assert rep.mu == 25
    assert rep.tau_function_right == 10
    assert rep.codim_minors == 19
    assert rep.tau_matrix_special is None
    assert rep.betti[:2] == [19, 4]


def _minors_colength(fam):
    size = fam.n - 2 if fam.kind == "skew" else fam.n - 1
    return quotient_dimension(minors_ideal(fam, size))


def test_codim_matches_minors_ideal(rng):
    # analyze takes codim_minors from the pulled-back partials of the
    # generic det/Pf; the ideal of submaximal minors (sub-Pfaffians) is the
    # independent route.
    pencils = [
        "kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]",
        "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]",
        "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1]]",
    ]
    fams = [parse_family(text).to_family() for text in pencils]
    fams += [catalog(name, n=3).to_family()
             for name in ("normal-form-sym", "normal-form-gen")]
    for kind in ("symmetric", "general"):
        for _ in range(3):
            fams.append(random_family(rng, kind, 2, 1, linear_bias=False))
    for fam in fams:
        assert analyze(fam).codim_minors == _minors_colength(fam), fam


def test_codim_matches_minors_ideal_more_shapes(rng):
    # On these shapes a full analyze can spend minutes in local standard
    # bases of other invariants, so the colength is read from the analysis
    # context that analyze uses.
    from matsing.invariants import _Analysis
    for kind, n, m in (("symmetric", 2, 2), ("symmetric", 3, 1),
                       ("general", 2, 2), ("general", 2, 3),
                       ("skew", 4, 1), ("skew", 4, 2), ("skew", 4, 3)):
        for _ in range(4):
            fam = random_family(rng, kind, n, m, linear_bias=False)
            assert _Analysis(fam).codim == _minors_colength(fam), (kind, m)


def test_log_field_cache_respects_step_budget():
    # A cached result must not hide a budget error: the same call gives the
    # same outcome whatever ran earlier in the process.
    from matsing import StepLimitExceeded
    f = generic_family("symmetric", 3).function()
    assert len(der_log_f(f).generators) == 8
    with budget(5), pytest.raises(StepLimitExceeded):
        der_log_f(f)
    with budget(5), pytest.raises(StepLimitExceeded):
        der_log_V(f)


def test_step_limit_bounds_each_computation_of_an_analysis():
    # The library counterpart of the CLI pin on normal-form-sym n=3: the
    # largest single computation of the analysis takes 68 steps.
    from matsing import StepLimitExceeded
    subject = catalog("normal-form-sym", n=3).subject()
    with budget(68):
        analyze(subject)
    with budget(67), pytest.raises(StepLimitExceeded):
        analyze(subject)


# -- eqeq ----------------------------------------------------------------------

def _eqeq_by_membership(ctx):
    """The eqeq record by mutual membership of generators on every side: a
    second route, independent of the lead-module comparison of eqeq."""
    note = ("tangent space of the group action vs jacobian plus "
            "pulled-back log fields, both flavours")
    lhs = _jsonable([ctx.tau_special, ctx.tau_general])
    rhs = _jsonable([ctx.tau_kf, ctx.tau_kv])
    if lhs != rhs:
        return CheckRecord("eqeq", lhs, rhs, "FAILS", note)
    for flavour, b in (("special", ctx.pulled_f), ("general", ctx.pulled_V)):
        a = tangent_module(ctx.fam, flavour)
        if not (all(member(v, b).contains for v in a.generators)
                and all(member(v, a).contains for v in b.generators)):
            return CheckRecord("eqeq", lhs, rhs, "FAILS",
                               note + "; containment failed")
    return CheckRecord("eqeq", lhs, rhs, "HOLDS",
                       note + "; generators mutually contained")


def _assert_same_eqeq(fam, label):
    assert _Analysis(fam).check("eqeq") == \
        _eqeq_by_membership(_Analysis(fam)), label


@pytest.mark.parametrize("text", _PENCILS)
def test_eqeq_matches_membership_route_on_pencils(text):
    _assert_same_eqeq(parse_family(text).to_family(), text)


@pytest.mark.parametrize("name, params", [
    ("generic-sym-2", {}), ("generic-gen-2", {}), ("generic-skew-4", {}),
    ("diag-sym", {"a": (1, 2)}), ("diag-sym", {"a": (2, 3)}),
    ("diag-sym", {"a": (1, 1, 2)}), ("diag-sym", {"a": (1, 2, 3)}),
    ("normal-form-sym", {"n": 2}), ("normal-form-sym", {"n": 3}),
    ("normal-form-sym", {"n": 4}), ("normal-form-gen", {"n": 2}),
    ("normal-form-gen", {"n": 3}), ("normal-form-gen", {"n": 4}),
    ("normal-form-skew", {"n": 4})])
def test_eqeq_matches_membership_route_on_catalog(name, params):
    _assert_same_eqeq(catalog(name, **params).to_family(), (name, params))


def test_eqeq_matches_membership_route_on_random_families():
    for seed in range(20):
        fam = random_family(random.Random(seed), "symmetric", 2, 1,
                            linear_bias=False)
        _assert_same_eqeq(fam, seed)


@pytest.mark.parametrize("text", [
    # det = x^2 in two variables.
    "kind=symmetric; vars=x,y; matrix=[[x,0],[0,x]]",
    # slow-skew6 of perfbench/gen.py KNOWN_SLOW.
    "kind=skew; vars=x,y,z; "
    "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]",
])
def test_eqeq_matches_membership_route_with_an_infinite_side(text):
    # Every side has infinite colength, so lead modules decide eqeq;
    # mutual membership of generators finishes here and must agree.
    fam = parse_family(text).to_family()
    assert _Analysis(fam).check("eqeq").lhs == ["infinite", "infinite"]
    _assert_same_eqeq(fam, text)


@pytest.mark.parametrize("text, steps", [
    # random-00008 and random-00015 of perfbench/hangs.py --seed 1.  Their
    # largest computations take 515 and 617 steps; mutual membership of
    # generators runs for minutes in its stacked completions.
    ("kind=general; vars=x1..x3; matrix=[[-4/3*x2-3/2*x3, "
     "-1/3*x1^2-1/3*x3^2], [-x3^2, 1/3*x2^2+2*x2]]", 600),
    ("kind=skew; vars=x1..x5; upper=[[-1/3*x3*x5-3*x4*x5, 0, -2*x5], "
     "[-2*x1-x2*x3-x2, -3/2*x1+2/3*x3*x4], [-x3^2]]", 700),
])
def test_eqeq_holds_on_infinite_random_families_under_a_budget(text, steps):
    fam = parse_family(text).to_family()
    with budget(steps):
        rec = _Analysis(fam).check("eqeq")
    assert rec.verdict == "HOLDS"
    assert rec.lhs == rec.rhs == ["infinite", "infinite"]


def _unit_vectors_plus(rank, first):
    """first * e_1 + O e_2 + ... + O e_rank, as a local module basis."""
    nv = first[0].nvars
    zero, one = Poly.zero(nv), Poly.constant(nv, 1)
    gens = [(p,) + (zero,) * (rank - 1) for p in first]
    gens += [tuple(one if j == i else zero for j in range(rank))
             for i in range(1, rank)]
    return ModuleBasis(rank, gens, LOCAL)


@pytest.mark.parametrize("prop, side", [("pulled_f", "tangent_special"),
                                        ("pulled_V", "tangent_general")])
@pytest.mark.parametrize("text, first, dims", [
    # Colength 2 on both sides: the sum of the modules decides.
    ("kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]", ("x", "y^2"),
     [2, 2]),
    # Infinite colength on both sides: lead modules decide.
    ("kind=symmetric; vars=x,y; matrix=[[x,0],[0,x]]", ("x",),
     ["infinite", "infinite"]),
])
def test_eqeq_detects_a_different_module_of_the_same_colength(
        monkeypatch, prop, side, text, first, dims):
    fam = parse_family(text).to_family()
    fake = _unit_vectors_plus(3, [P(t) for t in first])
    tangent = getattr(_Analysis(fam), side)
    assert quotient_dimension(fake) == quotient_dimension(tangent)
    assert not all(member(v, fake).contains for v in tangent.generators)
    monkeypatch.setattr(_Analysis, prop, property(lambda self: fake))
    rec = _Analysis(fam).check("eqeq")
    assert rec.lhs == rec.rhs == dims
    assert rec.verdict == "FAILS"
    assert rec.note.endswith("; containment failed")
    assert rec == _eqeq_by_membership(_Analysis(fam))
