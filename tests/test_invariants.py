import random

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
    groebner_basis,
    member,
    milnor_number,
    minors_ideal,
    parse_family,
    parse_poly,
    quotient_dimension,
    t1_kf,
    t1_kv,
    tangent_module,
    tau_matrix,
    tjurina_number_function,
    verify_identity,
)
from matsing.groebner import GLOBAL, _contained, _standard, syzygies
from matsing.invariants import (CheckRecord, InvariantReport, _Analysis,
                                 _jsonable, _lie_images)
from matsing.poly import partial, substitute

from conftest import budget
from oracle import jet_milnor, jet_tjurina, random_poly, tau_homological
from test_complexes import _PENCILS, random_family


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def sym_family(texts, names):
    entries = [[parse_poly(t, list(names)) for t in row] for row in texts]
    return MatrixFamily("symmetric", PolyMatrix(entries, len(names)))


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
            acc = acc + field[i] * partial(f, i)
        assert acc.is_zero()


def test_der_log_V_preserves_ideal():
    f = P("x*y")
    fields = der_log_V(f).generators
    target = ModuleBasis(1, [(f,)], LOCAL)
    assert fields, "the log module of xy is nontrivial"
    for field in fields:
        acc = Poly.zero(2)
        for i in range(2):
            acc = acc + field[i] * partial(f, i)
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
def test_generic_log_fields(kind, n):
    f = generic_family(kind, n).function()
    fields_f = der_log_f(f)
    fields_v = der_log_V(f)
    assert (len(fields_f.generators), len(fields_v.generators)) \
        == LIE_DIMS[kind](n)
    # Der(-log f) plus the Euler field is all of Der(-log V).
    assert _same_module(fields_v, _syzygy_route_V(f))


@pytest.mark.parametrize("kind,n", [("symmetric", 2), ("symmetric", 3),
                                    ("symmetric", 4), ("general", 2),
                                    ("general", 3), ("skew", 4), ("skew", 6)])
def test_generic_log_fields_match_lie_algebra_images(kind, n):
    # An independent route: the log fields of the generic det/Pf are the
    # images of the Lie algebra acting on the generic matrix, sl for
    # Der(-log f) and gl for Der(-log V).  Equal reduced global bases make
    # the modules equal.
    fam = generic_family(kind, n)
    f = fam.function()
    for fields, flavour in ((der_log_f(f), "special"),
                            (der_log_V(f), "general")):
        images = ModuleBasis(f.nvars, _lie_images(kind, fam.entries, flavour),
                             GLOBAL)
        assert groebner_basis(fields).generators \
            == groebner_basis(images).generators, flavour


def _syzygy_route_V(f):
    """Der(-log V) as the first N components of the syzygies of
    (df/dx_1, ..., df/dx_N, f), unpruned."""
    n = f.nvars
    row = PolyMatrix([[partial(f, i) for i in range(n)] + [f]], n)
    z = syzygies(row)
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
    # Exact elimination on rational constants: 49/3 - (7/3) * 7 is 0, where
    # floats leave a residue of about 4e-15.
    for c, d, corank in (("1", "1/3", 1), ("7", "49/3", 1), ("1", "1/2", 0)):
        fam = sym_family([["3 + x", c], [c, d + " + y"]], ["x", "y"])
        assert corank_at_origin(fam) == corank


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
    assert rep == analyze(fam, name="generic")
    assert repr(rep).startswith(
        "InvariantReport(name='generic', kind='symmetric', n=2, m=3, mu=1, "
        "tau_function_right=0, tau_function_contact=0, ")
    assert repr(CheckRecord("submax", 1, 1, "HOLDS")) == (
        "CheckRecord(identity='submax', lhs=1, rhs=1, verdict='HOLDS', "
        "note='')")
    # Fields in declaration order; checks defaults to a fresh list.
    fields = [rep.name, rep.kind, rep.n, rep.m, rep.mu,
              rep.tau_function_right, rep.tau_function_contact,
              rep.tau_matrix_special, rep.tau_matrix_general, rep.betti,
              rep.codim_minors, rep.m0]
    bare, other = InvariantReport(*fields), InvariantReport(*fields)
    assert bare.checks == [] and bare.checks is not other.checks
    assert bare != rep and InvariantReport(*fields, rep.checks) == rep
    assert CheckRecord("x", 1, 1, "HOLDS") == CheckRecord(
        identity="x", lhs=1, rhs=1, verdict="HOLDS", note="")


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


def _pulled_partials_colength(subject):
    """The local colength of the partials of the target pulled back along
    the map, computed on its own, away from any complex."""
    ctx = _Analysis(subject)
    gens = [(substitute(partial(ctx.f, i), ctx.fmap),)
            for i in range(ctx.f.nvars)]
    return quotient_dimension(ModuleBasis(1, gens, LOCAL))


def test_codim_is_h0_of_the_complex_behind_betti(rng):
    # analyze reads codim_minors off H_0 of the complex whose homology is
    # betti: O modulo the entries of d_1, the pulled-back partials of the
    # target.  The local colength of those partials is the other route.
    subjects = [catalog(name).subject() for name in (
        "generic-sym-2", "generic-gen-2", "generic-skew-4",
        "remark-4-8-iii", "cross-ratio-example")]
    subjects += [catalog(name, n=3).to_family()
                 for name in ("normal-form-sym", "normal-form-gen")]
    subjects.append(catalog("diag-sym", a=(1, 2, 3)).to_family())
    subjects += [parse_family(text).to_family() for text in _PENCILS]
    for kind, n, m in (("symmetric", 2, 1), ("symmetric", 2, 2),
                       ("general", 2, 2), ("skew", 4, 2)):
        subjects += [random_family(rng, kind, n, m) for _ in range(2)]
    for subject in subjects:
        rep = analyze(subject)
        assert rep.codim_minors == rep.betti[0] \
            == _pulled_partials_colength(subject), subject


def test_codim_is_at_most_mu_when_mu_is_finite():
    # The partials of g lie in the ideal of the pulled-back partials of f
    # (chain rule), so b0 = codim <= mu: where mu is finite, the checks
    # that read mu + (q - 1)*b0 never meet an infinite b0.
    subjects = [catalog(name).subject() for name in (
        "generic-sym-2", "generic-gen-2", "generic-skew-4",
        "remark-4-8-iii", "cross-ratio-example")]
    subjects += [catalog(name, n=3).subject()
                 for name in ("normal-form-sym", "normal-form-gen")]
    subjects += [parse_family(text).to_family() for text in _PENCILS]
    for seed in range(4):
        rng = random.Random(seed)
        for kind, n, m, linear in (("symmetric", 2, 1, False),
                                   ("general", 2, 2, False),
                                   ("symmetric", 3, 2, True),
                                   ("skew", 4, 2, True)):
            subjects.append(random_family(rng, kind, n, m, linear))
    finite = 0
    for subject in subjects:
        ctx = _Analysis(subject)
        if ctx.mu is not INFINITE:
            finite += 1
            assert ctx.codim <= ctx.mu, subject
    assert finite >= len(subjects) // 2


def test_codim_alone_stacks_only_d1():
    # H_0 needs the stacks of d_0 and d_1 only; betti then adds the others
    # to the same complex and takes H_0 from codim.
    for name, codim in (("generic-skew-4", 1), ("cross-ratio-example", 8)):
        ctx = _Analysis(catalog(name).subject())
        assert ctx.codim == codim, name
        assert sorted(ctx.complex._column_stacks) == [0, 1], name
        stacks = dict(ctx.complex._column_stacks)
        assert ctx.betti[0] == ctx.codim
        assert sorted(ctx.complex._column_stacks) \
            == list(range(ctx.complex.length + 1)), name
        assert all(ctx.complex._column_stacks[k] is st
                   for k, st in stacks.items()), name


def test_a_check_computes_only_what_its_statement_reads():
    # submax reads tau and mu alone; the checks that read b0 take codim,
    # which stacks d_1 only, and never the whole betti profile.  Each check
    # runs on a fresh analysis of one family and of sections of the isolated
    # A1 cone at m0 - m = 2 and 1, where ck and gorenstein, or submax, get
    # past every hypothesis.
    unread = {"submax": {"codim", "betti", "tangent_special",
                         "tangent_general", "pulled_V"},
              "imax": {"betti"}, "gorenstein": {"betti"}, "ck": {"betti"},
              "diag": {"betti"}}
    cone = "kind=section; fvars=u,v,w; f=u*w - v^2; "
    subjects = [parse_family(cone + maps).subject()
                for maps in ("vars=x; map=[x^2, x^3, x]",
                             "vars=x,y; map=[x, y, x^2 + y^3]")]
    for subject in [catalog("diag-sym", a=(1, 2)).to_family()] + subjects:
        for identity, props in unread.items():
            ctx = _Analysis(subject)
            ctx.check(identity)
            assert not props & set(vars(ctx)), (identity, subject)


def test_codim_matches_minors_ideal(rng):
    # analyze takes codim_minors from H_0 of the family's kind complex, O
    # modulo the entries of d_1; the ideal of submaximal minors
    # (sub-Pfaffians) is the independent route.
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
    # largest single computation of the analysis, the stacked completion
    # behind the Schreyer syzygies of the partials of the generic symmetric
    # 3x3 determinant (der_log_f), takes 30 steps.
    from matsing import StepLimitExceeded
    subject = catalog("normal-form-sym", n=3).subject()
    with budget(30):
        analyze(subject)
    with budget(29), pytest.raises(StepLimitExceeded):
        analyze(subject)


# -- eqeq ----------------------------------------------------------------------

def _eqeq_by_membership(ctx):
    """The eqeq record by mutual membership of generators on every side: a
    second route, independent of the truncated division and the lead-module
    comparison of eqeq."""
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
    # largest computations, local completions of A + B, take 353 and 958
    # steps.
    ("kind=general; vars=x1..x3; matrix=[[-4/3*x2-3/2*x3, "
     "-1/3*x1^2-1/3*x3^2], [-x3^2, 1/3*x2^2+2*x2]]", 600),
    ("kind=skew; vars=x1..x5; upper=[[-1/3*x3*x5-3*x4*x5, 0, -2*x5], "
     "[-2*x1-x2*x3-x2, -3/2*x1+2/3*x3*x4], [-x3^2]]", 1000),
])
def test_eqeq_holds_on_infinite_random_families_under_a_budget(text, steps):
    fam = parse_family(text).to_family()
    with budget(steps):
        rec = _Analysis(fam).check("eqeq")
    assert rec.verdict == "HOLDS"
    assert rec.lhs == rec.rhs == ["infinite", "infinite"]


@pytest.mark.parametrize("text, mu", [
    # random-00016, -17 and -18 of perfbench/hangs.py --seed 1: symmetric
    # 3x3 families in 2 variables, m = m0 - 1.  Their largest computations
    # in analyze take 676, 244 and 1409 steps.
    ("kind=symmetric; vars=x1,x2; matrix=[[-2/3*x1^2+x1*x2, -2*x2, -x2], "
     "[-2*x2, -10/3*x1+x2, -x1^2-17/6*x1], "
     "[-x2, -x1^2-17/6*x1, -3/2*x1-2*x2]]", 5),
    ("kind=symmetric; vars=x1,x2; matrix=[[x1^2+1/3*x2^2, -2/3*x2, "
     "1/3*x1^2-2/3*x1*x2+2*x1], [-2/3*x2, 0, -1/2*x1], "
     "[1/3*x1^2-2/3*x1*x2+2*x1, -1/2*x1, -3/2*x1*x2]]", 6),
    ("kind=symmetric; vars=x1,x2; matrix=[[-4*x1^2-2/3*x1*x2-2/3*x1, "
     "2*x1-4/3*x2, 4/3*x1^2+2*x1-x2], [2*x1-4/3*x2, -x1*x2, "
     "-2/3*x1-5/2*x2], [4/3*x1^2+2*x1-x2, -2/3*x1-5/2*x2, -2/3*x2^2]]", 4),
])
def test_two_parameter_symmetric_families_have_tau_equal_to_mu(text, mu):
    # The paper's theorem for symmetric families in two parameters.
    fam = parse_family(text).to_family()
    with budget(2000):
        ctx = _Analysis(fam)
        assert ctx.mu == ctx.tau_kf == mu
        for identity in ("submax", "betas"):
            assert ctx.check(identity).verdict == "HOLDS", identity


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
    # Colength 2 on both sides: truncated division decides.
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


def test_eqeq_truncates_at_the_colength_not_the_highest_standard_degree():
    # Under position over term the highest standard monomial says little:
    # the special tangent module A of diag-sym a=(2,1) has the leading
    # terms x e_0, x e_1, x e_2, so every standard monomial has degree 0,
    # yet x e_0 lies outside A, since A contains 2x e_0 + e_2.  Division
    # truncated at degree 1 would take 2x e_0 + e_2 to e_2 and fail; eqeq
    # truncates at the colength 3.
    ctx = _Analysis(catalog("diag-sym", a=(2, 1)).to_family())
    tangent = ctx.tangent_special
    assert quotient_dimension(tangent) == 3
    assert sorted((g.comp, g.exp) for g in _standard(tangent)[0]) \
        == [(0, (1,)), (1, (1,)), (2, (1,))]
    x, zero, one = Poly.variable(1, 0), Poly.zero(1), Poly.constant(1, 1)
    x_e0 = (x, zero, zero)
    assert not member(x_e0, tangent).contains
    assert not _contained([x_e0], tangent, 3)
    assert _contained([(x + x, zero, one)], tangent, 3)
    assert ctx.check("eqeq").verdict == "HOLDS"


# The m0 - 1 shapes of perfbench/gen.py HANGING_SHAPES in at most three
# variables, and skew 4x4 in four (in five the dense jet oracle is too
# slow).  Most skew draws are not isolated, so up to 30 are drawn.
_JET_SHAPES = [("symmetric", 2, 2), ("general", 2, 2), ("general", 2, 3),
               ("symmetric", 3, 2), ("skew", 4, 4)]


@pytest.mark.parametrize("shape", _JET_SHAPES)
def test_tangent_and_pulled_modules_match_the_jet_oracle(shape):
    # The modules behind tau_special, tau_general, tau_kf and tau_kv of
    # seeded draws, where their local colength d is finite: the jet oracle
    # counts dim O^r/(M + m^D) by linear algebra alone, and stops at the
    # first D with no growth, which Nakayama makes the colength; m^d O^r
    # lies in M, so D = d + 2 is enough.
    from matsing import StepLimitExceeded
    from oracle import jet_quotient_dimension
    rng = random.Random(17)
    finite = 0
    for _ in range(30):
        ctx = _Analysis(random_family(rng, *shape))
        try:
            with budget(2000):
                mods = [ctx.tangent_special, ctx.tangent_general,
                        ctx.pulled_f, ctx.pulled_V]
                dims = [quotient_dimension(m) for m in mods]
        except StepLimitExceeded:
            continue
        if INFINITE in dims:
            continue
        for m, d in zip(mods, dims):
            assert jet_quotient_dimension(m.generators, d + 2) == d, shape
        finite += 1
        if finite == 2:
            break
    assert finite == 2, shape


def _resumed_cases():
    """Families of finite and INFINITE tau, two draws whose tau_general is
    below tau_special (16 > 14, 13 > 12: S is not in the special tangent
    space, as it is for weighted homogeneous families), and the two section
    entries, whose targets are homogeneous."""
    for shape, index in ((("symmetric", 2, 2), 6), (("general", 2, 2), 10)):
        rng = random.Random(5)
        draws = [random_family(rng, *shape, linear_bias=False)
                 for _ in range(index + 1)]
        yield (shape, index), draws[-1]
    for text in _PENCILS + ["kind=symmetric; vars=x,y; matrix=[[x,0],[0,x]]"]:
        yield text, parse_family(text).to_family()
    for name, params in (("generic-sym-2", {}), ("generic-gen-2", {}),
                         ("generic-skew-4", {}), ("normal-form-sym", {"n": 3}),
                         ("normal-form-gen", {"n": 3}),
                         ("diag-sym", {"a": (1, 2, 3)}),
                         ("remark-4-8-iii", {}),
                         ("cross-ratio-example", {})):
        yield name, catalog(name, **params).subject()
    for seed in range(10):
        yield seed, random_family(random.Random(seed), "symmetric", 2, 1,
                                  linear_bias=False)


def test_resumed_general_modules_match_fresh_completions():
    # tangent_general resumes tangent_special with S, and pulled_V resumes
    # pulled_f with the map (the pulled-back Euler field).  Fresh
    # completions of the gl images and of the fields of der_log_V give the
    # same colengths and the same lead modules, compared both ways.
    from matsing.groebner import _leads_divided_by
    from matsing.invariants import pulled_field_module
    for label, subject in _resumed_cases():
        ctx = _Analysis(subject)
        pairs = [(ctx.pulled_V, pulled_field_module(ctx.fmap,
                                                    der_log_V(ctx.f)))]
        assert ctx.tau_kv == t1_kv(ctx.f, ctx.fmap), label
        assert pairs[0][0].generators == pairs[0][1].generators, label
        if ctx.fam is not None:
            assert ctx.tau_general == tau_matrix(ctx.fam, "general"), label
            if isinstance(label, tuple) and isinstance(label[0], tuple):
                assert ctx.tau_general < ctx.tau_special, label
            pairs.append((ctx.tangent_general,
                          tangent_module(ctx.fam, "general")))
        for resumed, fresh in pairs:
            assert _leads_divided_by(resumed, fresh), label
            assert _leads_divided_by(fresh, resumed), label


def test_generic_function_is_built_once_per_kind_and_size():
    from matsing.invariants import _generic_function
    one = _Analysis(catalog("normal-form-sym", n=3).to_family())
    two = _Analysis(random_family(random.Random(1), "symmetric", 3, 2))
    assert one.f is two.f
    assert one.f == generic_family("symmetric", 3).function()
    # An odd skew size has no Pf: every analysis that needs it raises.
    odd = parse_family("kind=skew; vars=x,y,z; upper=[[x,y],[z]]")
    cached = _generic_function.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="even-size"):
            _Analysis(odd.to_family()).f
    assert _generic_function.cache_info().currsize == cached
