from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matsing import (
    GLOBAL,
    INFINITE,
    LOCAL,
    ModuleBasis,
    Poly,
    StepLimitExceeded,
    groebner_basis,
    kind_complex,
    member,
    parse_family,
    parse_poly,
    quotient_dimension,
    syzygies_of_basis,
)
from matsing.groebner import modulo, step_limit
from matsing.poly import add, exp_divides, mul

from conftest import budget
from oracle import (jet_quotient_dimension, random_finite_colength_ideal,
                    random_poly)


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def ideal(gens, order=LOCAL):
    return ModuleBasis(1, [(g,) for g in gens], order)


def test_reduced_basis_of_univariate_pair():
    b = ideal([P("x^2 - 1", ["x"]), P("x^3 - 1", ["x"])], GLOBAL)
    g = groebner_basis(b)
    assert g.is_reduced
    assert [v[0] for v in g.generators] == [P("x - 1", ["x"])]


def test_quotient_dimension_differs_local_vs_global():
    # x - x^2 vanishes at 0 and 1: colength 1 at the origin, 2 globally.
    f = P("x - x^2", ["x"])
    assert quotient_dimension(ideal([f], LOCAL)) == 1
    assert quotient_dimension(ideal([f], GLOBAL)) == 2


def test_unit_ideal_local_vs_global():
    f = P("1 + x", ["x"])
    assert quotient_dimension(ideal([f], LOCAL)) == 0
    assert quotient_dimension(ideal([f], GLOBAL)) == 1


def test_membership_differs_local_vs_global():
    # x + x^2 = x(1 + x): the factor 1 + x is a unit only locally.
    gen = P("x + x^2", ["x"])
    x = P("x", ["x"])
    assert member(x, ideal([gen], LOCAL)).contains
    assert not member(x, ideal([gen], GLOBAL)).contains


def test_quotient_dimensions_known():
    sq = ideal([P("x^2"), P("x*y"), P("y^2")])
    assert quotient_dimension(sq) == 3
    jac = ideal([P("3*x^2"), P("3*y^2")])
    assert quotient_dimension(jac) == 4
    assert quotient_dimension(ideal([P("x")])) is INFINITE
    assert quotient_dimension(ModuleBasis(1, [], LOCAL)) is INFINITE


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_rank_zero_module_has_dimension_zero(order):
    assert quotient_dimension(ModuleBasis(0, [], order)) == 0
    assert quotient_dimension(ModuleBasis(0, [(), ()], order)) == 0


def test_member_certificate_reconstructs():
    gens = [P("x^2"), P("y + x^3")]
    b = ideal(gens, LOCAL)
    f = P("x^2*y + x^5 + x^2")
    res = member(f, b)
    assert res.contains
    # unit * f == sum coeff_i * gen_i exactly
    lhs = mul(res.unit, f)
    rhs = Poly.zero(2)
    for c, g in zip(res.coefficients, gens):
        rhs = add(rhs, mul(c, g))
    assert lhs == rhs
    assert res.remainder.is_zero()
    assert res.unit.constant_term() != 0


def test_member_failure_gives_remainder():
    b = ideal([P("x^2"), P("y^2")], LOCAL)
    res = member(P("x*y + x^2"), b)
    assert not res.contains
    assert not res.remainder.is_zero()


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_member_against_the_zero_module(order):
    x = P("x")
    res = member(x, ModuleBasis(1, [], order))
    assert not res.contains
    assert res.coefficients == ()
    assert res.unit == Poly.constant(2, 1)
    assert res.remainder == x
    vec = (x, Poly.zero(2))
    res = member(vec, ModuleBasis(2, [], order))
    assert not res.contains and res.remainder == vec
    zero = Poly.zero(2)
    res = member(zero, ModuleBasis(1, [], order))
    assert res.contains and res.remainder == zero
    assert res.unit == Poly.constant(2, 1)


def test_member_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank 0"):
        member((), ModuleBasis(0, [], LOCAL))


def test_member_vector_module():
    e1 = (P("x"), Poly.zero(2))
    e2 = (Poly.zero(2), P("y"))
    m = ModuleBasis(2, [e1, e2], LOCAL)
    assert member((P("x^2"), P("y^3")), m).contains
    assert not member((P("y"), Poly.zero(2)), m).contains


def test_syzygies_kill_the_generators():
    gens = [P("x"), P("y"), P("x^2 + y^2")]
    b = ideal(gens, LOCAL)
    for s in syzygies_of_basis(b):
        acc = Poly.zero(2)
        for c, g in zip(s, gens):
            acc = add(acc, mul(c, g))
        assert acc.is_zero()


def test_syzygies_contain_koszul_relation():
    gens = [P("x"), P("y")]
    b = ideal(gens, LOCAL)
    syz = syzygies_of_basis(b)
    assert syz
    module = ModuleBasis(2, syz, LOCAL)
    koszul = (P("y"), P("-x"))
    assert member(koszul, module).contains


def test_module_quotient_dimension():
    z = Poly.zero(2)
    m = ModuleBasis(2, [(P("x"), z), (z, P("x")), (P("y"), z), (z, P("y^2"))],
                    LOCAL)
    # O/(x, y) + O/(x, y^2) has dimension 1 + 2.
    assert quotient_dimension(m) == 3


def test_step_limit_raises():
    gens = [P("x^4 + y^3"), P("x*y^2 + x^3*y")]
    with budget(3), pytest.raises(StepLimitExceeded):
        quotient_dimension(ideal(gens))


def test_member_step_budget_is_per_call():
    # Queries against one basis share its cached stacked completion, but
    # each query spends its own budget, not what is left of a shared one.
    basis = ideal([P("x^2 + y^3"), P("x*y")])
    with budget(100):
        for _ in range(300):
            assert member(P("x^2*y"), basis).contains


def test_member_budget_holds_on_a_cached_stacked_basis():
    # The stacked completion is cached on the basis; a later query with a
    # budget too small to build it must fail as it does on a fresh basis.
    gens = [P("x^4 + y^3"), P("x*y^2 + x^3*y")]
    with budget(5), pytest.raises(StepLimitExceeded):
        member(gens[0], ideal(gens))
    basis = ideal(gens)
    assert member(gens[0], basis).contains
    with budget(5), pytest.raises(StepLimitExceeded):
        member(gens[0], basis)
    with budget(100):
        assert member(gens[0], basis).contains


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_standard_basis_is_completed_once(monkeypatch, order):
    import matsing.groebner as gb
    calls = []
    complete = gb._complete

    def counting(*args, **kwargs):
        calls.append(args)
        return complete(*args, **kwargs)

    monkeypatch.setattr(gb, "_complete", counting)
    basis = ideal([P("x^4 + y^3"), P("x*y^2 + x^3*y")], order)
    first = quotient_dimension(basis)
    assert quotient_dimension(basis) == first
    groebner_basis(basis)
    assert len(calls) == 1


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_budget_holds_on_a_cached_standard_basis(order):
    # The standard basis is cached on the module; a later call with a budget
    # too small to build it must fail as it does on a fresh module.  Global
    # tail reduction counts on from the completion's steps, so groebner_basis
    # agrees on a fresh and a cached module under every budget too.
    gens = [P("x^4 + y^3"), P("x*y^2 + x^3*y")]
    with budget(3), pytest.raises(StepLimitExceeded):
        quotient_dimension(ideal(gens, order))
    cached = ideal(gens, order)
    dim = quotient_dimension(cached)
    with budget(3), pytest.raises(StepLimitExceeded):
        quotient_dimension(cached)
    with budget(100):
        assert quotient_dimension(cached) == dim
    seen = set()
    for steps in range(1, 60):
        for f in (quotient_dimension, groebner_basis):
            outcomes = []
            for basis in (ideal(gens, order), cached):
                try:
                    with budget(steps):
                        f(basis)
                    outcomes.append(True)
                except StepLimitExceeded:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1], (steps, f.__name__)
            seen.add((f.__name__, outcomes[0]))
    assert len(seen) == 4


def _groebner_basis_in_one_pass(basis):
    """Reference: groebner_basis as one pass of completion, lead
    interreduction, tail reduction (global only) and sort, with no cache."""
    from matsing.groebner import (_complete, _Counter, _lead_interreduce,
                                  _tail_reduce, flatten_vector,
                                  unflatten_vector)
    order, counter = basis.order, _Counter()
    gens = _lead_interreduce(_complete(
        [flatten_vector(g) for g in basis.generators], order,
        basis.ambient_rank, counter))
    if order.is_global:
        gens = _tail_reduce(gens, order, counter)
    gens.sort(key=lambda g: order.module_key(*g.lt), reverse=True)
    return [unflatten_vector(g.flat, basis.ambient_rank, basis.nvars)
            for g in gens]


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("rank", [1, 2])
def test_groebner_basis_from_the_cache_matches_one_pass(order, rank):
    # Reading the cached standard basis, sorted before the tail reduction,
    # gives the same vectors in the same order as the one-pass reference.
    import random
    rng = random.Random(10 + rank)
    checked = 0
    for _ in range(12):
        nv = rng.randint(2, 3)
        gens = [tuple(random_poly(rng, nv, max_degree=2, terms=3)
                      for _ in range(rank))
                for _ in range(rng.randint(2, 4))]
        try:
            with budget(600):
                want = _groebner_basis_in_one_pass(
                    ModuleBasis(rank, gens, order))
                basis = ModuleBasis(rank, gens, order)
                quotient_dimension(basis)
                got = groebner_basis(basis)
        except StepLimitExceeded:
            continue
        assert got.generators == want
        assert got.completed and got.is_reduced == order.is_global
        checked += 1
    assert checked >= 10, checked


def test_lead_interreduce_drops_proper_multiples_under_global():
    from matsing.groebner import _Gen, _lead_interreduce, flatten_vector
    for order in (GLOBAL, LOCAL):
        gens = [_Gen(flatten_vector((P(t),)), order)
                for t in ("x^2*y", "x", "2*x", "y^3")]
        kept = _lead_interreduce(gens)
        # x divides x^2*y; of the equal leads x and 2*x the first is kept.
        assert [g.lt[1] for g in kept] == [(1, 0), (0, 3)], order
        assert kept[0] is gens[1]


def test_groebner_basis_spans_same_module():
    gens = [P("x^2 + y"), P("x*y - y^2")]
    b = ideal(gens, LOCAL)
    g = groebner_basis(b)
    for v in b.generators:
        assert member(v, g).contains
    for v in g.generators:
        assert member(v, b).contains


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_quotient_dimension_matches_jet_oracle(seed):
    import random
    r = random.Random(seed)
    nvars = r.choice((1, 2, 2, 3))
    gens = random_finite_colength_ideal(r, nvars)
    expected = jet_quotient_dimension(gens)
    assert expected is not None
    got = quotient_dimension(ideal(gens, LOCAL))
    assert got == expected


def test_global_basis_is_fully_reduced():
    names = ("x", "y", "z")
    gens = [P(t, names) for t in ("3*y^2*z", "3*x^2*y*z - x^2 + z^2",
                                  "-3/2*x^2*y*z^2 - 3*x*y^2*z")]
    g = groebner_basis(ideal(gens, GLOBAL))
    polys = [v[0] for v in g.generators]
    # Without tail reduction the first element was x^4 - 2*x^2*z^2 + z^4,
    # whose middle term is divisible by the leading term x^2*z.
    assert P("x^4 - z^4", names) in polys
    leads = [max(p.terms, key=GLOBAL.key) for p in polys]
    for p, lead in zip(polys, leads):
        assert p.terms[lead] == 1
        for other in leads:
            if other != lead:
                assert not any(exp_divides(other, e) for e in p.terms)


def _random_rational_ideal(rng):
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exp] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                  rng.randint(1, 3))
        gens.append(Poly(3, terms))
    return gens


def test_reduced_basis_matches_sympy():
    import random
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod([v ** e for v, e in zip(xs, exp)])
                   for exp, c in p.terms.items())

    def monic_terms(expr):
        q = sympy.Poly(expr, *xs)
        lc = q.LC(order="grevlex")
        return frozenset((exp, Fraction(int((c / lc).p), int((c / lc).q)))
                         for exp, c in q.terms())

    rng = random.Random(0)
    for _ in range(60):
        gens = _random_rational_ideal(rng)
        ours = {frozenset(v[0].terms.items())
                for v in groebner_basis(ideal(gens, GLOBAL)).generators}
        theirs = sympy.groebner([to_sympy(g) for g in gens], *xs,
                                order="grevlex")
        assert ours == {monic_terms(e) for e in theirs.exprs}, gens


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_member_certificate_with_rational_generators(order):
    gens = [P("1/2*x^2 + 2/3*y"), P("2/3*x*y - 1/2*y^2")]
    basis = ideal(gens, order)
    for v in (P("x^2*y + 2/3*y^2"), P("1/2*x^3*y + x*y^2 + 1/3*y^3"),
              P("x + 1/2*y^2")):
        res = member(v, basis)
        rhs = res.remainder
        for c, g in zip(res.coefficients, gens):
            rhs = add(rhs, mul(c, g))
        assert mul(res.unit, v) == rhs
        for p in res.coefficients + (res.unit, res.remainder):
            assert all(type(c) is Fraction for c in p.terms.values())
        if order == GLOBAL:
            assert res.unit == Poly.constant(2, 1)
        else:
            assert res.unit.constant_term() != 0


def test_quotient_dimension_walks_the_staircase():
    # Colength m + 1; a walk over the box of pure-power bounds took seconds
    # from m = 16 on.
    import time
    m = 24
    squares = []
    for i in range(m):
        for j in range(i, m):
            exp = [0] * m
            exp[i] += 1
            exp[j] += 1
            squares.append((Poly.monomial(m, exp),))
    basis = ModuleBasis(1, squares, LOCAL, completed=True)
    t0 = time.perf_counter()
    assert quotient_dimension(basis) == m + 1
    assert time.perf_counter() - t0 < 1.0


def test_leading_term_agrees_with_order_key():
    # _leading avoids building key tuples; MonomialOrder.module_key is the
    # reference it must agree with.
    import random
    from matsing.groebner import _leading
    rng = random.Random(3)
    for _ in range(300):
        nv = rng.randint(1, 4)
        flat = {(rng.randint(0, 2), tuple(rng.randint(0, 3) for _ in range(nv))):
                rng.randint(1, 9) for _ in range(rng.randint(1, 12))}
        for order in (GLOBAL, LOCAL):
            want = max(flat, key=lambda ce: order.module_key(*ce))
            assert _leading(flat, order) == (want, flat[want])


def _full_completion_syzygies(basis):
    """Reference: the lower blocks of the elements with zero upper block of
    a full standard basis of the module generated by g_j + e_j."""
    r, s, nv = basis.ambient_rank, len(basis.generators), basis.nvars
    stacked = []
    for j, g in enumerate(basis.generators):
        e = [Poly.zero(nv)] * s
        e[j] = Poly.constant(nv, 1)
        stacked.append(tuple(g) + tuple(e))
    full = groebner_basis(ModuleBasis(r + s, stacked, basis.order))
    return [v[r:] for v in full.generators
            if all(p.is_zero() for p in v[:r])]


def _assert_generates_syzygies(basis, steps=None):
    # The budget bounds the two syzygy computations, not the checks.
    steps = steps or step_limit()
    with budget(steps):
        syz = syzygies_of_basis(basis)
    for w in syz:
        for i in range(basis.ambient_rank):
            acc = Poly.zero(basis.nvars)
            for c, g in zip(w, basis.generators):
                acc = add(acc, mul(c, g[i]))
            assert acc.is_zero()
    with budget(steps):
        ref = _full_completion_syzygies(basis)
    assert bool(syz) == bool(ref)
    for vecs, gens in ((syz, ref), (ref, syz)):
        span = ModuleBasis(len(basis.generators), gens, basis.order)
        for w in vecs:
            assert member(w, span).contains


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("rank", [1, 2])
def test_syzygies_generate_the_syzygy_module(order, rank):
    # The syzygies come from a completion that pairs only elements with a
    # nonzero upper block, so they are a generating set, not a standard
    # basis; compare their span with that of a full completion.  A few
    # rank-2 inputs pass the step budget (some local ones run for minutes
    # without it, in Mora division); they are skipped, and counted.
    import random
    rng = random.Random(rank)
    checked = 0
    for _ in range(15):
        nv = rng.randint(2, 3)
        gens = [tuple(random_poly(rng, nv, max_degree=2, terms=3)
                      for _ in range(rank))
                for _ in range(rng.randint(2, 4))]
        try:
            _assert_generates_syzygies(ModuleBasis(rank, gens, order),
                                       steps=600)
        except StepLimitExceeded:
            continue
        checked += 1
    assert checked >= 13, checked


def test_syzygies_generate_kernel_of_pencil_gen_b_d2():
    # Dropping syzygies whose leading term is a multiple of another's lost
    # a kernel generator here (3 of the 5 needed).
    fam = parse_family(
        "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]").to_family()
    d2 = kind_complex(fam).diff(2)
    _assert_generates_syzygies(
        ModuleBasis(d2.rows, [d2.column(j) for j in range(d2.cols)], LOCAL))


def _combination(coeffs, vectors, nvars):
    rank = len(vectors[0])
    out = [Poly.zero(nvars)] * rank
    for c, v in zip(coeffs, vectors):
        out = [add(o, mul(c, p)) for o, p in zip(out, v)]
    return tuple(out)


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_modulo_gives_the_coefficients_landing_in_the_module(order):
    # Every a from modulo has sum a_i z_i in M, and the z-part of every
    # syzygy of the z_i together with the generators of M lies in their
    # span; the two inclusions make the modules equal.  Inputs whose
    # computations or checks pass the step budget are skipped, and counted.
    import random
    rng = random.Random(5)
    checked = 0
    for _ in range(15):
        nv, rank = rng.randint(2, 3), rng.randint(1, 2)

        def vec():
            while True:
                v = tuple(random_poly(rng, nv, max_degree=2, terms=3)
                          for _ in range(rank))
                if any(p.terms for p in v):
                    return v
        basis = ModuleBasis(rank, [vec() for _ in range(rng.randint(1, 3))],
                            order)
        zs = [vec() for _ in range(rng.randint(1, 3))]
        try:
            with budget(600):
                rel = modulo(zs, basis)
                both = ModuleBasis(rank, zs + basis.generators, order)
                ref = [w[:len(zs)] for w in syzygies_of_basis(both)]
                for a in rel:
                    assert member(_combination(a, zs, nv), basis).contains
                span = ModuleBasis(len(zs), rel, order)
                for w in ref:
                    assert member(w, span).contains
        except StepLimitExceeded:
            continue
        checked += 1
    assert checked >= 12, checked


def test_modulo_of_boundaries_inside_cycles():
    # d_1 = (x, y) and d_2 = (-y, x)^t * x: the cycle (-y, x) times a lies
    # in the boundaries exactly when a is in (x), so modulo gives (x).
    d1_kernel = [(P("-y"), P("x"))]
    boundaries = ModuleBasis(2, [(P("-x*y"), P("x^2"))], GLOBAL)
    rel = modulo(d1_kernel, boundaries)
    assert quotient_dimension(ModuleBasis(1, rel, LOCAL)) is INFINITE
    assert member((P("x"),), ModuleBasis(1, rel, GLOBAL)).contains
    assert all(member(a, ideal([P("x")], GLOBAL)).contains for a in rel)
