import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from matsing import (
    GLOBAL,
    INFINITE,
    LOCAL,
    ModuleBasis,
    Poly,
    PolyMatrix,
    StepLimitExceeded,
    groebner_basis,
    kind_complex,
    member,
    parse_family,
    parse_poly,
    quotient_dimension,
    syzygies_of_basis,
)
from matsing.groebner import (_contained, flatten_vector, modulo, step_limit,
                              syzygies)
from matsing.poly import exp_divides

from conftest import budget
from oracle import (is_canonical, jet_quotient_dimension,
                    random_finite_colength_ideal,
                    random_finite_colength_module, random_poly)


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def ideal(gens, order=LOCAL):
    return ModuleBasis(1, [(g,) for g in gens], order)


def test_reduced_basis_of_univariate_pair():
    b = ideal([P("x^2 - 1", ["x"]), P("x^3 - 1", ["x"])], GLOBAL)
    g = groebner_basis(b)
    assert [v[0] for v in g.generators] == [P("x - 1", ["x"])]
    assert groebner_basis(g) == g


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


def test_local_member_takes_its_unit_from_the_colon_ideal():
    # (x + x^2) : x = (1 + x), so the unit is not a constant, and the
    # certificate is an identity of polynomials.
    gen, x = P("x + x^2", ["x"]), P("x", ["x"])
    res = member(x, ideal([gen], LOCAL))
    assert res.contains and res.remainder.is_zero()
    assert res.unit == P("1 + x", ["x"])
    assert res.unit * x == res.coefficients[0] * gen


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
    lhs = res.unit * f
    rhs = Poly.zero(2)
    for c, g in zip(res.coefficients, gens):
        rhs = rhs + c * g
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


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("vec_nvars, basis_nvars", [(3, 2), (2, 3)])
def test_member_and_modulo_reject_a_vector_from_another_ring(
        order, vec_nvars, basis_nvars):
    # Unchecked, a vector in more variables read as a wrong "not contained"
    # or as a degree past 2^31, one in fewer as an IndexError or an empty
    # min().
    x = Poly.variable(vec_nvars, 0)
    basis = ModuleBasis(1, [(Poly.variable(basis_nvars, 0),)], order)
    with pytest.raises(ValueError, match="ring mismatch"):
        member(x, basis)
    with pytest.raises(ValueError, match="ring mismatch"):
        modulo([(x,)], basis)


def test_modulo_rejects_a_vector_of_another_rank():
    x = P("x")
    with pytest.raises(ValueError, match="rank"):
        modulo([(x, x)], ideal([x]))


def test_infinite_survives_pickle_and_copy():
    assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE
    assert copy.copy(INFINITE) is INFINITE
    assert copy.deepcopy(INFINITE) is INFINITE


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
            acc = acc + c * g
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
    # The result caches the basis it returns: its colength completes
    # nothing again, and the cache keeps the steps that built it (a tail
    # reduction adds its own), for the budget rule.
    sb = groebner_basis(basis)
    assert quotient_dimension(sb) == first
    assert len(calls) == 1
    assert sb._standard[1] >= basis._standard[1] > 0


def test_module_basis_takes_no_claim_of_completion():
    # <x + y, x> is no standard basis as given (both lead with x), yet its
    # colength is 1: it is always read from a completion.
    gens = [(P("x + y"),), (P("x"),)]
    with pytest.raises(TypeError):
        ModuleBasis(1, gens, LOCAL, completed=True)
    assert quotient_dimension(ModuleBasis(1, gens, LOCAL)) == 1


def test_module_basis_fields_equality_and_repr():
    gens = [P("x^2 + y^3"), P("x*y")]
    basis, fresh = ideal(gens), ideal(gens)
    assert basis.generators == [(g,) for g in gens]
    quotient_dimension(basis)
    member(gens[0], basis)
    assert basis._standard is not None and basis._stacked is not None
    # The caches are no fields: a completed module equals a fresh one.
    assert basis == fresh and not basis != fresh
    assert basis != ideal(gens, GLOBAL) and basis != ideal(gens[:1])
    assert basis != gens
    sb = groebner_basis(basis)
    assert ModuleBasis(1, sb.generators, LOCAL) == sb
    assert ModuleBasis._of(1, sb.generators, LOCAL) == sb
    assert repr(ModuleBasis(1, [P("x*y")], LOCAL)) == (
        "ModuleBasis(ambient_rank=1, generators=[(Poly(x*y),)], "
        "order=MonomialOrder('negdegrevlex-local'))")
    assert repr(member(gens[1], basis)) == (
        "MemberResult(contains=True, coefficients=(Poly(0), Poly(1)), "
        "unit=Poly(1), remainder=Poly(0))")
    with pytest.raises(TypeError):
        hash(basis)


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
    from matsing.groebner import (_complete, _Counter, _encoding,
                                  _lead_interreduce, _tail_reduce,
                                  flatten_vector, unflatten_vector)
    order, counter = basis.order, _Counter()
    enc = _encoding(basis.nvars, order)
    gens = _lead_interreduce(_complete(
        [flatten_vector(g, enc) for g in basis.generators], enc,
        basis.ambient_rank, counter).gens, enc)
    if order.is_global:
        gens = _tail_reduce(gens, enc, counter)
    gens.sort(key=lambda g: order.module_key(g.comp, g.exp), reverse=True)
    return [unflatten_vector(g.flat, basis.ambient_rank, enc)
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
        assert groebner_basis(got) == got
        checked += 1
    assert checked >= 10, checked


def test_lead_interreduce_drops_proper_multiples_under_global():
    from matsing.groebner import (_encoding, _Gen, _lead_interreduce,
                                  flatten_vector)
    for order in (GLOBAL, LOCAL):
        enc = _encoding(2, order)
        gens = [_Gen(flatten_vector((P(t),), enc), enc)
                for t in ("x^2*y", "x", "2*x", "y^3")]
        kept = _lead_interreduce(gens, enc)
        # x divides x^2*y; of the equal leads x and 2*x the first is kept.
        assert [g.exp for g in kept] == [(1, 0), (0, 3)], order
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


@pytest.mark.parametrize("rank", [1, 2])
def test_local_colength_of_modules_matches_jet_oracle(rank):
    # Homogenised completion against dense linear algebra on jets, on
    # seeded modules of finite colength whose components are mixed, so
    # that leading terms fall in either component.  The largest completion
    # takes 1140 steps; the budget makes a regression fail fast.
    import random
    for seed in range(12):
        rng = random.Random(100 * rank + seed)
        gens = random_finite_colength_module(rng, rng.choice((1, 2, 2, 3)),
                                             rank)
        expected = jet_quotient_dimension(gens)
        assert expected is not None
        with budget(2000):
            got = quotient_dimension(ModuleBasis(rank, gens, LOCAL))
        assert got == expected, (seed, gens)


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("rank", [1, 2])
def test_extended_basis_matches_a_fresh_completion(order, rank):
    # Resuming the completion of the first k generators with the others
    # gives a standard basis of the whole module: its lead module equals
    # that of a fresh completion (divisibility both ways), and the basis it
    # resumed keeps its own cache and completion as they were.
    import random
    from matsing.groebner import _extended, _leads_divided_by, _standard
    for seed in range(10):
        rng = random.Random(1000 * rank + seed)
        gens = random_finite_colength_module(rng, rng.choice((2, 3)), rank)
        k = rng.randint(1, len(gens) - 1)
        with budget(3000):
            basis = ModuleBasis(rank, gens[:k], order)
            before = _standard(basis)
            done = (len(basis._completion.gens),
                    set(basis._completion.treated))
            ext = _extended(basis, gens[k:])
            fresh = ModuleBasis(rank, gens, order)
            assert ext.generators == fresh.generators
            assert quotient_dimension(ext) == quotient_dimension(fresh)
            assert _leads_divided_by(ext, fresh), seed
            assert _leads_divided_by(fresh, ext), seed
        assert _standard(basis) is before
        assert (len(basis._completion.gens),
                basis._completion.treated) == done
        assert ext._standard[1] >= before[1]


def test_extended_basis_keeps_the_step_budget():
    # The resumed run counts its own steps; the cache keeps the larger of
    # those and the steps of the basis it resumed, so a budget below either
    # raises, as a fresh build under it would.
    from matsing.groebner import _extended, _standard
    basis = ideal([P("x^4 + y^3"), P("x*y^2 + x^3*y")])
    seed = _standard(basis)[1]
    with budget(seed - 1), pytest.raises(StepLimitExceeded):
        _extended(basis, [(P("x^3"),)])
    ext = _extended(basis, [(P("x^3"),)])
    assert ext._standard[1] >= seed
    assert quotient_dimension(ext) == quotient_dimension(
        ideal([P("x^4 + y^3"), P("x*y^2 + x^3*y"), P("x^3")]))
    with budget(ext._standard[1] - 1), pytest.raises(StepLimitExceeded):
        quotient_dimension(ext)
    # A resumed run cut off by the limit leaves the basis it resumed as it
    # was, so a later one under a larger limit gives the full answer.
    more = [(P("x*y^2 + x^3*y"),), (P("x^2*y^2 + y^5"),)]
    small = ideal([P("x^4 + y^3")])
    assert _standard(small)[1] < 3
    with budget(3), pytest.raises(StepLimitExceeded):
        _extended(small, more)
    assert small._completion.pairs == []
    assert quotient_dimension(_extended(small, more)) == quotient_dimension(
        ideal([P("x^4 + y^3")] + [v for v, in more]))


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("rank", [1, 2])
def test_an_input_in_the_module_of_earlier_inputs_adds_nothing(order, rank):
    # The first inputs are homogeneous with coprime leading terms, or
    # leading terms in different components, so they are a standard basis
    # as they stand (their completion adds nothing), and an O-combination
    # of them with no cancelling top degree divides to 0 on entry: it adds
    # no element and forms no pair, and the completion ends as that of the
    # first inputs alone, one entry division later.  Each reduction of an
    # entry division counts against the completion's steps, pinned here:
    # none for the first inputs, which nothing before them reduces, and 4
    # for the combination.
    from matsing.groebner import _Completion, _Counter, _encoding
    if rank == 1:
        first = [(P("x^2 + x*y"),), (P("y^3"),)]
    else:
        first = [(P("x^2 + x*y"), P("y^2")), (P("0"), P("y^3 + x*y^2"))]
    combo = tuple(a * P("x + y^2") - b * P("y - 1") for a, b in zip(*first))
    enc = _encoding(2, order)
    runs = []
    for inputs in (first, first + [combo]):
        completion = _Completion(enc, rank, _Counter())
        completion.run([flatten_vector(v, enc) for v in inputs])
        runs.append(completion)
    alone, more = runs
    assert len(alone.gens) == len(first)
    assert [g.flat for g in more.gens] == [g.flat for g in alone.gens]
    assert more.treated == alone.treated
    assert (alone.counter.steps, more.counter.steps) == (0, 4)


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_an_entry_division_that_finds_no_reducer_takes_no_step(order):
    # Homogeneous inputs with leading terms x^3, x^2*y, x*y^2 under either
    # order: no earlier leading term divides a later one, so each enters as
    # it is.  With paired_rank 0 no pair forms, and the counter sees the
    # entry divisions alone, which take no step.
    from matsing.groebner import _Completion, _Counter, _encoding
    inputs = [P("x^3 + x*y^2"), P("x^2*y + y^3"), P("x*y^2 - 2*y^3")]
    enc = _encoding(2, order)
    completion = _Completion(enc, 1, _Counter(), paired_rank=0)
    completion.run([flatten_vector((p,), enc) for p in inputs])
    assert [g.flat for g in completion.gens] \
        == [flatten_vector((p,), enc) for p in inputs]
    assert [g.exp for g in completion.gens] == [(3, 0), (2, 1), (1, 2)]
    assert completion.counter.steps == 0


def test_a_stack_finds_a_relation_on_entry():
    # The columns f and x*f: (x*f, e_1) divides by (f, e_0) in one
    # reduction to (0, e_1 - x*e_0), whose leading term x*e_0 nothing
    # divides, so the relation (x, -1) is found on entry.  (f, e_0) is the
    # only element with an upper leading term, so no pair forms: 1 step.
    from matsing.groebner import _encoding, _Stack, unflatten_vector
    f = P("x^2 + y^3")
    enc = _encoding(2, GLOBAL)
    stack = _Stack([flatten_vector((f,), enc),
                    flatten_vector((P("x") * f,), enc)], 1, enc)
    assert len(stack.upper()) == 1
    assert [unflatten_vector(a, 2, enc) for a in stack.relations()] \
        == [(P("x"), P("-1"))]
    assert stack.steps == 1


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
@pytest.mark.parametrize("rank", [1, 2])
def test_extended_by_vectors_already_in_the_module_adds_nothing(order, rank):
    # Monomial multiples of generators lie in the module, under a local
    # order at their own top degree too, so the resumed run divides each to
    # 0 by the completed basis on entry and keeps the basis as it was.
    import random
    from matsing.groebner import _extended, _standard
    for seed in range(5):
        rng = random.Random(2000 * rank + seed)
        gens = random_finite_colength_module(rng, 2, rank)
        with budget(3000):
            basis = ModuleBasis(rank, gens, order)
            _standard(basis)
            done = basis._completion
            vectors = [tuple(p * P("x") for p in gens[0]),
                       tuple(p * P("y^2") for p in gens[-1])]
            ext = _extended(basis, vectors)
        assert ext._completion.gens == done.gens, seed
        assert ext._completion.treated == done.treated, seed
        assert quotient_dimension(ext) == quotient_dimension(basis)


def test_contained_needs_containment_not_just_equal_colength():
    a = ideal([P("x"), P("y^2")])
    b = ideal([P("x^2"), P("y")])
    assert quotient_dimension(a) == quotient_dimension(b) == 2
    assert not _contained(b.generators, a, 2)
    assert not _contained(a.generators, b, 2)
    assert _contained(ideal([P("y^2"), P("x")]).generators, a, 2)


@pytest.mark.parametrize("rank", [1, 2])
def test_contained_matches_jet_oracle(rank):
    # Truncated division against dense linear algebra on jets: v lies in A
    # exactly when adding it leaves the colength of A unchanged.  v is an
    # O-combination of the generators, which lies in A, plus on two draws
    # of three a random vector or a pure power of degree d.
    import random
    verdicts = set()
    for seed in range(12):
        rng = random.Random(300 + 100 * rank + seed)
        nv = rng.choice((1, 2, 2, 3))
        gens = random_finite_colength_module(rng, nv, rank)
        d = jet_quotient_dimension(gens)
        v = [Poly.zero(nv)] * rank
        for g in gens:
            c = random_poly(rng, nv, max_degree=1, terms=2,
                            zero_constant=False)
            v = [p + c * q for p, q in zip(v, g)]
        if seed % 3 == 1:
            v = [p + random_poly(rng, nv, max_degree=2, terms=2) for p in v]
        elif seed % 3 == 2:
            v[rng.randrange(rank)] += Poly.monomial(nv, (d,) + (0,) * (nv - 1))
        v = tuple(v)
        expected = jet_quotient_dimension(gens + [v]) == d
        a = ModuleBasis(rank, gens, LOCAL)
        with budget(2000):
            assert quotient_dimension(a) == d
            got = _contained([v], a, d)
        assert got == expected, (seed, gens, v)
        verdicts.add(got)
    assert verdicts == {True, False}


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
            rhs = rhs + c * g
        assert res.unit * v == rhs
        for p in res.coefficients + (res.unit, res.remainder):
            assert is_canonical(p)
        if order == GLOBAL:
            assert res.unit == Poly.constant(2, 1)
        else:
            assert res.unit.constant_term() != 0


def test_quotient_dimension_walks_the_staircase():
    # Colength m + 1; a walk over the box of pure-power bounds took seconds
    # from m = 16 on.  The monomials are a standard basis already, so the
    # staircase count is timed on them alone, without a completion.
    import time
    from matsing.groebner import (_colength, _encoding, _normalized,
                                  flatten_vector)
    m = 24
    squares = []
    for i in range(m):
        for j in range(i, m):
            exp = [0] * m
            exp[i] += 1
            exp[j] += 1
            squares.append((Poly.monomial(m, exp),))
    enc = _encoding(m, LOCAL)
    gens = [_normalized(flatten_vector(g, enc), enc) for g in squares]
    t0 = time.perf_counter()
    assert _colength(gens, 1, m) == m + 1
    assert time.perf_counter() - t0 < 1.0


def test_staircase_count_is_bounded_by_the_step_limit():
    # Each visited standard monomial counts a step: a colength of 10^6
    # fails at once under a budget of 100 instead of walking for seconds.
    import time
    x = Poly.variable(1, 0)
    t0 = time.perf_counter()
    with budget(100), pytest.raises(StepLimitExceeded):
        quotient_dimension(ideal([x ** 1000000]))
    assert time.perf_counter() - t0 < 1.0


def test_leading_term_agrees_with_order_key():
    # _leading takes the least key; MonomialOrder.module_key is the
    # reference it must agree with, over components 0-3.  The degree
    # readers of the encoding agree with the exponents.
    import random
    from matsing.groebner import _encoding, _Gen, _leading
    rng = random.Random(3)
    for _ in range(300):
        nv = rng.randint(1, 4)
        terms = {(rng.randint(0, 3), tuple(rng.randint(0, 3) for _ in range(nv))):
                 rng.randint(1, 9) for _ in range(rng.randint(1, 12))}
        for order in (GLOBAL, LOCAL):
            enc = _encoding(nv, order)
            flat = {enc.pack(e, c): v for (c, e), v in terms.items()}
            want = max(terms, key=lambda ce: order.module_key(*ce))
            key, coeff = _leading(flat)
            assert ((enc.component(key), enc.unpack(key)), coeff) \
                == (want, terms[want])
            g = _Gen(flat, enc)
            assert (g.comp, g.exp, g.deg) == (want[0], want[1], sum(want[1]))
            assert enc.maxdeg(flat) == max(sum(e) for _, e in terms)
            d = rng.randint(0, 7)
            assert sorted(enc.below(flat, d).values()) \
                == sorted(v for (_, e), v in terms.items() if sum(e) < d)


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
                acc = acc + c * g[i]
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
    # basis; compare their span with that of a full completion.  The
    # largest full completion takes 1696 steps; the budget makes a
    # regression fail fast.
    import random
    rng = random.Random(rank)
    for _ in range(15):
        nv = rng.randint(2, 3)
        gens = [tuple(random_poly(rng, nv, max_degree=2, terms=3)
                      for _ in range(rank))
                for _ in range(rng.randint(2, 4))]
        _assert_generates_syzygies(ModuleBasis(rank, gens, order),
                                   steps=2500)


def test_syzygies_generate_kernel_of_pencil_gen_b_d2():
    # Dropping syzygies whose leading term is a multiple of another's lost
    # a kernel generator here (3 of the 5 needed).
    fam = parse_family(
        "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]").to_family()
    d2 = kind_complex(fam).diff(2)
    _assert_generates_syzygies(
        ModuleBasis(d2.rows, [d2.column(j) for j in range(d2.cols)], LOCAL))


def test_syzygies_of_zero_columns_include_their_unit_vectors():
    # A zero column stacks as (0, e_j), so e_j is a relation of its own;
    # the 0-row matrix has only zero columns.
    x, y, z0 = P("x"), P("y"), Poly.zero(2)
    for m in (PolyMatrix([[x, z0, y, z0, x * y], [y, z0, x * x, z0, y * y]],
                         2),
              PolyMatrix.zeros(2, 3, 2), PolyMatrix.zeros(0, 3, 2)):
        z = syzygies(m)
        assert z.rows == m.cols and (m @ z).is_zero()
        span = ModuleBasis(m.cols, [z.column(j) for j in range(z.cols)],
                           GLOBAL)
        for j in range(m.cols):
            if all(p.is_zero() for p in m.column(j)):
                e = tuple(Poly.constant(2, int(i == j))
                          for i in range(m.cols))
                assert member(e, span).contains, (m, j)


def _combination(coeffs, vectors, nvars):
    rank = len(vectors[0])
    out = [Poly.zero(nvars)] * rank
    for c, v in zip(coeffs, vectors):
        out = [o + c * p for o, p in zip(out, v)]
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


# -- packed term keys ---------------------------------------------------------

_BOUND = 2 ** 31  # every degree must stay below it


@st.composite
def _exponents(draw, nvars=None, room=_BOUND):
    """An exponent vector of 0 to 30 variables: zeros and small entries,
    and sometimes one entry that brings the degree just below room."""
    n = draw(st.integers(0, 30)) if nvars is None else nvars
    exp = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 7)), min_size=n,
                        max_size=n))
    if n and room > 2000 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        exp[i] = 0
        exp[i] = draw(st.integers(room - 1000, room - 1)) - sum(exp)
    return tuple(exp)


@st.composite
def _exponent_pairs(draw):
    """(a, b) in one ring, both of degree below the bound; b is a multiple
    of a about half the time."""
    a = draw(_exponents())
    if draw(st.booleans()):
        c = draw(_exponents(len(a), room=_BOUND - sum(a)))
        b = tuple(map(int.__add__, a, c))
        assume(sum(b) < _BOUND)
    else:
        b = draw(_exponents(len(a)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs(), st.sampled_from((GLOBAL, LOCAL)),
       st.integers(0, 3), st.integers(0, 3))
def test_packed_keys_encode_the_order(pair, order, ca, cb):
    from matsing.groebner import _encoding, _Gen, _lead_interreduce
    a, b = pair
    enc = _encoding(len(a), order)
    ka, kb = enc.pack(a, ca), enc.pack(b, cb)
    for exp, comp, key in ((a, ca, ka), (b, cb, kb)):
        assert enc.unpack(key) == exp
        assert enc.degree(key) == sum(exp)
        assert enc.component(key) == comp
        assert enc.base(comp) <= key < enc.base(comp + 1)
    # Within one component the borrow test is divisibility, on every draw.
    assert (not (enc.pack(b, ca) - ka) & enc.high) == exp_divides(a, b)
    # It reads the exponent fields alone, so across components the leading
    # terms divide only with the same component as well: lead
    # interreduction keeps a multiple that lies in another component.
    gens = [_Gen({ka: 1}, enc), _Gen({kb: 1}, enc)]
    divides = exp_divides(a, b) or exp_divides(b, a)
    assert len(_lead_interreduce(gens, enc)) == (1 if ca == cb and divides
                                                  else 2)
    # The least key is the largest term under module_key, and the order of
    # the keys is that of the terms, reversed.
    terms = {(c, e) for c in range(4) for e in (a, b)}
    packed = {enc.pack(e, c): (c, e) for c, e in terms}
    assert [packed[k] for k in sorted(packed)] \
        == sorted(terms, key=lambda t: order.module_key(*t), reverse=True)
    # The global keys re-keyed for the local order are the local keys.
    glob, loc = _encoding(len(a), GLOBAL), _encoding(len(a), LOCAL)
    assert glob.localized({glob.pack(e, c): c for c, e in terms}) \
        == {loc.pack(e, c): c for c, e in terms}
    # A quotient key added to the divisor's key gives the multiple's key, in
    # any component: x^b / 1 taken in component cb, applied in ca.
    s = tuple(map(int.__add__, a, b))
    if sum(s) < _BOUND:
        assert ka + (kb - enc.unit(cb)) == enc.pack(s, ca)
        if exp_divides(a, b):
            q = tuple(map(int.__sub__, b, a))
            assert enc.pack(b, ca) - ka == enc.pack(q, cb) - enc.unit(cb)
    else:
        with pytest.raises(ValueError, match="2\\^31"):
            enc.pack(s, ca)


@settings(max_examples=200, deadline=None)
@given(_exponents(), st.sampled_from((GLOBAL, LOCAL)), st.integers(0, 3))
def test_packed_keys_follow_the_layout_on_a_miss_and_on_a_hit(exp, order, c):
    # K(c, e) = c 2^((n+1)F) + D(|e|) 2^(nF) + sum_i e_i 2^(iF), F = 32,
    # D(d) = 2^31 - d globally and d locally, whether pack computes the key
    # (a fresh encoding) or finds it memoised (the second call).
    from matsing.groebner import _Encoding, _encoding
    n, d = len(exp), sum(exp)
    want = ((c << (n + 1) * 32)
            + ((d if order == LOCAL else _BOUND - d) << n * 32)
            + sum(e << i * 32 for i, e in enumerate(exp)))
    fresh = _Encoding(n, order == LOCAL)
    for enc in (fresh, fresh, _encoding(n, order), _encoding(n, order)):
        assert enc.pack(exp, c) == want
        assert enc.pack(exp) == want - (c << (n + 1) * 32)


def test_the_key_memo_starts_over_when_full(monkeypatch):
    # Past _KEYS_HELD distinct vectors the memo is emptied, and keys packed
    # after that, fresh or memoised again, are unchanged.
    from matsing import groebner
    monkeypatch.setattr(groebner, "_KEYS_HELD", 4)
    enc, plain = groebner._Encoding(2, False), groebner._Encoding(2, False)
    exps = [(i, j) for i in range(4) for j in range(3)]
    want = [plain.pack(e, 1) for e in exps]
    for _ in range(2):
        for e, key in zip(exps, want):
            assert enc.pack(e, 1) == key
            assert 0 < len(enc._keys) <= 4


@pytest.mark.parametrize("order", [GLOBAL, LOCAL])
def test_a_degree_past_the_bound_raises_on_every_call(order):
    from matsing.groebner import _Encoding
    enc = _Encoding(2, order == LOCAL)
    for exp in ((_BOUND, 0), (_BOUND // 2, _BOUND // 2), (_BOUND - 1, 0)):
        for comp in (0, 1, 0):
            if sum(exp) < _BOUND:
                assert enc.component(enc.pack(exp, comp)) == comp
            else:
                with pytest.raises(ValueError, match="2\\^31"):
                    enc.pack(exp, comp)


def test_stack_blocks_split_at_the_rank(monkeypatch):
    # A rank-2 stack whose flats all have terms in component 1, so each
    # element (f_j, e_j) has terms on both sides of the block boundary.
    # The block splits of _Stack and member() are checked against what
    # they mean for the vectors.
    from matsing.groebner import (_encoding, _lead_interreduce, _Stack,
                                  flatten_vector, unflatten_vector)
    gens = [(P("x"), P("y")), (P("y"), P("x")), (P("0"), P("x*y + y^2"))]
    r, t = 2, len(gens)
    enc = _encoding(2, GLOBAL)
    st_ = _Stack([flatten_vector(g, enc) for g in gens], r, enc)

    upper, relations = st_.upper(), st_.relations()
    assert upper and relations
    for g in st_.gens:
        whole = unflatten_vector(g.flat, r + t, enc)
        u, a = whole[:r], whole[r:]
        # Every element is (sum a_j f_j, a).
        assert _combination(a, gens, 2) == u
        assert (g in upper) == any(p.terms for p in u) == (g.comp < r)
    assert [unflatten_vector(z, t, enc) for z in relations] \
        == [unflatten_vector(g.flat, r + t, enc)[r:]
            for g in st_.gens if g.comp >= r]
    assert all(_combination(a, gens, 2) == (P("0"),) * r
               for a in (unflatten_vector(z, t, enc) for z in relations))
    # The modulo seed is the upper block of the lead-interreduced upper(),
    # as normalized _Gens (here each block already has content 1).
    seeds = []
    init = _Stack.__init__

    def spy(self, flats, rank, enc, standard=()):
        seeds.append(standard)
        init(self, flats, rank, enc, standard)

    z = [flatten_vector((P("x^2"), P("y^2")), enc),
         flatten_vector((P("1"), P("x")), enc)]
    monkeypatch.setattr(_Stack, "__init__", spy)
    rel = st_.modulo(z, enc)
    monkeypatch.undo()
    assert [unflatten_vector(s.flat, r, enc) for s in seeds[0]] \
        == [unflatten_vector(g.flat, r + t, enc)[:r]
            for g in _lead_interreduce(upper, enc)]
    basis = ModuleBasis(r, gens, GLOBAL)
    zv = [unflatten_vector(f, r, enc) for f in z]
    assert rel and all(
        member(_combination(unflatten_vector(a, len(z), enc), zv, 2),
               basis).contains for a in rel)
    # The re-key of _homology_colength, key for key, on these relations.
    loc = _encoding(2, LOCAL)
    assert all(enc.localized(a)
               == flatten_vector(unflatten_vector(a, len(z), enc), loc)
               for a in rel)
    # member() splits the remainder at the rank: the upper block is the
    # remainder, the lower block the coefficients.
    for vec, inside in [((P("x^2 + x*y"), P("x*y + y^2")), True),
                        ((P("x^2 + 1"), P("x*y")), False)]:
        res = member(vec, basis)
        assert res.contains is inside
        assert any(p.terms for p in res.remainder) is not inside
        assert tuple(p + q for p, q in zip(
            _combination(res.coefficients, gens, 2), res.remainder)) == vec


def test_degree_bound_is_checked_never_overflowed():
    x = Poly.variable(1, 0)
    # Far past 16-bit fields, well inside the bound.
    assert quotient_dimension(ideal([x ** 70000])) == 70000
    big = Poly.monomial(2, (_BOUND, 0))
    with pytest.raises(ValueError, match="2\\^31"):
        quotient_dimension(ideal([big]))
    with pytest.raises(ValueError, match="2\\^31"):
        quotient_dimension(ideal([Poly.monomial(2, (_BOUND // 2,) * 2)]))
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    top = Poly.monomial(2, (0, _BOUND - 1))
    # An s-vector: the lcm x*y has degree 2, but the tail y^(2^31-1) of
    # (x, y^(2^31-1)) would reach degree 2^31.
    with pytest.raises(ValueError, match="2\\^31"):
        quotient_dimension(ModuleBasis(2, [(x, top), (y, Poly.zero(2))],
                                       GLOBAL))
    # A division step: dividing (x^2, 0) by (x, y^(2^31-1)).
    with pytest.raises(ValueError, match="2\\^31"):
        member((x * x, Poly.zero(2)), ModuleBasis(2, [(x, top)], GLOBAL))
