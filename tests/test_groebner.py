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
    member,
    parse_poly,
    quotient_dimension,
    syzygies_of_basis,
)
from matsing.poly import add, mul

from oracle import jet_quotient_dimension, random_finite_colength_ideal


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
    with pytest.raises(StepLimitExceeded):
        quotient_dimension(ideal(gens), max_steps=3)


def test_member_step_budget_is_per_call():
    # Queries against one basis share its cached stacked completion, but
    # each query spends its own budget, not what is left of a shared one.
    basis = ideal([P("x^2 + y^3"), P("x*y")])
    for _ in range(300):
        assert member(P("x^2*y"), basis, max_steps=100).contains


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
