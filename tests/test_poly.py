import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matsing import Poly, SubstitutionMap, format_poly, parse_poly
from matsing.poly import partial, substitute, translate

from oracle import (compose, is_canonical, is_constant, preserves_origin,
                    random_poly)


def P(text, names=("x", "y")):
    return parse_poly(text, list(names))


def test_canonical_zero_terms_dropped():
    x = Poly.variable(2, 0)
    assert (x + x - x - x).is_zero()
    assert x - x == Poly.zero(2)
    assert not (x - x)


def test_constant_and_variable_basics():
    c = Poly.constant(2, Fraction(3, 2))
    assert is_constant(c)
    assert c.constant_term() == Fraction(3, 2)
    assert c.total_degree() == 0
    assert Poly.zero(2).total_degree() == -1
    x = Poly.variable(2, 0)
    assert x.total_degree() == 1
    assert x.coefficient((1, 0)) == 1
    assert x.coefficient((0, 1)) == 0


def test_arithmetic_known_expansion():
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("1/2*(x + y)^2") == P("1/2*x^2 + x*y + 1/2*y^2")
    assert P("(x - y)*(x + y)") == P("x^2 - y^2")
    assert P("x")**0 == Poly.constant(2, 1)


def test_equality_against_scalars():
    assert Poly.constant(3, 5) == 5
    assert Poly.constant(3, Fraction(1, 2)) == Fraction(1, 2)
    assert Poly.zero(3) == 0
    assert Poly.variable(3, 1) != 0


def test_mixed_ring_operations_rejected():
    x2 = Poly.variable(2, 0)
    x3 = Poly.variable(3, 0)
    with pytest.raises(ValueError):
        _ = x2 + x3


def test_substitute_section_composition():
    f = parse_poly("x^5*z + x^3*y^3 + y^5*z", ["x", "y", "z"])
    fmap = SubstitutionMap([P("x"), P("y"), P("x + y")])
    assert substitute(f, fmap) == P(
        "x^6 + x^5*y + x^3*y^3 + x*y^5 + y^6")


def test_partial_derivative():
    g = P("x^3*y + 2*y^2")
    assert partial(g, 0) == P("3*x^2*y")
    assert partial(g, 1) == P("x^3 + 4*y")
    assert is_canonical(partial(g, 0))


def test_translate_moves_origin():
    g = P("x^2 + y")
    moved = translate(g, (Fraction(1), Fraction(-2)))
    assert moved == P("(x + 1)^2 + y - 2")
    assert moved.evaluate((Fraction(0), Fraction(0))) == g.evaluate(
        (Fraction(1), Fraction(-2)))


def test_evaluate():
    g = P("x^2*y - 1/3")
    assert g.evaluate((Fraction(2), Fraction(3))) == Fraction(35, 3)


def test_substitution_map_compose_and_origin():
    fmap = SubstitutionMap([P("x + y"), P("x*y")])
    inner = SubstitutionMap([P("y"), P("x")])
    both = compose(fmap, inner)
    g = P("u^2 + v", ("u", "v"))
    assert substitute(g, both) == substitute(substitute(g, fmap), inner)
    assert preserves_origin(fmap)
    assert not preserves_origin(SubstitutionMap([P("x + 1"), P("y")]))


def _reference_substitute(p, f):
    """Substitution by a per-call power cache of each image, the expansion
    that the memo on the map replaced; kept as the reference."""
    src = f.source_nvars
    powers = [[Poly.constant(src, 1)] for _ in range(p.nvars)]
    result = Poly.zero(src)
    for exp, coeff in sorted(p.terms.items()):
        term = Poly.constant(src, coeff)
        for i, e in enumerate(exp):
            if e == 0:
                continue
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * f.images[i])
            term = term * cache[e]
        result = result + term
    return result


def _random_map(rng, target, source):
    """Images with and without constant terms, sometimes zero."""
    return SubstitutionMap([
        Poly.zero(source) if rng.random() < 0.1 else
        random_poly(rng, source, max_degree=2, terms=3,
                    zero_constant=rng.random() < 0.5)
        for _ in range(target)])


def _random_polys(rng, nvars, count):
    out = [Poly.zero(nvars), Poly.constant(nvars, Fraction(-3, 2))]
    out += [random_poly(rng, nvars, max_degree=4, terms=6,
                        zero_constant=rng.random() < 0.5)
            for _ in range(count)]
    return out


def test_substitute_matches_power_cache_reference():
    rng = random.Random(61)
    for _ in range(25):
        target, source = rng.randint(1, 4), rng.randint(1, 3)
        for p in _random_polys(rng, target, 8):
            fmap = _random_map(rng, target, source)
            assert substitute(p, fmap) == _reference_substitute(p, fmap)


def test_substitute_memo_does_not_leak_between_calls():
    rng = random.Random(62)
    for _ in range(10):
        target, source = rng.randint(2, 4), rng.randint(1, 3)
        fmap = _random_map(rng, target, source)
        polys = _random_polys(rng, target, 12)
        expect = {i: _reference_substitute(p, fmap)
                  for i, p in enumerate(polys)}
        # One map serves every call, twice over, in shuffled order.
        order = list(range(len(polys))) * 2
        rng.shuffle(order)
        for i in order:
            assert substitute(polys[i], fmap) == expect[i]


def test_substitute_through_composed_and_translated_maps():
    rng = random.Random(63)
    for _ in range(15):
        target, mid, source = (rng.randint(1, 3), rng.randint(1, 3),
                               rng.randint(1, 3))
        outer = _random_map(rng, target, mid)
        inner = _random_map(rng, mid, source)
        both = compose(outer, inner)
        assert both.images == tuple(_reference_substitute(p, inner)
                                    for p in outer.images)
        for p in _random_polys(rng, target, 4):
            assert substitute(p, both) == _reference_substitute(p, both)
            assert substitute(p, both) == _reference_substitute(
                _reference_substitute(p, outer), inner)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(target)]
        shifted = SubstitutionMap([Poly.variable(target, i) + point[i]
                                   for i in range(target)])
        for p in _random_polys(rng, target, 4):
            assert translate(p, point) == _reference_substitute(p, shifted)


def test_equal_maps_stay_equal_when_one_has_a_memo():
    images = [P("x + 1"), P("x*y - y^2"), P("2")]
    used, fresh = SubstitutionMap(images), SubstitutionMap(images)
    g = parse_poly("u^3*v + w^2*v - u", ["u", "v", "w"])
    assert substitute(g, used) == _reference_substitute(g, fresh)
    assert len(used._monomial_images) > len(fresh._monomial_images)
    assert used == fresh and fresh == used


def test_format_poly_round_trips():
    for text in ("x^2 - y", "1", "0", "-x", "3/2*x*y - 7", "x^5*y^3 + x"):
        p = P(text)
        assert parse_poly(format_poly(p, ["x", "y"]), ["x", "y"]) == p


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(nvars=2, max_terms=5, max_degree=4):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_degree)
                       for _ in range(nvars)])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Poly(nvars, d))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(2) == a
    assert a * Poly.constant(2, 1) == a


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(a, b):
    for i in range(2):
        assert partial(a * b, i) == partial(a, i) * b + a * partial(b, i)


@settings(max_examples=40, deadline=None)
@given(polys(), st.tuples(coeffs, coeffs))
def test_translate_inverts(a, point):
    back = tuple(-t for t in point)
    assert translate(translate(a, point), back) == a


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), polys())
def test_substitution_is_ring_map(g, img0, img1):
    fmap = SubstitutionMap([img0, img1])
    h = P("x*y + x")
    assert substitute(g * h, fmap) == substitute(g, fmap) * substitute(
        h, fmap)
    assert substitute(g + h, fmap) == substitute(g, fmap) + substitute(
        h, fmap)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), coeffs, st.tuples(coeffs, coeffs))
def test_results_keep_canonical_scalars(a, b, c, point):
    """Every coefficient is a nonzero int or a Fraction of denominator > 1,
    also where Fractions meet and give an integer (1/2 + 1/2, 2 * 1/2)."""
    fmap = SubstitutionMap([b, a + b])
    results = [a, a + b, a - b, a * b, -a, a * c, c * a, a + c, c - a,
               substitute(a, fmap), partial(a, 0), partial(a, 1),
               translate(a, point),
               parse_poly(format_poly(a, ["x", "y"]), ["x", "y"])]
    assert all(is_canonical(p) for p in results)


@settings(max_examples=80, deadline=None)
@given(polys(), st.one_of(st.sampled_from([1, -1, Fraction(-1)]), coeffs))
def test_constant_factors_multiply_as_scalars(p, c):
    """A rational factor and a constant Poly give the same canonical
    product on either side; 1 and -1 take their own shortcut."""
    const = Poly.constant(2, c)
    products = [p * c, c * p, p * const, const * p]
    assert all(q == products[0] and is_canonical(q) for q in products)
    assert products[0] == Poly(2, {e: k * c for e, k in p.terms.items()})
    with pytest.raises(ValueError):
        p * Poly.constant(3, c)
    with pytest.raises(ValueError):
        Poly.constant(3, c) * p


def test_integral_fractions_become_ints():
    p = P("4/2*x + 1/2*x*y + 1/2*x*y - 3/3")
    assert p.terms == {(1, 0): 2, (1, 1): 1, (0, 0): -1}
    assert all(type(c) is int for c in p.terms.values())
    assert (P("1/2*x") * 2).terms == {(1, 0): 1}
    assert type(partial(P("1/2*x^2"), 0).terms[(1, 0)]) is int
    half = P("1/2*x^2")
    assert type(half.coefficient((2, 0))) is Fraction
    assert type(P("x").coefficient((1, 0))) is Fraction
    assert type(P("x + 3").constant_term()) is Fraction


def test_no_true_division_on_coefficients():
    """Integral coefficients are ints, and int / int is a float: the library
    and the jet oracle write every quotient through Fraction instead."""
    here = Path(__file__).parent
    files = sorted((here.parent / "src" / "matsing").glob("*.py"))
    hits = [f"{path.name}:{node.lineno}"
            for path in files + [here / "oracle.py"]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]
    assert len(files) > 5 and hits == []
