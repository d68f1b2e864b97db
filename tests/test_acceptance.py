"""Acceptance gate: every stated criterion, one test and one printed
verdict line each.  All quantities are exact integers or exact polynomial
identities; there are no tolerances anywhere."""

import random

from matsing import (
    PolyMatrix,
    analyze,
    betti_numbers,
    catalog,
    corank_at_origin,
    generic_family,
    homology_profile,
    kind_complex,
    koszul,
    milnor_number,
    minors_ideal,
    parse_family,
    parse_poly,
    pullback,
    quotient_dimension,
    tau_matrix,
    verify_complex,
)
from matsing.groebner import LOCAL, ModuleBasis
from matsing.matalg import adjugate, determinant, pfaffian, \
    sub_pfaffian_matrix
from matsing.poly import translate

from oracle import (jet_quotient_dimension, phi_f,
                    random_finite_colength_ideal, tau_homological,
                    verify_chain_map)
from test_complexes import random_family


def report(line):
    print(line)


def test_acceptance_1_quintic_section_counts():
    """Section with f = x^5 z + x^3 y^3 + y^5 z over (x, y, x + y)."""
    spec = catalog("remark-4-8-iii")
    rep = analyze(spec.subject(), name=spec.name)
    assert rep.mu == 25
    assert rep.codim_minors == 19
    assert rep.tau_function_right == 10
    # tau is NOT mu minus the jacobian colength here (10 != 25 - 19); the
    # gate that would equate them does not apply at this parameter count.
    imax = next(c for c in rep.checks if c.identity == "imax")
    assert imax.verdict == "NOT-APPLICABLE"
    assert imax.lhs == 10 and imax.rhs == 6
    assert rep.tau_function_right != rep.mu - rep.codim_minors
    report("ACCEPTANCE 1 (quintic section: mu 25, colength 19, tau 10, "
           "tau != mu - 19): PASS")


def test_acceptance_2_diagonal_families():
    """Closed forms for one-variable diagonal symmetric families."""
    for n, a in ((2, (1, 2)), (2, (2, 3)), (3, (1, 1, 2)), (3, (1, 2, 2))):
        spec = catalog("diag-sym", a=a)
        fam = spec.to_family()
        srt = sorted(a)
        want_tau = sum((n - i) * srt[i] for i in range(n)) - 1
        want_mu = sum(a) - 1
        want_b0 = sum(sorted(a)[:n - 1])
        tau = tau_matrix(fam, "special")
        mu = milnor_number(fam.function())
        b = betti_numbers(fam)
        assert tau == want_tau, (a, tau)
        assert mu == want_mu, (a, mu)
        assert b[0] == want_b0, (a, b)
        corank = corank_at_origin(fam)
        assert (tau == mu + b[0]) == (corank <= 2), a
    report("ACCEPTANCE 2 (diagonal families: tau, mu, b0 closed forms; "
           "tau = mu + b0 iff corank <= 2): PASS")


def test_acceptance_3_normal_forms():
    """Generic normal forms: mu = 1, minors colength 1, tau = 0."""
    for name, kind, size in (("generic-sym-2", "symmetric", 1),
                             ("generic-gen-2", "general", 1),
                             ("generic-skew-4", "skew", 2)):
        fam = catalog(name).to_family()
        assert milnor_number(fam.function()) == 1, name
        assert quotient_dimension(minors_ideal(fam, size)) == 1, name
        assert tau_matrix(fam, "special") == 0, name
    # The same holds after padding with invertible constant blocks.
    for name, params in (("normal-form-sym", {"n": 3}),
                         ("normal-form-gen", {"n": 3}),
                         ("normal-form-skew", {"n": 6})):
        fam = catalog(name, **params).to_family()
        size = fam.n - (2 if fam.kind == "skew" else 1)
        assert milnor_number(fam.function()) == 1, name
        assert quotient_dimension(minors_ideal(fam, size)) == 1, name
        assert tau_matrix(fam, "special") == 0, name
    report("ACCEPTANCE 3 (normal forms: mu = 1, colength 1, tau = 0): PASS")


def test_acceptance_4_resolution_exactness():
    """d^2 = 0 on 20 random families of each kind; generic acyclicity."""
    rng = random.Random(1789)
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        for _ in range(20):
            fam = random_family(rng, kind, n, rng.choice((1, 2, 3)))
            assert verify_complex(kind_complex(fam)), kind
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        profile = homology_profile(kind_complex(generic_family(kind, n)))
        assert profile[0] == 1 and all(h == 0 for h in profile[1:]), kind
    report("ACCEPTANCE 4 (resolutions: d^2 = 0 on 60 random families; "
           "generic complexes acyclic with H_0 = 1): PASS")


def _tau_three_routes(fam):
    t_lie = tau_matrix(fam, "special")
    t_fields = analyze(fam).tau_function_right
    t_cone = tau_homological(fam)
    return t_lie, t_fields, t_cone


def test_acceptance_5_route_agreement():
    """tau from the group tangent space, from jacobian + pulled log
    fields, and from the cone's H_1 agree on 11 families."""
    families = [
        catalog("generic-sym-2").to_family(),
        catalog("generic-gen-2").to_family(),
        catalog("generic-skew-4").to_family(),
        catalog("diag-sym", a=(1, 2)).to_family(),
        catalog("diag-sym", a=(2, 3)).to_family(),
        catalog("diag-sym", a=(1, 1, 2)).to_family(),
        parse_family(
            "kind=symmetric; vars=x,y; matrix=[[x,y],[y,-x]]").to_family(),
        parse_family(
            "kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]").to_family(),
        parse_family(
            "kind=general; vars=x,y,z; matrix=[[x,y],[z,-x]]").to_family(),
        parse_family(
            "kind=general; vars=x,y; matrix=[[x,y],[-y,x]]").to_family(),
        parse_family("kind=skew; vars=x1..x4; "
                     "upper=[[x1,x2,x3],[x4,-x2],[x1]]").to_family(),
    ]
    assert len(families) >= 10
    for fam in families:
        t_lie, t_fields, t_cone = _tau_three_routes(fam)
        assert t_lie == t_fields == t_cone, (fam.kind, fam.n, t_lie,
                                             t_fields, t_cone)
        assert isinstance(t_lie, int)
    report(f"ACCEPTANCE 5 (three tau routes agree on {len(families)} "
           "families): PASS")


def test_acceptance_6_tau_equals_mu_one_below_max():
    """One parameter below the maximal count: tau = mu, and the first two
    Betti numbers agree with everything above degree 1 vanishing."""
    cases = [
        parse_family(
            "kind=symmetric; vars=x,y; matrix=[[x,y],[y,-x]]").to_family(),
        parse_family(
            "kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]").to_family(),
        parse_family(
            "kind=general; vars=x,y,z; matrix=[[x,y],[z,-x]]").to_family(),
        parse_family(
            "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]").to_family(),
    ]
    for fam in cases:
        tau = tau_matrix(fam, "special")
        mu = milnor_number(fam.function())
        assert tau == mu, (fam.kind, tau, mu)
        b = betti_numbers(fam)
        assert b[0] == b[1], (fam.kind, b)
        assert all(x == 0 for x in b[2:]), (fam.kind, b)
    report("ACCEPTANCE 6 (tau = mu one below the maximum; b0 = b1 and "
           "higher Betti numbers vanish): PASS")


def test_acceptance_7_tau_equals_mu_plus_b0_two_below_max():
    """Two parameters below the maximum (Gorenstein kinds): tau = mu + b0
    and the Betti numbers are palindromic over the expected window."""
    cases = [
        parse_family(
            "kind=general; vars=x,y; matrix=[[x,y],[-y,x]]").to_family(),
        parse_family(
            "kind=general; vars=x,y; matrix=[[x,y],[-y,x+y^2]]").to_family(),
        parse_family("kind=skew; vars=x1..x4; "
                     "upper=[[x1,x2,x3],[x4,-x2],[x1]]").to_family(),
        parse_family("kind=skew; vars=x1..x4; "
                     "upper=[[x1,x2,x3],[x4,-x2],[x1+x2^2]]").to_family(),
    ]
    m0 = {"general": 4, "skew": 6}
    for fam in cases:
        tau = tau_matrix(fam, "special")
        mu = milnor_number(fam.function())
        b = betti_numbers(fam)
        assert tau == mu + b[0], (fam.kind, tau, mu, b)
        q = m0[fam.kind] - fam.m
        window = b[:q + 1]
        assert window == list(reversed(window)), (fam.kind, b)
        assert all(x == 0 for x in b[q + 1:]), (fam.kind, b)
    report("ACCEPTANCE 7 (tau = mu + b0 two below the maximum; Betti "
           "numbers palindromic): PASS")


def test_acceptance_8_property_suites():
    """Exact linear-algebra identities, Koszul acyclicity, chain maps,
    and the jet-space oracle for quotient dimensions."""
    rng = random.Random(2718)

    # Pf^2 = det and companion identity on random skew matrices.
    from test_matalg import random_matrix, random_skew
    for n in (2, 4, 6):
        for _ in range(4):
            s = random_skew(rng, n, 2)
            pf = pfaffian(s)
            assert pf * pf == determinant(s)
            comp = sub_pfaffian_matrix(s)
            expect = PolyMatrix.identity(n, 2).scale(pf)
            assert comp @ s == expect and s @ comp == expect

    # M adj(M) = det(M) I on random square matrices.
    for n in (1, 2, 3):
        for _ in range(4):
            m = random_matrix(rng, n, 2)
            expect = PolyMatrix.identity(n, 2).scale(determinant(m))
            assert m @ adjugate(m) == expect
            assert adjugate(m) @ m == expect

    # Koszul complexes of functions with finite mu are acyclic in
    # positive degrees.
    samples = [parse_poly(t, ["x", "y"]) for t in
               ("x^2 + y^2", "x^3 + y^3", "x^2*y + y^4",
                "x^6 + x^5*y + x^3*y^3 + x*y^5 + y^6")]
    for g in samples:
        mu = milnor_number(g)
        assert isinstance(mu, int)
        profile = homology_profile(koszul(g))
        assert profile[0] == mu
        assert all(h == 0 for h in profile[1:]), g

    # Chain-map squares for the comparison morphism in all three kinds.
    checked = 0
    for kind in ("symmetric", "general", "skew"):
        n = 4 if kind == "skew" else 2
        for _ in range(3):
            fam = random_family(rng, kind, n, 2)
            g = fam.function()
            if g.is_zero() or g.constant_term() != 0:
                continue
            l = pullback(kind_complex(generic_family(kind, n)),
                         fam.as_map())
            phi = phi_f(fam, l)
            assert verify_chain_map(koszul(g), l, phi), kind
            assert len(phi) == 3
            checked += 1
    assert checked >= 6

    # Quotient dimensions against the jet-space oracle on 30 random
    # finite-colength ideals.
    agreed = 0
    while agreed < 30:
        nvars = rng.choice((1, 2, 2, 3))
        gens = random_finite_colength_ideal(rng, nvars)
        expected = jet_quotient_dimension(gens)
        if expected is None:
            continue
        basis = ModuleBasis(1, [(g,) for g in gens], LOCAL)
        assert quotient_dimension(basis) == expected
        agreed += 1
    report("ACCEPTANCE 8 (Pfaffian/adjugate identities, Koszul "
           "acyclicity, chain maps, 30 oracle agreements): PASS")


def test_acceptance_conservation_under_deformation():
    """Colength is conserved under deformation: for S = [[x, y], [y, z^2]]
    the entry ideal (x, y, z^2) has local colength 2; deforming the corner
    to z^2 + z splits the locus into two reduced points, and the global
    colength equals the sum of the local colengths at the two points."""
    from fractions import Fraction
    from matsing.groebner import GLOBAL

    names = ["x", "y", "z"]
    fam = parse_family(
        "kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z^2]]").to_family()
    undeformed = minors_ideal(fam, 1)
    assert quotient_dimension(undeformed) == 2

    deformed_gens = [parse_poly(t, names) for t in ("x", "y", "z^2 + z")]
    global_basis = ModuleBasis(1, [(g,) for g in deformed_gens], GLOBAL)
    total_global = quotient_dimension(global_basis)
    assert total_global == 2

    local_sum = 0
    for point in ((Fraction(0), Fraction(0), Fraction(0)),
                  (Fraction(0), Fraction(0), Fraction(-1))):
        moved = [translate(g, point) for g in deformed_gens]
        assert all(g.constant_term() == 0 for g in moved)
        local = quotient_dimension(
            ModuleBasis(1, [(g,) for g in moved], LOCAL))
        assert local == 1
        local_sum += local
    assert local_sum == total_global == 2
    report("ACCEPTANCE extra (colength conserved across a splitting "
           "deformation, global count = sum of local counts): PASS")
