"""Numerical invariants of matrix families and hypersurface sections.

Everything is a vector-space dimension over the local ring at the origin,
computed exactly from standard bases.  The same quantity is deliberately
reachable along independent routes:

  * tau_matrix uses the Lie-algebra tangent spaces (congruence action for
    symmetric/skew families, two-sided multiplication for general ones),
    with trace-free matrices for the 'special' flavour and all matrices
    for the 'general' one.
  * t1_kf / t1_kv use logarithmic vector fields of a target function f,
    computed as syzygies and pulled back along a map.  A family is the
    section fam.as_map() of the generic det/Pf of its (kind, n), so one
    analysis path serves families and sections, and the fields of each
    target function are computed and pruned once per process.

The identity checkers at the bottom re-derive the relations between these
numbers (difference formulas against Milnor numbers, Betti number
symmetries, closed forms for diagonal families) and report HOLDS, FAILS or
NOT-APPLICABLE with both sides stored, never silently skipping a failed
hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Union

from .complexes import (FreeComplex, cone, homology_dimension,
                        homology_profile, kind_complex, koszul, phi_f,
                        pullback)
from .groebner import (GLOBAL, INFINITE, LOCAL, ModuleBasis,
                       _leads_divided_by, prune_generators,
                       quotient_dimension, step_limit, syzygies)
from .matalg import (MatrixFamily, PolyMatrix, flatten, generic_family,
                     gl_basis, sl_basis, space_dim)
from .poly import Poly, SubstitutionMap, partial, substitute

Dim = Union[int, type(INFINITE)]

M0 = {"symmetric": 3, "general": 4, "skew": 6}

IDENTITIES = ("eqeq", "betas", "imax", "submax", "gorenstein", "ck",
              "gorp", "diag")

VERDICTS = ("HOLDS", "FAILS", "NOT-APPLICABLE")


def _finite(x) -> bool:
    return isinstance(x, int)


def milnor_number(g: Poly):
    """dim O/(dg/dx_1, ..., dg/dx_m) at the origin; INFINITE if the
    singular locus has positive dimension.  g must vanish at 0."""
    if g.constant_term() != 0:
        raise ValueError("function does not vanish at the origin")
    gens = [(partial(g, i),) for i in range(g.nvars)]
    return quotient_dimension(ModuleBasis(1, gens, LOCAL))


def tjurina_number_function(g: Poly):
    """dim O/(g, dg/dx_1, ..., dg/dx_m) at the origin."""
    if g.constant_term() != 0:
        raise ValueError("function does not vanish at the origin")
    gens = [(g,)] + [(partial(g, i),) for i in range(g.nvars)]
    return quotient_dimension(ModuleBasis(1, gens, LOCAL))


# -- logarithmic vector fields -------------------------------------------------

# Log fields of each target function, built once per process and keyed by
# (flavour, f, step_limit()).  Every family of one (kind, n) has the same
# target, the generic det/Pf, so its fields are shared by all of them.  The
# budget is part of the key so that a result does not depend on what ran
# earlier: a hit never skips a StepLimitExceeded the budget would raise.
_LOG_FIELDS: dict = {}


def _syzygy_fields(row: list, n: int) -> ModuleBasis:
    """First n components of the syzygies of a row of polynomials in n
    variables, pruned to a generating set of the same module."""
    z = syzygies(PolyMatrix([row], n), GLOBAL)
    vecs = [z.column(j)[:n] for j in range(z.cols)]
    return prune_generators(ModuleBasis(n, vecs, GLOBAL))


def der_log_f(f: Poly) -> ModuleBasis:
    """Vector fields annihilating f: generators of the syzygies of the row
    (df/dx_1, ..., df/dx_N), pruned to a generating set of the same module.
    Computed over the polynomial ring; since localization is flat, the same
    vectors generate over the local ring."""
    key = ("f", f, step_limit())
    if key not in _LOG_FIELDS:
        _LOG_FIELDS[key] = _syzygy_fields(
            [partial(f, i) for i in range(f.nvars)], f.nvars)
    return _LOG_FIELDS[key]


def der_log_V(f: Poly) -> ModuleBasis:
    """Vector fields tangent to the zero set of f, i.e. eta(f) in (f),
    as a pruned generating set.

    For homogeneous f of degree d > 0 no second syzygy computation is
    needed: if eta(f) = a*f then eta - (a/d)*E annihilates f, where E is
    the Euler field, so Der(-log V) = Der(-log f) + O*E.  Otherwise the
    fields are the first N components of the syzygies of
    (df/dx_1, ..., df/dx_N, f)."""
    key = ("V", f, step_limit())
    if key not in _LOG_FIELDS:
        n = f.nvars
        if f.total_degree() > 0 and len({sum(e) for e in f.terms}) == 1:
            euler = tuple(Poly.variable(n, i) for i in range(n))
            got = ModuleBasis(n, der_log_f(f).generators + [euler], GLOBAL)
        else:
            got = _syzygy_fields([partial(f, i) for i in range(n)] + [f], n)
        _LOG_FIELDS[key] = got
    return _LOG_FIELDS[key]


def pulled_field_module(fmap: SubstitutionMap,
                        fields: ModuleBasis) -> ModuleBasis:
    """Jacobian columns of the section fmap plus the fields pulled back
    along it: the tangent space of the equivalence the fields generate."""
    n = fmap.target_nvars
    if fields.ambient_rank != n:
        raise ValueError("map target does not match the ring of the fields")
    gens = [fmap.jacobian_column(j) for j in range(fmap.source_nvars)]
    gens += [tuple(substitute(p, fmap) for p in v) for v in fields.generators]
    return ModuleBasis._of(n, gens, LOCAL)


def t1_kf(f: Poly, fmap: SubstitutionMap):
    """dim of O^N / (jacobian columns of the map + pulled-back fields
    annihilating f): the normal space to the equivalence preserving f."""
    return quotient_dimension(pulled_field_module(fmap, der_log_f(f)))


def t1_kv(f: Poly, fmap: SubstitutionMap):
    """Same with fields tangent to {f = 0}: the normal space to the
    equivalence preserving the zero set only."""
    return quotient_dimension(pulled_field_module(fmap, der_log_V(f)))


# -- tangent spaces of matrix families -----------------------------------------

def _lie_images(fam: MatrixFamily, flavour: str) -> list:
    """Flattened images of the Lie-algebra action on the family matrix."""
    if flavour not in ("special", "general"):
        raise ValueError(f"unknown flavour {flavour!r}")
    n, nv = fam.n, fam.m
    basis = sl_basis(n, nv) if flavour == "special" else gl_basis(n, nv)
    s = fam.entries
    out = []
    if fam.kind == "general":
        for a in basis:
            out.append(tuple(flatten("general", a @ s)))
        for b in basis:
            out.append(tuple(flatten("general", s @ b)))
    else:
        for a in basis:
            out.append(tuple(flatten(fam.kind, a.transpose() @ s + s @ a)))
    return out


def tau_matrix(fam: MatrixFamily, flavour: str = "special"):
    """Codimension of the tangent space to the group orbit of the family.

    flavour 'special': trace-free congruence (symmetric/skew) or pairs of
    trace-free left/right factors (general); this preserves det/Pf exactly.
    flavour 'general': full gl action; this preserves only the zero set.
    """
    return quotient_dimension(tangent_module(fam, flavour))


def tangent_module(fam: MatrixFamily, flavour: str) -> ModuleBasis:
    """The tangent space itself, as a module basis."""
    gens = [tuple(flatten(fam.kind, fam.partial(i))) for i in range(fam.m)]
    gens += _lie_images(fam, flavour)
    return ModuleBasis._of(space_dim(fam.kind, fam.n), gens, LOCAL)


def betti_numbers(fam: MatrixFamily) -> list:
    """Homology dimensions of the kind-appropriate complex of the family,
    in degrees 0..length."""
    return homology_profile(kind_complex(fam))


def corank_at_origin(fam: MatrixFamily) -> int:
    """n minus the rank of the family matrix evaluated at 0."""
    rows = [[fam.entries.entries[i][j].constant_term() for j in range(fam.n)]
            for i in range(fam.n)]
    rank = 0
    cols = list(range(fam.n))
    for _ in range(fam.n):
        piv = None
        for i in range(rank, fam.n):
            for j in cols:
                if rows[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        rows[rank], rows[i0] = rows[i0], rows[rank]
        for i in range(fam.n):
            if i != rank and rows[i][j0] != 0:
                c = rows[i][j0] / rows[rank][j0]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        cols.remove(j0)
        rank += 1
    return fam.n - rank


# -- reports -------------------------------------------------------------------

@dataclass
class CheckRecord:
    """One verified identity: both sides are stored even when the verdict
    is NOT-APPLICABLE, so a failed hypothesis leaves an audit trail."""

    identity: str
    lhs: object
    rhs: object
    verdict: str
    note: str = ""

    def to_dict(self) -> dict:
        return {"identity": self.identity, "lhs": _jsonable(self.lhs),
                "rhs": _jsonable(self.rhs), "verdict": self.verdict,
                "note": self.note}


@dataclass
class InvariantReport:
    """All invariants of one family or section, plus identity checks.

    tau_matrix_special / tau_matrix_general are None for sections (there
    is no matrix structure); every dimension may be INFINITE.
    """

    name: str
    kind: str
    n: Optional[int]
    m: int
    mu: object
    tau_function_right: object
    tau_function_contact: object
    tau_matrix_special: object
    tau_matrix_general: object
    betti: list
    codim_minors: object
    m0: Optional[int]
    checks: List[CheckRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "mu": _jsonable(self.mu),
            "tau_function_right": _jsonable(self.tau_function_right),
            "tau_function_contact": _jsonable(self.tau_function_contact),
            "tau_matrix_special": _jsonable(self.tau_matrix_special),
            "tau_matrix_general": _jsonable(self.tau_matrix_general),
            "betti": _jsonable(self.betti),
            "codim_minors": _jsonable(self.codim_minors),
            "m0": self.m0,
            "checks": [c.to_dict() for c in self.checks],
        }


def _jsonable(v):
    if v is INFINITE:
        return "infinite"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    return v


# -- analysis context ------------------------------------------------------------

class _Analysis:
    """Shared lazy computations for one subject, reduced to one target: the
    function f composed with the map fmap.

    A matrix family is the section fam.as_map() of the generic det/Pf of its
    (kind, n); fam is kept only for the matrix-only extras (tau_matrix, its
    own kind complex, eqeq and diag).
    """

    def __init__(self, subject, name: str = ""):
        self.name = name
        if isinstance(subject, MatrixFamily):
            self.fam = subject
            self.kind = subject.kind
            self.n = subject.n
            self.m = subject.m
            self.m0 = M0[subject.kind]
        else:
            f, fmap = subject
            if not isinstance(f, Poly) or not isinstance(fmap, SubstitutionMap):
                raise TypeError("expected a MatrixFamily or a (Poly, "
                                "SubstitutionMap) pair")
            self.fam = None
            self.kind = "section"
            self.n = None
            self.m = fmap.source_nvars
            self.m0 = f.nvars
            # These shadow the lazy target of a family below.
            self.f = f
            self.fmap = fmap

    # shared quantities

    @cached_property
    def f(self) -> Poly:
        """The target function of a family: the generic det/Pf of its
        (kind, n).  Built only when needed, since odd-size skew families
        have none but still answer the checks that do not use it."""
        return generic_family(self.kind, self.n).function()

    @cached_property
    def fmap(self) -> SubstitutionMap:
        """A family as a map to matrix space; a 1x1 skew family has none."""
        return self.fam.as_map()

    @cached_property
    def g(self) -> Poly:
        """The composed scalar function whose singularity is studied."""
        return substitute(self.f, self.fmap)

    @cached_property
    def mu(self):
        return milnor_number(self.g)

    @cached_property
    def target_isolated(self) -> bool:
        """Whether f has an isolated singularity at 0: always for the
        generic det/Pf of a family, and for a section when mu(f) is finite."""
        return self.fam is not None or _finite(milnor_number(self.f))

    @cached_property
    def pulled_f(self) -> ModuleBasis:
        """Jacobian columns plus the pulled-back fields annihilating f."""
        return pulled_field_module(self.fmap, der_log_f(self.f))

    @cached_property
    def pulled_V(self) -> ModuleBasis:
        """Jacobian columns plus the pulled-back fields tangent to {f = 0}."""
        return pulled_field_module(self.fmap, der_log_V(self.f))

    @cached_property
    def tau_kf(self):
        return quotient_dimension(self.pulled_f)

    @cached_property
    def tau_kv(self):
        return quotient_dimension(self.pulled_V)

    @cached_property
    def tangent_special(self) -> ModuleBasis:
        """Tangent space of the trace-free action (families only)."""
        return tangent_module(self.fam, "special")

    @cached_property
    def tangent_general(self) -> ModuleBasis:
        """Tangent space of the full gl action (families only)."""
        return tangent_module(self.fam, "general")

    @cached_property
    def tau_special(self):
        return (None if self.fam is None
                else quotient_dimension(self.tangent_special))

    @cached_property
    def tau_general(self):
        return (None if self.fam is None
                else quotient_dimension(self.tangent_general))

    @cached_property
    def codim(self):
        """Colength of the pulled-back partials of f.  For a family these
        are the submaximal minors (sub-Pfaffians) up to units."""
        gens = [(substitute(partial(self.f, i), self.fmap),)
                for i in range(self.f.nvars)]
        return quotient_dimension(ModuleBasis(1, gens, LOCAL))

    @cached_property
    def betti(self) -> list:
        """Homology of a resolution of the target pulled back along fmap.
        A family builds its kind complex from its own entries: that equals
        the pulled-back generic one and is cheaper to get."""
        if self.fam is not None:
            return betti_numbers(self.fam)
        if self.target_isolated:
            return homology_profile(pullback(koszul(self.f), self.fmap))
        pulled = pullback(function_presentation(self.f), self.fmap)
        return [homology_dimension(pulled, k) for k in (0, 1)]

    # identity checks

    def check(self, identity: str) -> CheckRecord:
        if identity not in IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}")
        return getattr(self, "_check_" + identity)()

    def all_checks(self) -> List[CheckRecord]:
        return [self.check(i) for i in IDENTITIES]

    def _na(self, identity, note, lhs=None, rhs=None) -> CheckRecord:
        return CheckRecord(identity, _jsonable(lhs), _jsonable(rhs),
                           "NOT-APPLICABLE", note)

    def _verdict(self, identity, lhs, rhs, note="") -> CheckRecord:
        verdict = "HOLDS" if lhs == rhs else "FAILS"
        return CheckRecord(identity, _jsonable(lhs), _jsonable(rhs),
                           verdict, note)

    def _check_eqeq(self) -> CheckRecord:
        if self.fam is None:
            return self._na("eqeq", "matrix families only")
        note = ("tangent space of the group action vs jacobian plus "
                "pulled-back log fields, both flavours")
        lhs = [self.tau_special, self.tau_general]
        rhs = [self.tau_kf, self.tau_kv]
        if lhs != rhs:
            return CheckRecord("eqeq", _jsonable(lhs), _jsonable(rhs),
                               "FAILS", note)
        # Dimensions agree; confirm the modules coincide.  A and B lie in
        # A + B, so a standard basis of A + B whose leading terms are all
        # divisible by leading terms of the (cached) standard bases of A
        # and of B proves A + B = A and A + B = B in the local ring.  For
        # finite colengths this is the same as dim O^r/(A + B) = d; it
        # decides INFINITE sides too.  A + B is completed from scratch:
        # seeding it with the basis of A or B was slower.
        for a, b in ((self.tangent_special, self.pulled_f),
                     (self.tangent_general, self.pulled_V)):
            both = ModuleBasis._of(a.ambient_rank,
                                   a.generators + b.generators, LOCAL)
            same = (_leads_divided_by(both, a)
                    and _leads_divided_by(both, b))
            if not same:
                return CheckRecord("eqeq", _jsonable(lhs), _jsonable(rhs),
                                   "FAILS", note + "; containment failed")
        return CheckRecord("eqeq", _jsonable(lhs), _jsonable(rhs), "HOLDS",
                           note + "; generators mutually contained")

    def _check_betas(self) -> CheckRecord:
        note = "tau = mu - b0 + b1"
        if not _finite(self.mu):
            return self._na("betas", "composed function is not isolated",
                            self.tau_kf, None)
        b = self.betti
        if len(b) < 2 or not (_finite(b[0]) and _finite(b[1])):
            return self._na("betas", "b0 or b1 not finite", self.tau_kf, b[:2])
        rhs = self.mu - b[0] + b[1]
        return self._verdict("betas", self.tau_kf, rhs, note)

    def _check_imax(self) -> CheckRecord:
        note = "tau = mu - dim O/(pulled jacobian ideal), max parameter count"
        rhs = (self.mu - self.codim
               if _finite(self.mu) and _finite(self.codim) else None)
        if self.m != self.m0:
            return self._na("imax", f"m = {self.m} differs from m0 = {self.m0}",
                            self.tau_kf, rhs)
        if not self.target_isolated:
            return self._na(
                "imax",
                "target function is not isolated, so its jacobian quotient "
                "is not Cohen-Macaulay of the expected codimension",
                self.tau_kf, rhs)
        if not _finite(self.mu):
            return self._na("imax", "composed function is not isolated",
                            self.tau_kf, rhs)
        if not _finite(self.codim):
            return self._na("imax", "pulled jacobian ideal has infinite "
                            "colength", self.tau_kf, rhs)
        return self._verdict("imax", self.tau_kf, rhs, note)

    def _check_submax(self) -> CheckRecord:
        note = "tau = mu, one parameter below the maximum"
        if self.m != self.m0 - 1:
            return self._na("submax",
                            f"m = {self.m} differs from m0 - 1 = {self.m0 - 1}",
                            self.tau_kf, self.mu)
        if not self.target_isolated:
            return self._na("submax", "target function is not isolated",
                            self.tau_kf, self.mu)
        if not _finite(self.mu):
            return self._na("submax", "composed function is not isolated",
                            self.tau_kf, self.mu)
        return self._verdict("submax", self.tau_kf, self.mu, note)

    def _check_gorenstein(self) -> CheckRecord:
        note = "tau = mu + dim O/(pulled jacobian ideal), Gorenstein case"
        rhs = (self.mu + self.codim
               if _finite(self.mu) and _finite(self.codim) else None)
        if self.kind == "symmetric":
            return self._na("gorenstein",
                            "symmetric determinantal quotients are not "
                            "Gorenstein", self.tau_kf, rhs)
        if self.m != self.m0 - 2:
            return self._na("gorenstein",
                            f"m = {self.m} differs from m0 - 2 = {self.m0 - 2}",
                            self.tau_kf, rhs)
        if not self.target_isolated:
            return self._na("gorenstein", "target function is not isolated",
                            self.tau_kf, rhs)
        if not _finite(self.mu) or not _finite(self.codim):
            return self._na("gorenstein", "mu or the jacobian colength is "
                            "infinite", self.tau_kf, rhs)
        return self._verdict("gorenstein", self.tau_kf, rhs, note)

    def _check_ck(self) -> CheckRecord:
        if self.fam is not None:
            return self._na("ck", "sections of a hypersurface only")
        if not self.target_isolated:
            return self._na("ck", "target function is not isolated")
        gap = self.m0 - self.m
        if gap not in (0, 1, 2):
            return self._na("ck", f"m = {self.m} is not within 2 of n = {self.m0}")
        if not _finite(self.mu):
            return self._na("ck", "composed function is not isolated")
        b0 = self.betti[0]
        if not _finite(b0):
            return self._na("ck", "b0 is infinite")
        rhs = {0: self.mu - b0, 1: self.mu, 2: self.mu + b0}[gap]
        note = {0: "tau = mu - b0", 1: "tau = mu", 2: "tau = mu + b0"}[gap]
        return self._verdict("ck", self.tau_kf, rhs, note)

    def _check_gorp(self) -> CheckRecord:
        note = "betti numbers reflect: b_k = b_(q-k), q = m0 - m"
        if self.kind == "symmetric":
            return self._na("gorp", "symmetric determinantal quotients are "
                            "not Gorenstein")
        if not self.target_isolated:
            return self._na("gorp", "target function is not isolated")
        q = self.m0 - self.m
        if q < 0:
            return self._na("gorp", f"m = {self.m} exceeds m0 = {self.m0}")
        if not _finite(self.mu):
            return self._na("gorp", "composed function is not isolated")
        b = self.betti
        window = b[:q + 1]
        if not all(_finite(x) for x in window):
            return self._na("gorp", "low betti numbers not all finite",
                            window, list(reversed(window)))
        tail = b[q + 1:]
        lhs = window + [x for x in tail]
        rhs = list(reversed(window)) + [0] * len(tail)
        return self._verdict("gorp", lhs, rhs, note + "; higher ones vanish")

    def _check_diag(self) -> CheckRecord:
        if self.fam is None or self.kind != "symmetric" or self.m != 1:
            return self._na("diag", "one-parameter diagonal symmetric "
                            "families only")
        exps = _diagonal_exponents(self.fam)
        if exps is None:
            return self._na("diag", "matrix is not diagonal with monomial "
                            "entries")
        a = sorted(exps)
        n = self.fam.n
        if sum(a) == 0:
            return self._na("diag", "family is a unit, no singularity")
        tau_formula = sum((n - i) * a[i] for i in range(n)) - 1
        mu_formula = sum(a) - 1
        b0_formula = sum(a[:n - 1])
        lhs = [self.tau_special, self.mu, self.betti[0]]
        rhs = [tau_formula, mu_formula, b0_formula]
        corank = corank_at_origin(self.fam)
        extra_ok = (self.tau_special == self.mu + self.betti[0]) \
            == (corank <= 2)
        note = (f"closed forms for diagonal families; corank {corank}, "
                "tau = mu + b0 exactly when corank <= 2")
        if lhs == rhs and extra_ok:
            return CheckRecord("diag", _jsonable(lhs), _jsonable(rhs),
                               "HOLDS", note)
        return CheckRecord("diag", _jsonable(lhs), _jsonable(rhs),
                           "FAILS", note)


def _diagonal_exponents(fam: MatrixFamily) -> Optional[list]:
    """Exponents a_i when the family is diag(x^a_1, ..., x^a_n), else None."""
    exps = []
    for i in range(fam.n):
        for j in range(fam.n):
            p = fam.entries.entries[i][j]
            if i != j:
                if not p.is_zero():
                    return None
                continue
            if len(p.terms) != 1:
                return None
            (exp, coeff), = p.terms.items()
            if coeff != 1:
                return None
            exps.append(exp[0])
    return exps


def function_presentation(f: Poly) -> FreeComplex:
    """The two-step complex O^s -> O^N -> O with d1 the row of partials of
    f and d2 their syzygy matrix; H_0 is the jacobian algebra, H_1 = 0.
    Used in place of the Koszul complex when f is not isolated."""
    n = f.nvars
    d1 = PolyMatrix([[partial(f, i) for i in range(n)]], n)
    d2 = syzygies(d1, GLOBAL)
    return FreeComplex((1, n, d2.cols), (d1, d2), n)


def verify_identity(subject, identity: str) -> CheckRecord:
    """Check one named identity for a family or a (f, map) section pair."""
    return _Analysis(subject).check(identity)


def analyze(subject, name: str = "") -> InvariantReport:
    """Compute every invariant and run every identity check."""
    ctx = _Analysis(subject, name=name)
    if ctx.g.constant_term() != 0:
        raise ValueError("det/Pf (or the composed function) does not vanish "
                         "at the origin; not a singularity germ")
    return InvariantReport(
        name=name,
        kind=ctx.kind,
        n=ctx.n,
        m=ctx.m,
        mu=ctx.mu,
        tau_function_right=ctx.tau_kf,
        tau_function_contact=ctx.tau_kv,
        tau_matrix_special=ctx.tau_special,
        tau_matrix_general=ctx.tau_general,
        betti=list(ctx.betti),
        codim_minors=ctx.codim,
        m0=ctx.m0,
        checks=ctx.all_checks(),
    )


def tau_homological(fam: MatrixFamily):
    """Third route to tau: H_1 of the cone over the comparison map from the
    Koszul complex of det/Pf into the family's resolution."""
    g = fam.function()
    l = kind_complex(fam)
    phi = phi_f(g, fam.as_map(), l, fam.kind)
    c = cone(phi, min(2, l.length))
    return homology_dimension(c, 1)
