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
    target function are computed once per process.

In one analysis each 'general' module is its 'special' one plus one vector
(S, or the map as the pulled-back Euler field), and its standard basis
resumes the completion of the special one (see _Analysis).

The identity checks at the bottom re-derive the relations between these
numbers (tau = mu + (q - 1)*b0 at m = m0 - q, Betti number symmetries,
closed forms for diagonal families) and report HOLDS, FAILS or
NOT-APPLICABLE with both sides stored, never silently skipping a failed
hypothesis.
"""

from __future__ import annotations

from functools import cache, cached_property
from fractions import Fraction
from typing import List, Optional

from .complexes import (FreeComplex, homology_dimension, kind_complex, koszul,
                        pullback)
from .groebner import (GLOBAL, INFINITE, LOCAL, ModuleBasis,
                       _contained, _extended, _leads_divided_by,
                       quotient_dimension, step_limit, syzygies)
from .matalg import (MatrixFamily, PolyMatrix, _lie_images, flatten,
                     generic_family, space_dim)
from .poly import Poly, SubstitutionMap, _Record, partial, substitute

M0 = {"symmetric": 3, "general": 4, "skew": 6}

IDENTITIES = ("eqeq", "betas", "imax", "submax", "gorenstein", "ck",
              "gorp", "diag")


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

def _syzygy_fields(row: list, n: int) -> ModuleBasis:
    """First n components of the syzygies of a row of polynomials in n
    variables, as syzygies returns them: a Schreyer generating set, not
    necessarily minimal."""
    z = syzygies(PolyMatrix([row], n))
    return ModuleBasis(n, [z.column(j)[:n] for j in range(z.cols)], GLOBAL)


@cache
def _log_fields(flavour: str, f: Poly, limit: int) -> ModuleBasis:
    """der_log_f(f) ('f') or der_log_V(f) ('V'), built once per process and
    shared by every family of one (kind, n), whose target is the same
    generic det/Pf.  limit, the step_limit() in force, is in the key so that
    a result does not depend on what ran earlier: a hit never skips a
    StepLimitExceeded the budget would raise (a raising call caches none)."""
    n = f.nvars
    if flavour == "V" and _homogeneous(f):
        euler = tuple(Poly.variable(n, i) for i in range(n))
        return ModuleBasis(n, der_log_f(f).generators + [euler], GLOBAL)
    row = [partial(f, i) for i in range(n)]
    return _syzygy_fields(row if flavour == "f" else row + [f], n)


def der_log_f(f: Poly) -> ModuleBasis:
    """Vector fields annihilating f: the generators that syzygies gives
    for the row (df/dx_1, ..., df/dx_N), in its order.  Computed over the
    polynomial ring; since localization is flat, the same vectors generate
    over the local ring."""
    return _log_fields("f", f, step_limit())


def der_log_V(f: Poly) -> ModuleBasis:
    """Vector fields tangent to the zero set of f, i.e. eta(f) in (f),
    as a generating set.

    For homogeneous f of degree d > 0 no second syzygy computation is
    needed: if eta(f) = a*f then eta - (a/d)*E annihilates f, where E is
    the Euler field, so Der(-log V) = Der(-log f) + O*E.  Otherwise the
    fields are the first N components of the syzygies of
    (df/dx_1, ..., df/dx_N, f)."""
    return _log_fields("V", f, step_limit())


def _homogeneous(f: Poly) -> bool:  # der_log_V(f) takes the Euler route
    return f.total_degree() > 0 and len({sum(e) for e in f.terms}) == 1


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
    gens += _lie_images(fam.kind, fam.entries, flavour)
    return ModuleBasis._of(space_dim(fam.kind, fam.n), gens, LOCAL)


def betti_numbers(fam: MatrixFamily) -> list:
    """Homology dimensions of the kind-appropriate complex of the family,
    in degrees 0..length, as analyze reports them."""
    return _Analysis(fam).betti


def corank_at_origin(fam: MatrixFamily) -> int:
    """n minus the rank of the family matrix evaluated at 0."""
    rows = [[p.constant_term() for p in r] for r in fam.entries.entries]
    rank = 0
    for j in range(fam.n):
        piv = next((i for i in range(rank, fam.n) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, fam.n):
            c = Fraction(rows[i][j], rows[rank][j])
            rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return fam.n - rank


# -- reports -------------------------------------------------------------------

class CheckRecord(_Record):
    """One verified identity: both sides are stored even when the verdict
    is NOT-APPLICABLE, so a failed hypothesis leaves an audit trail."""

    FIELDS = ("identity", "lhs", "rhs", "verdict", "note")

    def __init__(self, identity: str, lhs: object, rhs: object, verdict: str,
                 note: str = ""):
        self.identity, self.lhs, self.rhs = identity, lhs, rhs
        self.verdict, self.note = verdict, note

    def to_dict(self) -> dict:
        return {f: _jsonable(getattr(self, f)) for f in self.FIELDS}


class InvariantReport(_Record):
    """All invariants of one family or section, plus identity checks.

    tau_matrix_special / tau_matrix_general are None for sections (there
    is no matrix structure); every dimension may be INFINITE.  checks
    defaults to a fresh empty list.
    """

    FIELDS = ("name", "kind", "n", "m", "mu", "tau_function_right",
              "tau_function_contact", "tau_matrix_special",
              "tau_matrix_general", "betti", "codim_minors", "m0", "checks")

    def __init__(self, name: str, kind: str, n: Optional[int], m: int,
                 mu: object, tau_function_right: object,
                 tau_function_contact: object, tau_matrix_special: object,
                 tau_matrix_general: object, betti: list,
                 codim_minors: object, m0: Optional[int],
                 checks: Optional[List[CheckRecord]] = None):
        self.name, self.kind, self.n, self.m, self.mu = name, kind, n, m, mu
        self.tau_function_right = tau_function_right
        self.tau_function_contact = tau_function_contact
        self.tau_matrix_special = tau_matrix_special
        self.tau_matrix_general = tau_matrix_general
        self.betti, self.codim_minors, self.m0 = betti, codim_minors, m0
        self.checks = [] if checks is None else checks

    def to_dict(self) -> dict:
        out = {f: _jsonable(getattr(self, f)) for f in self.FIELDS[:-1]}
        out["checks"] = [c.to_dict() for c in self.checks]
        return out


def _jsonable(v):
    if v is INFINITE:
        return "infinite"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    return v


# -- analysis context ------------------------------------------------------------

@cache
def _generic_function(kind: str, n: int) -> Poly:
    """The generic det/Pf of (kind, n), built once per process.  An odd
    skew size has none: it raises on every call, and nothing is cached."""
    return generic_family(kind, n).function()


class _Analysis:
    """Shared lazy computations for one subject, reduced to one target: the
    function f composed with the map fmap.

    A matrix family is the section fam.as_map() of the generic det/Pf of its
    (kind, n); fam is kept only for the matrix-only extras (tau_matrix, its
    own kind complex, eqeq and diag).

    check, the one builder of a CheckRecord, applies analyze's germ rule,
    then one _check_*, which returns (verdict, lhs, rhs, note) and computes
    only what its statement reads, up to the first failed hypothesis.
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
        (kind, n).  Built only when needed: odd-size skew families have
        none, and reading it raises."""
        return _generic_function(self.kind, self.n)

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
        """Jacobian columns plus the pulled-back fields tangent to {f = 0};
        for homogeneous f, pulled_f resumed with the pulled-back Euler
        field, which is the map itself."""
        if _homogeneous(self.f):
            return _extended(self.pulled_f, [tuple(self.fmap.images)])
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
        """Tangent space of the full gl action (families only): gl = sl + QI
        and I sends S to 2S or S, so tangent_special resumed with S."""
        return _extended(self.tangent_special,
                         [tuple(flatten(self.kind, self.fam.entries))])

    @cached_property
    def tau_special(self):
        return (None if self.fam is None
                else quotient_dimension(self.tangent_special))

    @cached_property
    def tau_general(self):
        return (None if self.fam is None
                else quotient_dimension(self.tangent_general))

    @cached_property
    def complex(self) -> FreeComplex:
        """A resolution of the target pulled back along fmap, built once:
        a family's own kind complex, which equals the pulled-back generic
        one and is cheaper to get; for a section the pulled-back Koszul
        complex of the partials of f, or their presentation when f is not
        isolated.  Either way d_1 is the row of the pulled-back partials of
        f, up to units and signs."""
        if self.fam is not None:
            return kind_complex(self.fam)
        if self.target_isolated:
            return pullback(koszul(self.f), self.fmap)
        return pullback(function_presentation(self.f), self.fmap)

    @cached_property
    def codim(self):
        """Colength of the pulled-back partials of f: H_0 of the complex,
        O modulo the entries of d_1.  For a family these are the
        submaximal minors (sub-Pfaffians) up to units.  It stacks d_1 only,
        so a check that needs codim alone builds no higher stack."""
        return homology_dimension(self.complex, 0)

    @cached_property
    def betti(self) -> list:
        """Homology of the complex in degrees 0..length, or 0 and 1 for the
        presentation of a non-isolated target; H_0 is codim."""
        c = self.complex
        top = c.length if self.fam is not None or self.target_isolated else 1
        return [self.codim] + [homology_dimension(c, k)
                               for k in range(1, top + 1)]

    # identity checks: each _check_* returns (verdict, lhs, rhs, note)

    def check(self, identity: str) -> CheckRecord:
        if identity not in IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}; one of: "
                             + ", ".join(IDENTITIES))
        self._require_germ()
        verdict, lhs, rhs, note = getattr(self, "_check_" + identity)()
        return CheckRecord(identity, _jsonable(lhs), _jsonable(rhs), verdict,
                           note)

    def all_checks(self) -> List[CheckRecord]:
        return [self.check(i) for i in IDENTITIES]

    def _require_germ(self) -> None:
        """Raise ValueError unless g vanishes at 0.  An odd-size skew family
        has no Pf, hence no g: reading g raises, for analyze and every
        identity alike."""
        if self.g.constant_term() != 0:
            raise ValueError("det/Pf (or the composed function) does not "
                             "vanish at the origin; not a singularity germ")

    def _rhs(self, q: int):
        """mu + (q - 1)*b0, b0 = codim: tau at m = m0 - q.  At q = 1 it is
        mu and reads no codim; else None when mu is infinite.  A finite mu
        bounds b0: the partials of g lie in the ideal of the pulled-back
        partials of f (chain rule), so b0 <= mu."""
        if q == 1:
            return self.mu
        if _finite(self.mu):
            return self.mu + (q - 1) * self.codim
        return None

    def _parameters(self, q: int) -> Optional[str]:
        """The note of a failed hypothesis m = m0 - q, None when it holds."""
        if self.m == self.m0 - q:
            return None
        m0 = "m0" if q == 0 else f"m0 - {q}"
        return f"m = {self.m} differs from {m0} = {self.m0 - q}"

    def _check_eqeq(self) -> tuple:
        if self.fam is None:
            return _na("matrix families only")
        note = ("tangent space of the group action vs jacobian plus "
                "pulled-back log fields, both flavours")
        lhs = [self.tau_special, self.tau_general]
        rhs = [self.tau_kf, self.tau_kv]
        if lhs != rhs:
            return _verdict(lhs, rhs, note)
        # Dimensions agree; confirm the modules coincide.  For a finite
        # colength d, B in A with dim O^r/A = dim O^r/B = d gives A = B,
        # and B in A is decided by division against the cached standard
        # basis of A, truncated at degree d since m^d O^r lies in A.  An
        # INFINITE side has no such bound: A and B lie in A + B, so a
        # standard basis of A + B whose leading terms are all divisible by
        # leading terms of the (cached) standard bases of A and of B
        # proves A + B = A and A + B = B in the local ring.
        for a, b, d in ((self.tangent_special, self.pulled_f, lhs[0]),
                        (self.tangent_general, self.pulled_V, lhs[1])):
            if _finite(d):
                same = _contained(b.generators, a, d)
            else:
                both = ModuleBasis._of(a.ambient_rank,
                                       a.generators + b.generators, LOCAL)
                same = (_leads_divided_by(both, a)
                        and _leads_divided_by(both, b))
            if not same:
                return _verdict(lhs, rhs, note + "; containment failed",
                                holds=False)
        return _verdict(lhs, rhs, note + "; generators mutually contained")

    def _check_betas(self) -> tuple:
        if not _finite(self.mu):
            return _na("composed function is not isolated", self.tau_kf)
        b = self.betti
        if len(b) < 2 or not (_finite(b[0]) and _finite(b[1])):
            return _na("b0 or b1 not finite", self.tau_kf, b[:2])
        return _verdict(self.tau_kf, self.mu - b[0] + b[1],
                        "tau = mu - b0 + b1")

    def _check_imax(self) -> tuple:
        rhs = self._rhs(0)
        if note := self._parameters(0):
            return _na(note, self.tau_kf, rhs)
        if not self.target_isolated:
            return _na("target function is not isolated, so its jacobian "
                       "quotient is not Cohen-Macaulay of the expected "
                       "codimension", self.tau_kf, rhs)
        if not _finite(self.mu):
            return _na("composed function is not isolated", self.tau_kf, rhs)
        return _verdict(self.tau_kf, rhs, "tau = mu - dim O/(pulled jacobian "
                        "ideal), max parameter count")

    def _check_submax(self) -> tuple:
        rhs = self._rhs(1)
        if note := self._parameters(1):
            return _na(note, self.tau_kf, rhs)
        if not self.target_isolated:
            return _na("target function is not isolated", self.tau_kf, rhs)
        if not _finite(self.mu):
            return _na("composed function is not isolated", self.tau_kf, rhs)
        return _verdict(self.tau_kf, rhs,
                        "tau = mu, one parameter below the maximum")

    def _check_gorenstein(self) -> tuple:
        rhs = self._rhs(2)
        if self.kind == "symmetric":
            return _na(_NOT_GORENSTEIN, self.tau_kf, rhs)
        if note := self._parameters(2):
            return _na(note, self.tau_kf, rhs)
        if not self.target_isolated:
            return _na("target function is not isolated", self.tau_kf, rhs)
        if rhs is None:
            return _na("mu or the jacobian colength is infinite", self.tau_kf,
                       rhs)
        return _verdict(self.tau_kf, rhs, "tau = mu + dim O/(pulled jacobian "
                        "ideal), Gorenstein case")

    def _check_ck(self) -> tuple:
        if self.fam is not None:
            return _na("sections of a hypersurface only")
        if not self.target_isolated:
            return _na("target function is not isolated")
        q = self.m0 - self.m
        if q not in (0, 1, 2):
            return _na(f"m = {self.m} is not within 2 of n = {self.m0}")
        if not _finite(self.mu):
            return _na("composed function is not isolated")
        return _verdict(self.tau_kf, self._rhs(q),
                        ("tau = mu - b0", "tau = mu", "tau = mu + b0")[q])

    def _check_gorp(self) -> tuple:
        if self.kind == "symmetric":
            return _na(_NOT_GORENSTEIN)
        if not self.target_isolated:
            return _na("target function is not isolated")
        q = self.m0 - self.m
        if q < 0:
            return _na(f"m = {self.m} exceeds m0 = {self.m0}")
        if not _finite(self.mu):
            return _na("composed function is not isolated")
        b = self.betti
        window = b[:q + 1]
        if not all(_finite(x) for x in window):
            return _na("low betti numbers not all finite", window,
                       list(reversed(window)))
        tail = b[q + 1:]
        return _verdict(window + tail, list(reversed(window)) + [0] * len(tail),
                        "betti numbers reflect: b_k = b_(q-k), q = m0 - m; "
                        "higher ones vanish")

    def _check_diag(self) -> tuple:
        if self.fam is None or self.kind != "symmetric" or self.m != 1:
            return _na("one-parameter diagonal symmetric families only")
        exps = _diagonal_exponents(self.fam)
        if exps is None:
            return _na("matrix is not diagonal with monomial entries")
        a = sorted(exps)  # not all 0: the germ rule rejects det = 1
        n = self.fam.n
        tau_formula = sum((n - i) * a[i] for i in range(n)) - 1
        mu_formula = sum(a) - 1
        b0_formula = sum(a[:n - 1])
        lhs = [self.tau_special, self.mu, self.codim]
        rhs = [tau_formula, mu_formula, b0_formula]
        corank = corank_at_origin(self.fam)
        note = (f"closed forms for diagonal families; corank {corank}, "
                "tau = mu + b0 exactly when corank <= 2")
        return _verdict(lhs, rhs, note,
                        (self.tau_special == self._rhs(2)) == (corank <= 2))


_NOT_GORENSTEIN = "symmetric determinantal quotients are not Gorenstein"


def _na(note: str, lhs=None, rhs=None) -> tuple:
    return "NOT-APPLICABLE", lhs, rhs, note


def _verdict(lhs, rhs, note: str = "", holds: bool = True) -> tuple:
    """HOLDS when the sides agree and holds is true, else FAILS."""
    return "HOLDS" if holds and lhs == rhs else "FAILS", lhs, rhs, note


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
    f and d2 their syzygy matrix, whose columns are the (cached) fields
    der_log_f(f); H_0 is the jacobian algebra, H_1 = 0.  Used in place of
    the Koszul complex when f is not isolated."""
    n = f.nvars
    d1 = PolyMatrix([[partial(f, i) for i in range(n)]], n)
    d2 = PolyMatrix.from_columns(n, der_log_f(f).generators, n)
    return FreeComplex((1, n, d2.cols), (d1, d2), n)


def verify_identity(subject, identity: str) -> CheckRecord:
    """Check one named identity for a family or a (f, map) section pair."""
    return _Analysis(subject).check(identity)


def analyze(subject, name: str = "") -> InvariantReport:
    """Compute every invariant and run every identity check."""
    ctx = _Analysis(subject, name=name)
    ctx._require_germ()
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
