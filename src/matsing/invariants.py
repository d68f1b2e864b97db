"""Numerical invariants of matrix families and hypersurface sections.

Everything is a vector-space dimension over the local ring at the origin,
computed exactly from standard bases.  The same quantity is deliberately
reachable along independent routes:

  * tau_matrix uses the Lie-algebra tangent spaces (congruence action for
    symmetric/skew families, two-sided multiplication for general ones),
    with trace-free matrices for the 'special' flavour and all matrices
    for the 'general' one.
  * t1_kf / t1_kv use logarithmic vector fields of the generic determinant
    or pfaffian, computed as syzygies, pulled back along the family.  A
    family is the section fam.as_map() of the generic det/Pf, whose fields
    are computed and pruned once per (kind, n).

The identity checkers at the bottom re-derive the relations between these
numbers (difference formulas against Milnor numbers, Betti number
symmetries, closed forms for diagonal families) and report HOLDS, FAILS or
NOT-APPLICABLE with both sides stored, never silently skipping a failed
hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .complexes import (FreeComplex, cone, homology_dimension,
                        homology_profile, kind_complex, koszul, phi_f,
                        pullback)
from .groebner import (GLOBAL, INFINITE, LOCAL, ModuleBasis, member,
                       prune_generators, quotient_dimension, syzygies)
from .matalg import (MatrixFamily, PolyMatrix, flatten, generic_family,
                     gl_basis, minors_ideal, sl_basis, space_dim)
from .poly import Poly, SubstitutionMap, partial, substitute

Dim = Union[int, type(INFINITE)]

M0 = {"symmetric": 3, "general": 4, "skew": 6}

IDENTITIES = ("eqeq", "betas", "imax", "submax", "gorenstein", "ck",
              "gorp", "diag")

VERDICTS = ("HOLDS", "FAILS", "NOT-APPLICABLE")


def _finite(x) -> bool:
    return isinstance(x, int)


def milnor_number(g: Poly, max_steps: Optional[int] = None):
    """dim O/(dg/dx_1, ..., dg/dx_m) at the origin; INFINITE if the
    singular locus has positive dimension.  g must vanish at 0."""
    if g.constant_term() != 0:
        raise ValueError("function does not vanish at the origin")
    gens = [(partial(g, i),) for i in range(g.nvars)]
    return quotient_dimension(ModuleBasis(1, gens, LOCAL), max_steps)


def tjurina_number_function(g: Poly, max_steps: Optional[int] = None):
    """dim O/(g, dg/dx_1, ..., dg/dx_m) at the origin."""
    if g.constant_term() != 0:
        raise ValueError("function does not vanish at the origin")
    gens = [(g,)] + [(partial(g, i),) for i in range(g.nvars)]
    return quotient_dimension(ModuleBasis(1, gens, LOCAL), max_steps)


# -- logarithmic vector fields -------------------------------------------------

def der_log_f(f: Poly, max_steps: Optional[int] = None) -> ModuleBasis:
    """Vector fields annihilating f: generators of the syzygies of the row
    (df/dx_1, ..., df/dx_N), pruned to a generating set of the same module.
    Computed over the polynomial ring; since localization is flat, the same
    vectors generate over the local ring."""
    n = f.nvars
    row = PolyMatrix([[partial(f, i) for i in range(n)]], n)
    z = syzygies(row, GLOBAL, max_steps)
    return prune_generators(
        ModuleBasis(n, [z.column(j) for j in range(z.cols)], GLOBAL), max_steps)


def der_log_V(f: Poly, max_steps: Optional[int] = None) -> ModuleBasis:
    """Vector fields tangent to the zero set of f, i.e. eta(f) in (f):
    first N components of the syzygies of (df/dx_1, ..., df/dx_N, f),
    pruned to a generating set of the same module."""
    n = f.nvars
    row = PolyMatrix([[partial(f, i) for i in range(n)] + [f]], n)
    z = syzygies(row, GLOBAL, max_steps)
    vecs = [z.column(j)[:n] for j in range(z.cols)]
    return prune_generators(ModuleBasis(n, vecs, GLOBAL), max_steps)


def pulled_field_module(fmap: SubstitutionMap,
                        fields: ModuleBasis) -> ModuleBasis:
    """Jacobian columns of the section fmap plus the fields pulled back
    along it: the tangent space of the equivalence the fields generate."""
    n = fmap.target_nvars
    if fields.ambient_rank != n:
        raise ValueError("map target does not match the ring of the fields")
    gens = [fmap.jacobian_column(j) for j in range(fmap.source_nvars)]
    gens += [tuple(substitute(p, fmap) for p in v) for v in fields.generators]
    return ModuleBasis(n, gens, LOCAL)


def t1_kf(f: Poly, fmap: SubstitutionMap, max_steps: Optional[int] = None):
    """dim of O^N / (jacobian columns of the map + pulled-back fields
    annihilating f): the normal space to the equivalence preserving f."""
    return quotient_dimension(
        pulled_field_module(fmap, der_log_f(f, max_steps)), max_steps)


def t1_kv(f: Poly, fmap: SubstitutionMap, max_steps: Optional[int] = None):
    """Same with fields tangent to {f = 0}: the normal space to the
    equivalence preserving the zero set only."""
    return quotient_dimension(
        pulled_field_module(fmap, der_log_V(f, max_steps)), max_steps)


_DERLOG_CACHE: dict = {}


def _derlog_generic(kind: str, n: int, flavour: str) -> ModuleBasis:
    """Log fields of the generic det/Pf of (kind, n), built once per process.

    The V flavour needs no second syzygy computation: det/Pf is homogeneous
    of degree d, so if eta(f) = a*f then eta - (a/d)*E annihilates f, where
    E is the Euler field.  Hence Der(-log V) = Der(-log f) + O*E.
    """
    key = (kind, n, flavour)
    got = _DERLOG_CACHE.get(key)
    if got is None:
        if flavour == "f":
            got = der_log_f(generic_family(kind, n).function())
        else:
            fields = _derlog_generic(kind, n, "f")
            nv = fields.ambient_rank
            euler = tuple(Poly.variable(nv, i) for i in range(nv))
            got = ModuleBasis(nv, fields.generators + [euler], GLOBAL)
        _DERLOG_CACHE[key] = got
    return got


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


def tau_matrix(fam: MatrixFamily, flavour: str = "special",
               max_steps: Optional[int] = None):
    """Codimension of the tangent space to the group orbit of the family.

    flavour 'special': trace-free congruence (symmetric/skew) or pairs of
    trace-free left/right factors (general); this preserves det/Pf exactly.
    flavour 'general': full gl action; this preserves only the zero set.
    """
    return quotient_dimension(tangent_module(fam, flavour), max_steps)


def tangent_module(fam: MatrixFamily, flavour: str) -> ModuleBasis:
    """The tangent space itself, as a module basis."""
    gens = [tuple(flatten(fam.kind, fam.partial(i))) for i in range(fam.m)]
    gens += _lie_images(fam, flavour)
    return ModuleBasis(space_dim(fam.kind, fam.n), gens, LOCAL)


def betti_numbers(fam: MatrixFamily, max_steps: Optional[int] = None) -> list:
    """Homology dimensions of the kind-appropriate complex of the family,
    in degrees 0..length."""
    return homology_profile(kind_complex(fam), LOCAL, max_steps)


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
    """Shared lazy computations for one subject (family or section)."""

    def __init__(self, subject, name: str = "", max_steps: Optional[int] = None):
        self.max_steps = max_steps
        self.name = name
        if isinstance(subject, MatrixFamily):
            self.fam = subject
            self.section = None
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
            self.section = (f, fmap)
            self.kind = "section"
            self.n = None
            self.m = fmap.source_nvars
            self.m0 = f.nvars
        self._cache: dict = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # shared quantities

    @property
    def g(self) -> Poly:
        """The composed scalar function whose singularity is studied."""
        if self.fam is not None:
            return self._get("g", self.fam.function)
        f, fmap = self.section
        return self._get("g", lambda: substitute(f, fmap))

    @property
    def mu(self):
        return self._get("mu", lambda: milnor_number(self.g, self.max_steps))

    @property
    def mu_target(self):
        """Milnor number of the target function (generic det/Pf is always
        singular only at 0 in matrix space for n >= 2; for sections this is
        the Milnor number of f itself, INFINITE when f is not isolated)."""
        if self.fam is not None:
            f = generic_family(self.kind, self.n).function()
        else:
            f = self.section[0]
        return self._get("mu_target",
                         lambda: milnor_number(f, self.max_steps))

    def pulled_fields(self, flavour: str) -> ModuleBasis:
        """Jacobian columns plus pulled-back log fields of the target
        function, flavour 'f' (annihilating) or 'V' (tangent to the zero
        set).  A family is the section fam.as_map() of the generic det/Pf,
        whose fields are built once per (kind, n)."""
        def compute():
            if self.fam is not None:
                fmap = self.fam.as_map()
                fields = _derlog_generic(self.kind, self.n, flavour)
            else:
                f, fmap = self.section
                derlog = der_log_f if flavour == "f" else der_log_V
                fields = derlog(f, self.max_steps)
            return pulled_field_module(fmap, fields)
        return self._get(("pulled", flavour), compute)

    @property
    def tau_kf(self):
        return self._get("tau_kf", lambda: quotient_dimension(
            self.pulled_fields("f"), self.max_steps))

    @property
    def tau_kv(self):
        return self._get("tau_kv", lambda: quotient_dimension(
            self.pulled_fields("V"), self.max_steps))

    @property
    def tau_special(self):
        if self.fam is None:
            return None
        return self._get("tau_special",
                         lambda: tau_matrix(self.fam, "special", self.max_steps))

    @property
    def tau_general(self):
        if self.fam is None:
            return None
        return self._get("tau_general",
                         lambda: tau_matrix(self.fam, "general", self.max_steps))

    @property
    def codim(self):
        def compute():
            if self.fam is not None:
                size = self.n - 2 if self.kind == "skew" else self.n - 1
                return quotient_dimension(minors_ideal(self.fam, size),
                                          self.max_steps)
            f, fmap = self.section
            gens = [(substitute(partial(f, i), fmap),)
                    for i in range(f.nvars)]
            return quotient_dimension(ModuleBasis(1, gens, LOCAL),
                                      self.max_steps)
        return self._get("codim", compute)

    @property
    def betti(self) -> list:
        def compute():
            if self.fam is not None:
                return betti_numbers(self.fam, self.max_steps)
            f, fmap = self.section
            if _finite(self.mu_target):
                return homology_profile(pullback(koszul(f), fmap), LOCAL,
                                        self.max_steps)
            pres = function_presentation(f, self.max_steps)
            pulled = pullback(pres, fmap)
            return [homology_dimension(pulled, 0, LOCAL, self.max_steps),
                    homology_dimension(pulled, 1, LOCAL, self.max_steps)]
        return self._get("betti", compute)

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
        # Dimensions agree; confirm the modules coincide by mutual
        # membership of generators.
        for flavour, fields in (("special", "f"), ("general", "V")):
            a = tangent_module(self.fam, flavour)
            b = self.pulled_fields(fields)
            for v in a.generators:
                if not member(v, b, self.max_steps).contains:
                    return CheckRecord("eqeq", _jsonable(lhs), _jsonable(rhs),
                                       "FAILS", note + "; containment failed")
            for v in b.generators:
                if not member(v, a, self.max_steps).contains:
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
        if self.fam is None and not _finite(self.mu_target):
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
        if self.fam is None and not _finite(self.mu_target):
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
        if self.fam is None and not _finite(self.mu_target):
            return self._na("gorenstein", "target function is not isolated",
                            self.tau_kf, rhs)
        if not _finite(self.mu) or not _finite(self.codim):
            return self._na("gorenstein", "mu or the jacobian colength is "
                            "infinite", self.tau_kf, rhs)
        return self._verdict("gorenstein", self.tau_kf, rhs, note)

    def _check_ck(self) -> CheckRecord:
        if self.fam is not None:
            return self._na("ck", "sections of a hypersurface only")
        if not _finite(self.mu_target):
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
        if self.fam is None and not _finite(self.mu_target):
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


def function_presentation(f: Poly, max_steps: Optional[int] = None) -> FreeComplex:
    """The two-step complex O^s -> O^N -> O with d1 the row of partials of
    f and d2 their syzygy matrix; H_0 is the jacobian algebra, H_1 = 0.
    Used in place of the Koszul complex when f is not isolated."""
    n = f.nvars
    d1 = PolyMatrix([[partial(f, i) for i in range(n)]], n)
    d2 = syzygies(d1, GLOBAL, max_steps)
    return FreeComplex((1, n, d2.cols), (d1, d2), n)


def verify_identity(subject, identity: str,
                    max_steps: Optional[int] = None) -> CheckRecord:
    """Check one named identity for a family or a (f, map) section pair."""
    ctx = _Analysis(subject, max_steps=max_steps)
    return ctx.check(identity)


def analyze(subject, name: str = "",
            max_steps: Optional[int] = None) -> InvariantReport:
    """Compute every invariant and run every identity check."""
    ctx = _Analysis(subject, name=name, max_steps=max_steps)
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


def tau_homological(fam: MatrixFamily, max_steps: Optional[int] = None):
    """Third route to tau: H_1 of the cone over the comparison map from the
    Koszul complex of det/Pf into the family's resolution."""
    g = fam.function()
    l = kind_complex(fam)
    phi = phi_f(g, fam.as_map(), l, fam.kind)
    c = cone(phi, min(2, l.length))
    return homology_dimension(c, 1, LOCAL, max_steps)
