"""Standard bases for submodules of free modules over polynomial rings.

Supports both global monomial orders (ordinary Groebner bases, terminating
division) and local orders (standard bases in the ring of germs at the
origin, Mora's tangent-cone division).  Everything is done degree-exactly
over the rationals; there is no numerical step anywhere.

Vectors in a free module O^r are stored flat as dicts keyed by
(component, exponent-tuple): this keeps division and s-vector code
identical for the ideal case (r = 1) and the module case.

Arithmetic inside the module is on ints.  A flat made from Polys holds
their Fractions, but division and basis normalisation clear denominators
on entry (_integral), so basis elements are kept with int coefficients of
content 1 and division runs fraction-free: instead of h - (lc/lc_g) x^s g
it forms a*h - b*x^s*g with a/b = lc_g/lc in lowest terms.  That does the
same reductions in the same order as Fraction division, with each
intermediate result scaled by a known nonzero integer, which a certificate
divides out once at the end.  Results cross back to Fraction at the Poly
boundary (unflatten_vector, Poly).

The local normal form returns a unit certificate: nf(v) = u*v - sum q_i g_i
with u a unit of the local ring (constant term 1 after scaling).  Over a
global order u is literally 1.  Membership tests therefore produce exact
polynomial identities that can be re-multiplied and checked.

Each ModuleBasis completes its standard basis once, in flat form, and
caches it (_standard): colengths count the staircase of its leading terms
straight from there, groebner_basis unflattens it (after tail reduction
under a global order), and comparing two cached lead modules decides
equality of a module and a submodule.  Under a global order groebner_basis
returns the reduced basis: monic, and no term of any element is divisible
by the leading term of another.

A step counter guards all completion and division loops.  Local-order
completion always terminates in theory, but badly posed inputs can be
astronomically slow, so the guard raises StepLimitExceeded instead of
hanging.  set_step_limit is the one way to set the budget, and it bounds
each computation separately: every completion (with the divisions inside
it) and every member() division counts its own steps against the limit, so
one analysis can take many times the limit in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Optional, Sequence, Tuple

from .poly import (ExpVec, Poly, Scalar, exp_divides, exp_lcm, exp_mul,
                   exp_sub)

Vector = Tuple[Poly, ...]
FlatKey = Tuple[int, ExpVec]  # (component, exponent)
Flat = dict


class _Infinite:
    """Sentinel for an infinite vector-space dimension."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __reduce__(self):  # keeps the singleton under pickling
        return (_Infinite, ())


INFINITE = _Infinite()


class StepLimitExceeded(RuntimeError):
    """Raised when a completion loop exceeds the configured step budget."""

    def __init__(self, steps: int):
        super().__init__(f"step limit of {steps} exceeded")
        self.steps = steps


_STEP_LIMIT = 2_000_000


def step_limit() -> int:
    """The step budget each computation currently runs under."""
    return _STEP_LIMIT


def set_step_limit(n: int) -> int:
    """Set the step budget of each computation; returns the old one."""
    global _STEP_LIMIT
    if n <= 0:
        raise ValueError("step limit must be positive")
    old = _STEP_LIMIT
    _STEP_LIMIT = n
    return old


class _Counter:
    __slots__ = ("limit", "steps")

    def __init__(self):
        self.limit = _STEP_LIMIT
        self.steps = 0

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.limit:
            raise StepLimitExceeded(self.limit)


class MonomialOrder:
    """A monomial order given by name, extended to free modules.

    kinds:
      degrevlex-global    degree first, reverse-lex tie break (well order)
      negdegrevlex-local  negative degree first; 1 is the largest monomial,
                          so leading terms detect units (local order)

    On free modules the order is position-over-term: the component index
    decides first (lower index wins), then the monomial order.

    Orders are exposed as key functions: larger key means larger monomial,
    so the leading term of a nonzero object is the max of the keys.  The
    division code finds leading terms with _leading instead, which gives
    the same answer without building a key per term.
    """

    KINDS = ("degrevlex-global", "negdegrevlex-local")

    __slots__ = ("kind",)

    def __init__(self, kind: str = "degrevlex-global"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown order kind {kind!r}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MonomialOrder is immutable")

    @property
    def is_global(self) -> bool:
        return self.kind != "negdegrevlex-local"

    def key(self, exp: ExpVec):
        if self.kind == "degrevlex-global":
            return (sum(exp),) + tuple(-e for e in reversed(exp))
        # negdegrevlex-local
        return (-sum(exp),) + tuple(-e for e in reversed(exp))

    def module_key(self, comp: int, exp: ExpVec):
        return (-comp,) + self.key(exp)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


GLOBAL = MonomialOrder("degrevlex-global")
LOCAL = MonomialOrder("negdegrevlex-local")


# -- flat vector helpers -----------------------------------------------------

def flatten_vector(vec: Sequence[Poly]) -> Flat:
    out: Flat = {}
    for comp, p in enumerate(vec):
        for exp, coeff in p.terms.items():
            out[(comp, exp)] = coeff
    return out


def unflatten_vector(flat: Flat, rank: int, nvars: int) -> Vector:
    per_comp: list[dict] = [dict() for _ in range(rank)]
    for (comp, exp), coeff in flat.items():
        per_comp[comp][exp] = Fraction(coeff)
    return tuple(Poly._of(nvars, t) for t in per_comp)


def _leading(flat: Flat, order: MonomialOrder) -> tuple[FlatKey, Scalar]:
    """The term with the largest order.module_key: the lowest component,
    then the highest total degree (lowest under the local order), then the
    reverse-lex tie break, i.e. the least reversed exponent."""
    comp = min(c for c, _ in flat)
    exps = [e for c, e in flat if c == comp]
    degs = list(map(sum, exps))
    top = max(degs) if order.is_global else min(degs)
    exp = min(e[::-1] for e, d in zip(exps, degs) if d == top)[::-1]
    return (comp, exp), flat[(comp, exp)]


def _maxdeg(flat: Flat) -> int:
    return max(sum(exp) for (_, exp) in flat)


def _scale_into(dst: Flat, src: Flat, coeff: int, shift: ExpVec) -> None:
    """dst += coeff * x^shift * src, in place."""
    for (comp, exp), c in src.items():
        k = (comp, exp_mul(exp, shift))
        s = dst.get(k)
        if s is None:
            dst[k] = coeff * c
        else:
            s = s + coeff * c
            if s:
                dst[k] = s
            else:
                del dst[k]


def _integral(flat: Flat) -> tuple[Flat, int]:
    """(den * flat, den) with den the least common denominator, so that the
    new flat has int coefficients."""
    den = lcm(*(c.denominator for c in flat.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in flat.items()}, den


class _Gen:
    """A basis element with its cached leading data; lead, if given, is
    the (leading term, leading coefficient) of flat."""

    __slots__ = ("flat", "lt", "lc", "ecart")

    def __init__(self, flat: Flat, order: MonomialOrder, lead=None):
        self.flat = flat
        self.lt, self.lc = lead or _leading(flat, order)
        self.ecart = _maxdeg(flat) - sum(self.lt[1])


def _normalized(flat: Flat, order: MonomialOrder) -> _Gen:
    """A nonzero flat with denominators cleared, divided by its content and
    its leading coefficient made positive, as a _Gen with int coefficients.
    The leading term is found once, for the sign and for the _Gen."""
    flat, _ = _integral(flat)
    lt, lc = _leading(flat, order)
    content = gcd(*flat.values())
    if lc < 0:
        content = -content
    if content != 1:
        flat = {k: c // content for k, c in flat.items()}
    return _Gen(flat, order, (lt, lc // content))


@dataclass
class ModuleBasis:
    """A generating set for a submodule of O^ambient_rank.

    generators are tuples of Poly, all of the same length ambient_rank.
    is_reduced is True only for a fully tail-reduced basis under a global
    order; local standard bases are lead-interreduced but keep their tails.
    """

    ambient_rank: int
    generators: list
    order: MonomialOrder
    is_reduced: bool = False
    completed: bool = False

    def __post_init__(self):
        gens = []
        nv = None
        for g in self.generators:
            if isinstance(g, Poly):
                g = (g,)
            g = tuple(g)
            if len(g) != self.ambient_rank:
                raise ValueError(
                    f"generator has {len(g)} components, ambient rank is "
                    f"{self.ambient_rank}")
            for p in g:
                if nv is None:
                    nv = p.nvars
                elif p.nvars != nv:
                    raise ValueError("generators live in different rings")
            if any(p.terms for p in g):
                gens.append(g)
        self.generators = gens
        self.nvars = nv
        self._stacked = None
        self._standard = None

    @classmethod
    def _of(cls, ambient_rank: int, generators: list, order: MonomialOrder,
            is_reduced: bool = False, completed: bool = False) -> ModuleBasis:
        """A basis of vectors the library has just built: tuples of
        ambient_rank Polys in one ring.  Only zero vectors are dropped; the
        other checks of __post_init__ are skipped."""
        out = cls.__new__(cls)
        out.ambient_rank, out.order = ambient_rank, order
        out.is_reduced, out.completed = is_reduced, completed
        out.generators = [g for g in generators if any(p.terms for p in g)]
        out.nvars = next((p.nvars for g in generators for p in g), None)
        out._stacked = out._standard = None
        return out


# -- division ---------------------------------------------------------------

def _normal_form(f: Flat, gens: list, order: MonomialOrder,
                 counter: _Counter, upper_rank: Optional[int] = None):
    """Division with remainder, Mora-style under a local order.

    gens must have int coefficients (as completed bases do).  Returns
    (h, scale, unit) with the exact identity
        unit * f  =  sum_i q_i * gens[i].flat  +  h
    for some polynomials q_i, which are not returned.  Division is
    fraction-free, so h and unit have int coefficients: they are the nonzero
    integer scale times what the same division with Fraction arithmetic
    gives, and divided by scale they are exactly that.  Before scaling,
    unit = 1 under a global order and a unit of the local ring otherwise.
    unit is a flat with component 0, and None unless upper_rank is given.

    Under a local order the reducer set is extended by intermediate results
    whose ecart is smaller (Mora's trick); those carry their own unit, so
    the final identity still refers to the original gens only.

    upper_rank: for division against a stacked basis, whose components from
    upper_rank on are bookkeeping.  If given, unit is tracked, and division
    stops as soon as the leading term falls in a component >= upper_rank:
    under position-over-term that is exactly "the upper block is exhausted".
    """
    local = not order.is_global
    h, scale = _integral(f)
    unit = None
    if upper_rank is not None:
        nvars = len(next(iter(gens[0].flat if gens else f))[1])
        unit = {(0, (0,) * nvars): scale}
    # Working list entries: (gen, its unit); a T-extension element t and its
    # unit c_t satisfy t = c_t*f - sum q_i g_i over the ORIGINAL gens.
    work = [(g, None) for g in gens]

    while h:
        lt, lc = _leading(h, order)
        if upper_rank is not None and lt[0] >= upper_rank:
            break
        comp, exp = lt
        best = None
        best_ecart = None
        for i, (g, _) in enumerate(work):
            gc, ge = g.lt
            if gc != comp or not exp_divides(ge, exp):
                continue
            if best is None or g.ecart < best_ecart:
                best, best_ecart = i, g.ecart
        counter.tick()
        if best is None:
            break
        g, g_unit = work[best]
        # The lead term has the least degree of h, so the right side is
        # >= 0 and needs computing only for a reducer of positive ecart.
        if local and g.ecart and g.ecart > _maxdeg(h) - sum(exp):
            # Reducer has larger ecart: remember the current h as an extra
            # reducer before cancelling, so the loop cannot cycle upward.
            work.append((_Gen(dict(h), order),
                         None if unit is None else dict(unit)))
        # h <- a*h - b*x^shift*g, which is a times h - (lc/g.lc)*x^shift*g.
        d = gcd(lc, g.lc)
        a, b = g.lc // d, lc // d
        if a != 1:
            scale *= a
            for k in h:
                h[k] *= a
            if unit is not None:
                for k in unit:
                    unit[k] *= a
        shift = exp_sub(exp, g.lt[1])
        _scale_into(h, g.flat, -b, shift)
        if g_unit is not None:
            _scale_into(unit, g_unit, -b, shift)
    return h, scale, unit


# -- completion --------------------------------------------------------------

def _spair(gi: _Gen, gj: _Gen) -> Flat:
    """The s-vector of two elements with the same leading component,
    cross-multiplied to stay denominator free."""
    comp = gi.lt[0]
    lcm = exp_lcm(gi.lt[1], gj.lt[1])
    si = exp_sub(lcm, gi.lt[1])
    sj = exp_sub(lcm, gj.lt[1])
    out: Flat = {}
    _scale_into(out, gi.flat, gj.lc, si)
    _scale_into(out, gj.flat, -gi.lc, sj)
    return out


class _Completion:
    """Buchberger/Mora completion that accepts new elements between runs:
    after run() returns, gens is a standard basis (not interreduced) of
    everything added so far.  run(max_degree) only treats pairs whose lcm
    has degree <= max_degree and keeps the rest for a later run.

    paired_rank: if given, only elements whose leading component is below
    it are paired.  The others are still kept and used as reducers, so gens
    is then a standard basis only in those components (see _StackedBasis).
    """

    def __init__(self, order: MonomialOrder, ambient_rank: int,
                 counter: _Counter, paired_rank: Optional[int] = None):
        self.order = order
        self.ambient_rank = ambient_rank
        self.counter = counter
        self.paired_rank = ambient_rank if paired_rank is None else paired_rank
        self.gens: list = []
        # Heap of pending pairs (deg lcm, component, lcm, i, j); the keys
        # are unique, so the pop order is fully determined.
        self.pairs: list = []
        self.treated: set = set()

    def add(self, flat: Flat) -> None:
        gens = self.gens
        g = _normalized(flat, self.order)
        k = len(gens)
        gens.append(g)
        if g.lt[0] >= self.paired_rank:
            return
        for i in range(k):
            if gens[i].lt[0] != g.lt[0]:
                continue
            lcm = exp_lcm(gens[i].lt[1], g.lt[1])
            if self.ambient_rank == 1 and lcm == exp_mul(gens[i].lt[1], g.lt[1]):
                # Coprime leading monomials reduce to zero (ideal case only).
                self.treated.add((i, k))
                continue
            heappush(self.pairs, (sum(lcm), g.lt[0], lcm, i, k))

    def add_standard(self, flats: list) -> None:
        """Add elements that form a standard basis of their own module, before
        any other.  The s-vector of two of them has a standard representation
        over them alone, so their mutual pairs count as treated and are never
        formed; the chain criterion may still use them."""
        start = len(self.gens)
        for flat in flats:
            self.gens.append(_normalized(flat, self.order))
        for k in range(start, len(self.gens)):
            for i in range(start, k):
                self.treated.add((i, k))

    def run(self, max_degree: Optional[int] = None) -> None:
        gens, pairs, treated = self.gens, self.pairs, self.treated
        while pairs:
            if max_degree is not None and pairs[0][0] > max_degree:
                return
            self.counter.tick()
            _, _, lcm, i, j = heappop(pairs)
            treated.add((i, j))
            # Classical chain criterion: skip if some third leading term
            # divides the lcm and both side pairs were already handled.
            skip = False
            for k in range(len(gens)):
                if k == i or k == j or gens[k].lt[0] != gens[i].lt[0]:
                    continue
                if not exp_divides(gens[k].lt[1], lcm):
                    continue
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in treated and b in treated:
                    skip = True
                    break
            if skip:
                continue
            s = _spair(gens[i], gens[j])
            if not s:
                continue
            h, _, _ = _normal_form(s, gens, self.order, self.counter)
            if h:
                self.add(h)  # normalised there, so the scale of h is moot


def _complete(flats: list, order: MonomialOrder, ambient_rank: int,
              counter: _Counter, paired_rank: Optional[int] = None) -> list:
    """Buchberger/Mora completion; returns the list of _Gen (not interreduced)."""
    completion = _Completion(order, ambient_rank, counter, paired_rank)
    for flat in flats:
        if flat:
            completion.add(dict(flat))
    completion.run()
    return completion.gens


def _standard(basis: ModuleBasis) -> tuple:
    """(gens, steps): the lead-interreduced standard basis of basis as flat
    _Gens, sorted by decreasing module_key, and the steps its completion
    took.  Built once and cached on basis; a cache hit under a step limit
    smaller than those steps raises, as a fresh build under that limit
    would.  A completed basis is taken as it is."""
    got = basis._standard
    if got is None:
        order = basis.order
        flats = [flatten_vector(g) for g in basis.generators]
        counter = _Counter()
        if basis.completed:
            gens = [_normalized(flat, order) for flat in flats]
        else:
            gens = _lead_interreduce(_complete(flats, order,
                                               basis.ambient_rank, counter))
        gens.sort(key=lambda g: order.module_key(*g.lt), reverse=True)
        got = basis._standard = (gens, counter.steps)
    elif got[1] > step_limit():
        raise StepLimitExceeded(step_limit())
    return got


def _leads_divided_by(basis: ModuleBasis, by: ModuleBasis) -> bool:
    """Whether L(basis) lies in L(by): every leading term of the standard
    basis of basis is divisible by one of that of by.  For by a submodule
    of basis the lead modules are then equal, which makes the modules
    equal, in the local ring under a local order (Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, 1.6 and 2.3)."""
    divisors = [g.lt for g in _standard(by)[0]]
    return all(any(c == gc and exp_divides(e, ge) for c, e in divisors)
               for gc, ge in (g.lt for g in _standard(basis)[0]))


def _lead_interreduce(gens: list) -> list:
    """Drop elements whose leading term is divisible by another one's.

    Elements are visited by increasing degree of the leading term, so under
    either order a divisor comes before its proper multiples; among equal
    leading terms the first element is kept (the sort is stable)."""
    keep: list = []
    for g in sorted(gens, key=lambda g: sum(g.lt[1])):
        redundant = False
        for h in keep:
            if h.lt[0] == g.lt[0] and exp_divides(h.lt[1], g.lt[1]):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    return keep


def _reduce_fully(flat: Flat, gens: list, order: MonomialOrder,
                  counter: _Counter) -> Flat:
    """A remainder of flat modulo gens, up to a nonzero factor, no term of
    which is divisible by a leading term of gens (global orders only):
    top-reduce, move the irreducible leading term out, repeat."""
    done: Flat = {}
    h = flat
    while True:
        h, scale, _ = _normal_form(h, gens, order, counter)
        if not h:
            return done
        if scale != 1:
            # h was scaled by the division: keep the part moved out in step.
            done = {k: c * scale for k, c in done.items()}
        lt, lc = _leading(h, order)
        done[lt] = lc
        del h[lt]


def _tail_reduce(gens: list, order: MonomialOrder, counter: _Counter) -> list:
    """Fully reduce each element against the others and make it monic
    (global orders only, where this is the unique reduced basis).  An
    element whose leading term is a proper multiple of another's reduces
    to zero and is dropped; the others keep their leading terms."""
    out = []
    for i, g in enumerate(gens):
        h = _reduce_fully(g.flat, gens[:i] + gens[i + 1:], order, counter)
        if not h:
            continue
        lc = h[g.lt]
        out.append(_Gen({k: Fraction(c, lc) for k, c in h.items()}, order))
    return out


def groebner_basis(basis: ModuleBasis) -> ModuleBasis:
    """Complete a generating set to a standard basis.

    Global order: the unique reduced (monic, tail-reduced) Groebner basis.
    Local order: a lead-interreduced standard basis (tails kept, since tail
    reduction need not terminate in the local ring).  The completion is
    the one cached on basis (see _standard); a tail reduction counts its
    steps on from it, against the same limit.
    """
    if basis.completed:
        return basis
    order = basis.order
    gens, steps = _standard(basis)
    if order.is_global:
        counter = _Counter()
        counter.steps = steps
        gens = _tail_reduce(gens, order, counter)
    vectors = [unflatten_vector(g.flat, basis.ambient_rank, basis.nvars)
               for g in gens]
    return ModuleBasis._of(basis.ambient_rank, vectors, order,
                           is_reduced=order.is_global, completed=True)


def prune_generators(basis: ModuleBasis) -> ModuleBasis:
    """A generating set of the same module, chosen from basis.generators.

    Generators are visited by increasing degree.  One is dropped only when
    its normal form against the generators kept so far, completed through
    its degree, is exactly zero: that zero certifies it lies in their
    module, so the module does not change.  For homogeneous generators under
    a global degree order the degree-bounded completion is a Groebner basis
    in those degrees, so every redundant generator is dropped.
    """
    def degree(vec) -> int:
        return max(p.total_degree() for p in vec)

    counter = _Counter()
    completion = _Completion(basis.order, basis.ambient_rank, counter)
    kept = []
    for vec in sorted(basis.generators, key=degree):
        completion.run(degree(vec))
        h, _, _ = _normal_form(flatten_vector(vec), completion.gens,
                               basis.order, counter)
        if h:
            kept.append(vec)
            completion.add(h)
    return ModuleBasis(basis.ambient_rank, kept, basis.order)


def quotient_dimension(basis: ModuleBasis):
    """dim_Q of O^r / <generators>, as a vector space; INFINITE if not finite.

    O is the local ring at the origin for a local order and the polynomial
    ring for a global one.  The dimension is the number of standard
    monomials: pairs (component, monomial) outside the leading-term module.
    """
    gens, _ = _standard(basis)
    r = basis.ambient_rank
    if r and not gens:
        return INFINITE  # all of O^r; for r = 0 the sum below is 0
    nv = basis.nvars
    lts: list = [[] for _ in range(r)]
    for g in gens:
        lts[g.lt[0]].append(g.lt[1])
    total = 0
    for comp in range(r):
        exps = lts[comp]
        for i in range(nv):
            # Finite only if some leading term is a power of x_i (or 1).
            if not any(sum(e) == e[i] for e in exps):
                return INFINITE
        total += _staircase_size(exps, nv)
    return total


def _staircase_size(exps: list, nv: int) -> int:
    """Number of monomials divisible by no element of exps, for a finite
    staircase.  Standard monomials are closed under division, so each one
    is reached from a smaller one by raising a single exponent: from m,
    raise exponent i for every i at or after the last nonzero exponent of
    m, which reaches every monomial exactly once."""
    count = 0
    stack = [(0,) * nv]
    while stack:
        m = stack.pop()
        if any(exp_divides(e, m) for e in exps):
            continue
        count += 1
        last = max((i for i in range(nv) if m[i]), default=0)
        for i in range(last, nv):
            stack.append(m[:i] + (m[i] + 1,) + m[i + 1:])
    return count


# -- stacked bases: syzygies, membership certificates ------------------------

class _StackedBasis:
    """The module generated by g_j + e_j in O^(r+s), completed in its upper
    block only.

    The order is position-over-term with the original components dominant,
    so an element reduces its upper block first.  Only elements whose
    leading term lies in the upper block are paired, so the upper-block
    elements form a standard basis of the module of the g_j, each carrying
    in its lower block its expression in the g_j.  Dividing (v, 0) against
    them until the upper block dies yields a membership certificate for v.
    The elements with vanishing upper block are the reduced s-vectors of
    upper-block pairs: by Schreyer's theorem, which holds for local orders
    too (Greuel-Pfister, A Singular Introduction to Commutative Algebra,
    2.5), their lower blocks generate the syzygies of the g_j.  They are a
    generating set, not a standard basis, and are never paired; express()
    stops at the upper block and so never divides by them, and pairing them
    would change no certificate.
    """

    def __init__(self, basis: ModuleBasis):
        self.rank = basis.ambient_rank
        self.count = len(basis.generators)
        self.nvars = basis.nvars
        self.order = basis.order
        flats = []
        for j, g in enumerate(basis.generators):
            flat = flatten_vector(g)
            flat[(self.rank + j, (0,) * self.nvars)] = 1
            flats.append(flat)
        counter = _Counter()
        self.gens = _complete(flats, self.order, self.rank + self.count,
                              counter, paired_rank=self.rank)
        # The completion is deterministic, so this is the least budget
        # under which it can be built.
        self.steps = counter.steps

    def syzygy_vectors(self) -> list:
        """Generators of the syzygies of the original generators, as vectors
        in O^count.  They are not lead-interreduced: dropping an element
        whose leading term is a multiple of another's is sound only for a
        standard basis, and these are just a generating set."""
        return [unflatten_vector({(comp - self.rank, exp): c
                                  for (comp, exp), c in g.flat.items()},
                                 self.count, self.nvars)
                for g in self.gens if g.lt[0] >= self.rank]

    def express(self, vec: Sequence[Poly]):
        """Certificate (unit, coeffs, remainder) with
        unit * vec = sum coeffs[j] * g_j + remainder.  Each call counts its
        own steps against the step limit; the completion's steps are spent
        once, when built."""
        flat = flatten_vector(vec)
        h, scale, c_h = _normal_form(flat, self.gens, self.order, _Counter(),
                                     upper_rank=self.rank)
        upper = {k: Fraction(c, scale) for k, c in h.items()
                 if k[0] < self.rank}
        lower = {(k[0] - self.rank, k[1]): Fraction(-c, scale)
                 for k, c in h.items() if k[0] >= self.rank}
        unit = Poly(self.nvars, {exp: Fraction(c, scale)
                                 for (_, exp), c in c_h.items()})
        if not self.order.is_global and unit.constant_term() == 0:
            raise AssertionError("division produced a non-unit multiplier")
        coeffs = unflatten_vector(lower, self.count, self.nvars)
        remainder = unflatten_vector(upper, self.rank, self.nvars)
        return unit, coeffs, remainder


def _stacked(basis: ModuleBasis) -> _StackedBasis:
    """The stacked basis of basis, built once and cached on it.  A cache hit
    under a step limit smaller than the steps the build took raises, as a
    fresh build under that limit would."""
    st = getattr(basis, "_stacked", None)
    if st is None:
        st = basis._stacked = _StackedBasis(basis)
    elif st.steps > step_limit():
        raise StepLimitExceeded(step_limit())
    return st


def syzygies_of_basis(basis: ModuleBasis) -> list:
    """Generators of the syzygy module {w : sum w_j g_j = 0} in O^len(gens).

    A generating set (Schreyer's theorem), not a standard basis: the
    stacked completion that finds them pairs only elements with a nonzero
    upper block (see _StackedBasis).  member() certificates, which divide
    by that upper block only, are the same as after a full completion."""
    return _stacked(basis).syzygy_vectors()


def column_syzygies(m, basis: ModuleBasis) -> list:
    """Generators of ker(m: O^c -> O^r), as vectors in O^c, where basis is
    the ModuleBasis of the columns of m (which drops the zero columns): the
    syzygies of basis spread back over the columns, then a unit vector for
    each zero column."""
    keep = [j for j in range(m.cols) if any(p.terms for p in m.column(j))]
    nv = m.nvars
    out: list = []
    for v in syzygies_of_basis(basis):
        col = [Poly.zero(nv)] * m.cols
        for slot, j in enumerate(keep):
            col[j] = v[slot]
        out.append(tuple(col))
    for j in range(m.cols):
        if j not in keep:
            col = [Poly.zero(nv)] * m.cols
            col[j] = Poly.constant(nv, 1)
            out.append(tuple(col))
    return out


def syzygies(m, order: MonomialOrder = LOCAL):
    """Syzygy matrix of a polynomial matrix: columns generate ker(m: O^c -> O^r).

    Returns a PolyMatrix z with m * z = 0 whose columns generate all
    relations among the columns of m over the (local or global) ring.  The
    columns are a generating set (Schreyer's theorem), not a standard basis
    of the kernel, and need not be minimal.
    """
    from .matalg import PolyMatrix
    basis = ModuleBasis(m.rows, [m.column(j) for j in range(m.cols)], order)
    return PolyMatrix.from_columns(m.cols, column_syzygies(m, basis), m.nvars)


def modulo(vectors: Sequence[Vector], basis: ModuleBasis) -> list:
    """Generators of {a in O^t : sum a_i z_i in M}, with z_1..z_t the given
    vectors of O^r and M the module of basis (Singular's modulo;
    Greuel-Pfister, A Singular Introduction to Commutative Algebra, 2.8).

    The upper-block elements of the stacked completion of basis, cached on
    it, are a standard basis G of M.  The module of the (g, 0), g in G, and
    the (z_i, e_i) in O^(r+t) is completed in its upper block only, as in
    _StackedBasis, and its elements with a vanishing upper block give the
    answer: by Schreyer's theorem their lower blocks generate all a with
    (0, a) in that module.  Pairs of two (g, 0) are never formed, since G is
    a standard basis: their s-vectors reduce over G alone, to (0, 0).  Each
    (z_i, e_i) enters divided by the elements before it, which leaves the
    module unchanged and often its upper block zero.  The completion counts
    its own steps against the step limit.
    """
    r, t = basis.ambient_rank, len(vectors)
    if not t:
        return []
    nvars = vectors[0][0].nvars
    completion = _Completion(basis.order, r + t, _Counter(), paired_rank=r)
    upper = [g for g in _stacked(basis).gens if g.lt[0] < r]
    completion.add_standard([{k: c for k, c in g.flat.items() if k[0] < r}
                             for g in _lead_interreduce(upper)])
    for i, z in enumerate(vectors):
        flat = flatten_vector(z)
        flat[(r + i, (0,) * nvars)] = 1
        h, _, _ = _normal_form(flat, completion.gens, basis.order,
                               completion.counter)
        if h:
            completion.add(h)
    completion.run()
    return [unflatten_vector({(comp - r, exp): c
                              for (comp, exp), c in g.flat.items()},
                             t, nvars)
            for g in completion.gens if g.lt[0] >= r]


@dataclass
class MemberResult:
    """Outcome of a membership test.

    On success (contains=True) the exact identity
        unit * vec = sum coefficients[j] * generators[j]
    holds, with unit = 1 for a global order and unit(0) != 0 for a local
    one.  On failure, remainder is the (order-dependent) normal form.
    """

    contains: bool
    coefficients: tuple
    unit: Poly
    remainder: tuple


def member(vec, basis: ModuleBasis) -> MemberResult:
    """Decide membership of a vector (or Poly, for rank 1) with certificate.

    The certificate satisfies unit * vec == sum coefficients[i] *
    generators[i] + remainder, with unit == 1 under a global order and a
    unit of the local ring otherwise.  For a bare Poly input the remainder
    is returned as a bare Poly as well.
    """
    scalar = isinstance(vec, Poly)
    if scalar:
        vec = (vec,)
    vec = tuple(vec)
    if basis.ambient_rank == 0:
        raise ValueError("member() needs a module of positive rank: in "
                         "rank 0 there is no polynomial to take the ring from")
    if len(vec) != basis.ambient_rank:
        raise ValueError("vector rank does not match ambient rank")
    is_zero = all(p.is_zero() for p in vec)
    if is_zero or not basis.generators:
        # Nothing to divide, or nothing to divide by: vec is its own
        # remainder.
        nv = vec[0].nvars
        zero = tuple(Poly.zero(nv) for _ in basis.generators)
        return MemberResult(is_zero, zero, Poly.constant(nv, 1),
                            vec[0] if scalar else vec)
    unit, coeffs, remainder = _stacked(basis).express(vec)
    ok = all(p.is_zero() for p in remainder)
    return MemberResult(ok, coeffs, unit,
                        remainder[0] if scalar else remainder)
