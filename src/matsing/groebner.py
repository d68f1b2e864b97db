"""Standard bases for submodules of free modules over polynomial rings.

Global orders give ordinary Groebner bases, local orders standard bases
in the ring of germs at the origin, all exactly over the rationals.  There
is one division rule.  Under a local order a vector is divided as if
homogenised with a variable t to a degree deg carried beside it (Lazard;
Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.7 and
2.3): a reducer g cancels the leading term x^a only if its t-power,
g.ecart, is at most deg - |a|.  Completion is then homogeneous Buchberger
in K[t, x]^r with t never written down, and its x-parts form a local
standard basis.  Under a global order the rule never stops a division.
A division may instead drop every term of degree >= d as it forms, with
no ecart stop: sound for a module of finite colength d, which contains
m^d O^r, and it decides membership by a division that ends (_contained).
Syzygies, modulo, membership certificates and homology all read one
global stacked completion (_Stack): localisation is flat, so global
generators of a syzygy or colon module generate it locally too, and local
membership of v in M takes its unit from the colon M : v (see member).
Homology builds a colon stack only where it must: H_0 is the colength of
the boundaries' Groebner basis itself, and in higher degrees the cycles
that divide to 0 by that basis are dropped first (_homology_colength).

Vectors in a free module O^r are stored flat as dicts keyed by one int per
term, which keeps division and s-vector code identical for the ideal case
(r = 1) and the module case.  The key of the term x^e in component c of
n variables is

    K(c, e) = c 2^((n+1)F) + D(|e|) 2^(nF) + sum_i e_i 2^(iF),    F = 32,

with the degree field D(d) = 2^31 - d under the global order and
D(d) = d under the local one (after Bachmann-Schoenemann, Monomial
representations for Groebner bases computations, ISSAC 1998).  The
component sits in the top field, so a smaller key is a larger term under
position-over-term with either order, and the leading term of a flat is
its min.  The difference of two keys of one component is the key of a
monomial quotient (component 0, degree field the plain difference), and
adding it to a key multiplies that term by the monomial: x^a divides x^b
in one component exactly when K(c, b) - K(c, a) borrows from no exponent
field (the top bit of every field stays clear).  Only _Encoding reads or
writes the fields; exponents are decoded only at the Poly boundary
(flatten_vector, unflatten_vector) and for the leading terms of basis
elements.  Each encoding memoises the component-0 key of the exponent
vectors it packs, up to _KEYS_HELD of them, and adds the component field
on each call: within one computation most vectors are packed again (the
same monomials recur across the Polys flattened and the s-pair lcms).
The fields hold every exponent only while every degree stays below 2^31:
that is checked when an exponent vector is first packed (a vector past
it is never memoised, so it raises on every call), at each division step
and at each s-vector, and past it a ValueError is raised, never a wrong
answer given.

Arithmetic inside the module is on ints.  A flat made from Polys holds
their coefficients as they are: ints, and Fractions only where a Poly
has a denominator.  Those are cleared once, where such a flat enters a
completion or a division (_integral), and everything built from there on
is int: basis elements are kept with int coefficients of content 1, and
division runs fraction-free: instead of
h - (lc/lc_g) x^s g it forms a*h - b*x^s*g with a/b = lc_g/lc in lowest
terms.  That does the same reductions in the same order as Fraction
division, with each intermediate result scaled by a known nonzero integer,
which a certificate divides out once at the end (_scalar gives an int
where that division is exact).

Every generator enters a completion one way, through _Completion.run,
stacks included: it is first divided by the elements entered before it,
and one that divides to 0 adds no element and forms no pair: once they
are a standard basis, so does every element of their module under a
global order, and under a local one every combination of them whose top
degree does not cancel (its homogenisation is divided).
Each ModuleBasis completes its standard basis once, in flat form, and
caches it (_standard): colengths count the staircase of its leading terms
straight from there, groebner_basis unflattens it (after tail reduction
under a global order) into a basis that caches it in turn, and comparing
two cached lead modules decides equality of a module and a submodule.
Under a global order groebner_basis returns the reduced basis: monic, and
no term of any element is divisible by the leading term of another.

A step counter guards all completion and division loops: badly posed
inputs can be astronomically slow, so it raises StepLimitExceeded instead
of hanging.  A step is one reduction of a division, one pair popped or
one staircase monomial visited; a division ends, at no cost, at the first
leading term that no element divides.  set_step_limit is the one way to
set the budget, and it bounds each computation separately: every
completion (with the divisions inside it), every division of a member()
query, every _contained test and each staircase count counts its own
steps against the limit, so one analysis can take many times the limit
in total.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import combinations
from math import gcd, lcm
from struct import Struct
from typing import Optional, Sequence, Tuple

from .poly import (ExpVec, Poly, Scalar, _Record, _scalar, exp_divides,
                   exp_lcm)

Vector = Tuple[Poly, ...]
Flat = dict[int, Scalar]  # term key (see _Encoding) -> coefficient


class _Infinite:
    """Sentinel for an infinite vector-space dimension."""

    def __repr__(self):
        return "INFINITE"

    def __reduce__(self):  # pickle and copy give the module's INFINITE
        return "INFINITE"


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

    def tick(self) -> None:
        self.steps += 1
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
    division code packs each term, component included, into one int
    instead (see _Encoding), which orders terms the same way, reversed.
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


# -- packed terms and flat vectors --------------------------------------------

_FIELD = 32  # bits per exponent field and of the degree field
_DEGREE_BOUND = 1 << (_FIELD - 1)  # every degree must stay below this
_DEGREE_MASK = (1 << _FIELD) - 1
# The most keys an encoding memoises before it starts over.  No op of
# tests/cli_diff.py packs more than about 800 distinct exponent vectors,
# and an entry takes about 330 bytes, so a long session holds at most
# about 1.3 MB per encoding.
_KEYS_HELD = 1 << 12


def _check_degree(d: int) -> None:
    if d >= _DEGREE_BOUND:
        raise ValueError(f"monomial degree {d} reaches 2^31, the degree "
                         f"bound of the packed monomial keys")


class _Encoding:
    """The term keys of free modules over nvars variables under one order
    (see the module docstring), and the one place that reads or writes
    their fields.  local says whether D(d) = d, shift = nF is the bit
    offset of the degree field and cshift = (n + 1)F that of the
    component, low is the mask of the exponent fields and high that of
    their top bits.  One instance per (nvars, order), from _encoding.
    _keys memoises pack: it maps an exponent vector to its key in
    component 0, stored only once its degree has passed the check, and is
    emptied when it holds _KEYS_HELD keys."""

    __slots__ = ("nvars", "local", "shift", "cshift", "low", "high", "_struct",
                 "_keys")

    def __init__(self, nvars: int, local: bool):
        self.nvars = nvars
        self.local = local
        self.shift = nvars * _FIELD
        self.cshift = self.shift + _FIELD
        self.low = (1 << self.shift) - 1
        self.high = sum(1 << (i * _FIELD + _FIELD - 1) for i in range(nvars))
        self._struct = Struct(f"<{nvars}I")
        self._keys: dict = {}

    def pack(self, exp: ExpVec, comp: int = 0) -> int:
        keys = self._keys
        key = keys.get(exp)
        if key is None:
            d = sum(exp)
            _check_degree(d)
            if len(keys) >= _KEYS_HELD:
                keys.clear()
            key = keys[exp] = (
                int.from_bytes(self._struct.pack(*exp), "little")
                + ((d if self.local else _DEGREE_BOUND - d) << self.shift))
        return key + (comp << self.cshift)

    def unpack(self, key: int) -> ExpVec:
        return self._struct.unpack(
            (key & self.low).to_bytes(4 * self.nvars, "little"))

    def component(self, key: int) -> int:
        return key >> self.cshift

    def degree(self, key: int) -> int:
        d = (key >> self.shift) & _DEGREE_MASK
        return d if self.local else _DEGREE_BOUND - d

    def base(self, comp: int) -> int:
        """A bound below every key of comp and above every key of a lower
        component; a key minus base(r) is the same term r components lower."""
        return comp << self.cshift

    def unit(self, comp: int) -> int:
        return self.pack((0,) * self.nvars, comp)

    def maxdeg(self, flat: Flat) -> int:
        fields = [(key >> self.shift) & _DEGREE_MASK for key in flat]
        return max(fields) if self.local else _DEGREE_BOUND - min(fields)

    def below(self, flat: Flat, d: int) -> Flat:
        """The terms of flat of degree < d, by their degree fields."""
        shift = self.shift
        if self.local:
            return {k: c for k, c in flat.items()
                    if (k >> shift) & _DEGREE_MASK < d}
        least = _DEGREE_BOUND - d
        return {k: c for k, c in flat.items()
                if (k >> shift) & _DEGREE_MASK > least}

    def localized(self, flat: Flat) -> Flat:
        """flat, packed by this global encoding, re-keyed for the local one:
        D(d) = 2^31 - d becomes d."""
        shift = self.shift
        return {k + ((_DEGREE_BOUND - 2 * ((k >> shift) & _DEGREE_MASK))
                     << shift): c for k, c in flat.items()}


def _encoding(nvars: Optional[int], order: MonomialOrder) -> _Encoding:
    """The encoding of (nvars, order); None (a module without generators,
    which packs nothing) counts as 0 variables."""
    return _encoding_of(nvars or 0, not order.is_global)


_encoding_of = cache(_Encoding)


def flatten_vector(vec: Sequence[Poly], enc: _Encoding) -> Flat:
    pack = enc.pack
    return {pack(exp, comp): coeff
            for comp, p in enumerate(vec) for exp, coeff in p.terms.items()}


def unflatten_vector(flat: Flat, rank: int, enc: _Encoding) -> Vector:
    per_comp: list[dict] = [dict() for _ in range(rank)]
    for key, coeff in flat.items():
        per_comp[enc.component(key)][enc.unpack(key)] = coeff
    return tuple(Poly._of(enc.nvars, t) for t in per_comp)


def _leading(flat: Flat) -> tuple[int, Scalar]:
    """The key of the leading term and its coefficient: the least key,
    which is the largest term under order.module_key, component first."""
    lt = min(flat)
    return lt, flat[lt]


def _scale_into(dst: Flat, src: Flat, coeff: int, shift: int) -> None:
    """dst += coeff * x^shift * src, in place; shift is the key of the
    monomial x^shift, a difference of two keys of one component."""
    for k, c in src.items():
        k += shift
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
    new flat has int coefficients.  A flat whose coefficients are all ints
    already is returned as it is, not copied.  Called where a flat made
    from Polys enters a completion or a division; _normalized and
    _normal_form take int flats only."""
    if all(type(c) is int for c in flat.values()):
        return flat, 1
    den = lcm(*(c.denominator for c in flat.values()))
    return {k: c.numerator * (den // c.denominator)
            for k, c in flat.items()}, den


class _Gen:
    """A basis element with its cached leading data; lead, if given, is
    the (leading term, leading coefficient) of flat.  comp is the
    component of the leading term, exp its decoded exponent and deg its
    degree.  top is the degree flat is homogenised to (by default its top
    degree), and ecart = top - deg the t-power of the leading term there."""

    __slots__ = ("flat", "lt", "lc", "comp", "exp", "deg", "top", "ecart")

    def __init__(self, flat: Flat, enc: _Encoding, lead=None,
                 deg: Optional[int] = None):
        self.flat = flat
        self.lt, self.lc = lead or _leading(flat)
        self.comp = enc.component(self.lt)
        self.exp = enc.unpack(self.lt)
        self.deg = sum(self.exp)
        self.top = enc.maxdeg(flat) if deg is None else deg
        self.ecart = self.top - self.deg


def _normalized(flat: Flat, enc: _Encoding,
                deg: Optional[int] = None) -> _Gen:
    """A nonzero int flat divided by its content and its leading
    coefficient made positive, as a _Gen of degree deg.  The leading term
    is found once, for the sign and for the _Gen.  A flat of content 1
    becomes the _Gen's own, uncopied."""
    lt, lc = _leading(flat)
    content = gcd(*flat.values())
    if lc < 0:
        content = -content
    if content != 1:
        flat = {k: c // content for k, c in flat.items()}
    return _Gen(flat, enc, (lt, lc // content), deg)


class ModuleBasis(_Record):
    """A generating set for a submodule of O^ambient_rank.

    generators are tuples of Poly, all of the same length ambient_rank.
    """

    FIELDS = ("ambient_rank", "generators", "order")

    def __init__(self, ambient_rank: int, generators: list,
                 order: MonomialOrder):
        gens = []
        nv = None
        for g in generators:
            if isinstance(g, Poly):
                g = (g,)
            g = tuple(g)
            if len(g) != ambient_rank:
                raise ValueError(
                    f"generator has {len(g)} components, ambient rank is "
                    f"{ambient_rank}")
            for p in g:
                if nv is None:
                    nv = p.nvars
                elif p.nvars != nv:
                    raise ValueError("generators live in different rings")
            if any(p.terms for p in g):
                gens.append(g)
        self.ambient_rank, self.order = ambient_rank, order
        self.generators = gens
        self.nvars = nv
        self._stacked = self._standard = self._completion = None

    @classmethod
    def _of(cls, ambient_rank: int, generators: list,
            order: MonomialOrder) -> ModuleBasis:
        """A basis of vectors the library has just built: tuples of
        ambient_rank Polys in one ring.  Only zero vectors are dropped; the
        other checks of __init__ are skipped."""
        out = cls.__new__(cls)
        out.ambient_rank, out.order = ambient_rank, order
        out.generators = [g for g in generators if any(p.terms for p in g)]
        out.nvars = next((p.nvars for g in generators for p in g), None)
        out._stacked = out._standard = out._completion = None
        return out


# -- division ---------------------------------------------------------------

def _normal_form(f: Flat, gens: list, enc: _Encoding,
                 counter: _Counter, deg: Optional[int] = None,
                 below: Optional[int] = None) -> tuple[Flat, int]:
    """Division with remainder.

    f and gens must have int coefficients (as completed bases do).
    Returns (h, scale) with the exact identity
        scale * f  =  sum_i q_i * gens[i].flat  +  h
    for some polynomials q_i, which are not returned.  Division is
    fraction-free, so h has int coefficients: it is the nonzero integer
    scale times what the same division with Fraction arithmetic gives.
    f is divided in place, so the caller must own it.

    Under a local order f is divided as if homogenised to degree deg (by
    default its top degree): a reducer cancels the leading term x^a only
    if its ecart is at most deg - |a|, so h never passes degree deg.

    below: if given, terms of degree >= below are dropped as they form, so
    the identity holds modulo m^below O^r, and the ecart stop is skipped.
    Every leading term then lies among the finitely many terms of degree
    < below and falls at each step, so the loop ends under either order.

    Each reduction counts one step on counter; a leading term that no
    element divides ends the division and costs none.
    """
    h, scale = f, 1
    local = enc.local and below is None
    high = enc.high
    if below is not None:
        _check_degree(below - 1)  # the degree of every term formed
        h = enc.below(h, below)
    elif local and deg is None:
        deg = enc.maxdeg(h)
    while h:
        lt = min(h)
        comp = enc.component(lt)
        g = None
        for cand in gens:
            if cand.comp != comp or (lt - cand.lt) & high:
                continue
            if g is None or cand.ecart < ecart:
                g, ecart = cand, cand.ecart
        if g is None:
            break
        counter.tick()
        degree = enc.degree(lt)
        if local and ecart > deg - degree:
            break
        terms = g.flat
        dshift = degree - g.deg
        if below is None:
            _check_degree(dshift + g.top)
        else:
            terms = enc.below(terms, below - dshift)
        # h <- a*h - b*x^shift*g, which is a times h - (lc/g.lc)*x^shift*g.
        lc = h[lt]
        d = gcd(lc, g.lc)
        a, b = g.lc // d, lc // d
        if a != 1:
            scale *= a
            for k in h:
                h[k] *= a
        _scale_into(h, terms, -b, lt - g.lt)
    return h, scale


# -- completion --------------------------------------------------------------

def _spair(gi: _Gen, gj: _Gen, lcm: int) -> Flat:
    """The s-vector of two elements with the same leading component and
    the key of the lcm of their leading terms, cross-multiplied to stay
    denominator free."""
    out: Flat = {}
    _scale_into(out, gi.flat, gj.lc, lcm - gi.lt)
    _scale_into(out, gj.flat, -gi.lc, lcm - gj.lt)
    return out


class _Completion:
    """Buchberger completion: after run() returns, gens is a standard basis
    (not interreduced) of everything added before it, and more elements
    may be added and run again (see _extended).  run divides each input by
    the elements entered before it and keeps only a nonzero remainder, so
    an input that divides to 0 adds no element and forms no pair.

    A pair is keyed by its sugar, |lcm| + the larger ecart, under either
    order (under position-over-term |lcm| alone can understate the degree
    of the s-vector; Giovini et al., "One sugar cube, please", ISSAC 1991).
    Under a local order this is homogeneous Buchberger in t and x: the
    remainder is divided and stored at the sugar, and the chain and coprime
    criteria see the t-powers of the leading terms.

    paired_rank: if given, only elements whose leading component is below
    it are paired.  The others are still kept and used as reducers, so gens
    is then a standard basis only in those components (see _Stack).
    """

    def __init__(self, enc: _Encoding, ambient_rank: int,
                 counter: _Counter, paired_rank: Optional[int] = None):
        self.enc = enc
        self.ambient_rank = ambient_rank
        self.counter = counter
        self.paired_rank = ambient_rank if paired_rank is None else paired_rank
        self.gens: list = []
        # Heap of pending pairs (degree, component, lcm, i, j), lcm the
        # exponent tuple; the keys are unique, so the pop order is fully
        # determined.
        self.pairs: list = []
        self.treated: set = set()

    def add(self, flat: Flat, deg: Optional[int] = None) -> None:
        gens = self.gens
        g = _normalized(flat, self.enc, deg)
        k = len(gens)
        gens.append(g)
        comp = g.comp
        if comp >= self.paired_rank:
            return
        for i, gi in enumerate(gens[:k]):
            if gi.comp != comp:
                continue
            lcm = exp_lcm(gi.exp, g.exp)
            d = sum(lcm)
            if (self.ambient_rank == 1 and d == gi.deg + g.deg
                    and not min(gi.ecart, g.ecart)):
                # Coprime leading terms reduce to zero (ideal case only).
                # Under a global order ideal elements have ecart 0.
                self.treated.add((i, k))
                continue
            heappush(self.pairs,
                     (d + max(gi.ecart, g.ecart), comp, lcm, i, k))

    def add_standard(self, gens: list) -> None:
        """Add normalized elements (_Gens, not copied) that form a standard
        basis of their own module, before any other.  The s-vector of two
        of them has a standard representation over them alone, so their
        mutual pairs count as treated and are never formed; the chain
        criterion may still use them."""
        self.gens = list(gens)
        self.treated.update(combinations(range(len(gens)), 2))

    def standard(self) -> tuple:
        """(gens, steps) after run(): the lead-interreduced elements, sorted
        by decreasing module_key, and the steps the run took."""
        gens = _lead_interreduce(self.gens, self.enc)
        gens.sort(key=lambda g: g.lt)
        return gens, self.counter.steps

    def run(self, flats: Sequence[Flat] = ()) -> None:
        """Enter the nonzero flats in the given order, then complete: the
        one way a generator enters a completion.  Each flat, denominators
        cleared, is divided by the elements entered before it, as an
        s-vector is: under a local order homogenised to its top degree, at
        which the remainder is added.  A remainder is a nonzero multiple of
        its flat minus a combination of the elements before it, so the
        module is unchanged; a remainder 0 is dropped and forms no pair.
        Each reduction of an entry division counts a step against the
        completion's budget, as does each pair popped."""
        gens, enc = self.gens, self.enc
        for flat in flats:
            if flat:
                flat = _integral(flat)[0]
                top = enc.maxdeg(flat) if enc.local else None
                h, _ = _normal_form(flat, gens, enc, self.counter, deg=top)
                if h:
                    self.add(h, top)  # normalised there: the scale is moot
        pairs, treated = self.pairs, self.treated
        local, high = enc.local, enc.high
        while pairs:
            self.counter.tick()
            deg, comp, lcm, i, j = heappop(pairs)
            treated.add((i, j))
            packed, lcm_deg = enc.pack(lcm, comp), sum(lcm)
            # Classical chain criterion: skip if some third leading term
            # divides the lcm, t-part included, and both side pairs were
            # already handled.
            for k, gk in enumerate(gens):
                if (k != i and k != j and gk.comp == comp
                        and not (packed - gk.lt) & high
                        and not (local and gk.ecart > deg - lcm_deg)
                        and (min(i, k), max(i, k)) in treated
                        and (min(j, k), max(j, k)) in treated):
                    break
            else:
                gi, gj = gens[i], gens[j]
                _check_degree(lcm_deg + max(gi.ecart, gj.ecart))
                s = _spair(gi, gj, packed)
                deg = deg if local else None
                h, _ = _normal_form(s, gens, enc, self.counter, deg=deg)
                if h:
                    self.add(h, deg)  # normalised there: the scale is moot


def _complete(flats: list, enc: _Encoding, ambient_rank: int,
              counter: _Counter) -> _Completion:
    """The finished Buchberger completion of the flats, which become its
    own: the caller must not reuse them."""
    completion = _Completion(enc, ambient_rank, counter)
    completion.run(flats)
    return completion


def _standard(basis: ModuleBasis) -> tuple:
    """(gens, steps): the lead-interreduced standard basis of basis as flat
    _Gens, sorted by decreasing module_key, and the steps its completion
    took.  Built once and cached on basis, with the completion itself (see
    _extended); a cache hit under a step limit smaller than those steps
    raises, as a fresh build under that limit would."""
    got = basis._standard
    if got is None:
        enc = _encoding(basis.nvars, basis.order)
        completion = basis._completion = _complete(
            [flatten_vector(g, enc) for g in basis.generators], enc,
            basis.ambient_rank, _Counter())
        got = basis._standard = completion.standard()
    elif got[1] > step_limit():
        raise StepLimitExceeded(step_limit())
    return got


def _extended(basis: ModuleBasis, vectors: list) -> ModuleBasis:
    """basis with vectors appended to its generators, its standard basis
    made by resuming a copy of the completion of basis with them (Buchberger
    is incremental).  The resumed run counts its own steps against the
    limit; the cache keeps the larger of those and the steps of basis."""
    steps, done = _standard(basis)[1], basis._completion
    out = ModuleBasis._of(basis.ambient_rank,
                          basis.generators + list(vectors), basis.order)
    completion = out._completion = _Completion(done.enc, done.ambient_rank,
                                               _Counter())
    completion.gens, completion.treated = list(done.gens), set(done.treated)
    completion.run([flatten_vector(v, done.enc) for v in vectors])
    gens, own = completion.standard()
    out._standard = (gens, max(steps, own))
    return out


def _leads_divided_by(basis: ModuleBasis, by: ModuleBasis) -> bool:
    """Whether L(basis) lies in L(by): every leading term of the standard
    basis of basis is divisible by one of that of by.  For by a submodule
    of basis the lead modules are then equal, which makes the modules
    equal, in the local ring under a local order (Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, 1.6 and 2.3)."""
    high = _encoding(basis.nvars, basis.order).high
    divisors = _standard(by)[0]
    return all(any(g.comp == d.comp and not (g.lt - d.lt) & high
                   for d in divisors) for g in _standard(basis)[0])


def _contained(vectors: Sequence[Vector], basis: ModuleBasis,
               d: int) -> bool:
    """Whether all vectors lie in the module M of basis, a local basis with
    dim O^r/M = d finite.  Then m^d O^r lies in M (Nakayama), so each
    vector is divided by the cached standard basis of M with its terms of
    degree >= d dropped: it lies in M exactly when the remainder is 0.  The
    divisions count their steps together against the step limit."""
    gens = _standard(basis)[0]
    enc = _encoding(basis.nvars, basis.order)
    counter = _Counter()
    return not any(_normal_form(_integral(flatten_vector(v, enc))[0], gens,
                                enc, counter, below=d)[0] for v in vectors)


def _lead_interreduce(gens: list, enc: _Encoding) -> list:
    """Drop elements whose leading term is divisible by another one's.

    Elements are visited by increasing degree of the leading term, so under
    either order a divisor comes before its proper multiples; among equal
    leading terms the first element is kept (the sort is stable)."""
    high = enc.high
    keep: list = []
    for g in sorted(gens, key=lambda g: g.deg):
        if not any(h.comp == g.comp and not (g.lt - h.lt) & high
                   for h in keep):
            keep.append(g)
    return keep


def _reduce_fully(flat: Flat, gens: list, enc: _Encoding,
                  counter: _Counter) -> Flat:
    """A remainder of flat modulo gens, up to a nonzero factor, no term of
    which is divisible by a leading term of gens (global orders only):
    top-reduce, move the irreducible leading term out, repeat.  flat is
    left as it is: division works in place, on a copy."""
    done: Flat = {}
    h = dict(flat)
    while True:
        h, scale = _normal_form(h, gens, enc, counter)
        if not h:
            return done
        if scale != 1:
            # h was scaled by the division: keep the part moved out in step.
            done = {k: c * scale for k, c in done.items()}
        lt, lc = _leading(h)
        done[lt] = lc
        del h[lt]


def _tail_reduce(gens: list, enc: _Encoding, counter: _Counter) -> list:
    """Fully reduce each element against the others and make it monic
    (global orders only, where this is the unique reduced basis).  An
    element whose leading term is a proper multiple of another's reduces
    to zero and is dropped; the others keep their leading terms."""
    out = []
    for i, g in enumerate(gens):
        h = _reduce_fully(g.flat, gens[:i] + gens[i + 1:], enc, counter)
        if not h:
            continue
        lc = h[g.lt]
        out.append(_Gen({k: _scalar(Fraction(c, lc)) for k, c in h.items()},
                        enc))
    return out


def groebner_basis(basis: ModuleBasis) -> ModuleBasis:
    """Complete a generating set to a standard basis.

    Global order: the unique reduced (monic, tail-reduced) Groebner basis.
    Local order: a lead-interreduced standard basis (tails kept, since tail
    reduction need not terminate in the local ring).  The completion is
    the one cached on basis (see _standard); a tail reduction counts its
    steps on from it, against the same limit.  The result caches itself as
    its own standard basis, with those steps, so it is never completed
    again.
    """
    order = basis.order
    enc = _encoding(basis.nvars, order)
    gens, steps = _standard(basis)
    if order.is_global:
        counter = _Counter()
        counter.steps = steps
        gens = _tail_reduce(gens, enc, counter)
        steps = counter.steps
    out = ModuleBasis._of(basis.ambient_rank,
                          [unflatten_vector(g.flat, basis.ambient_rank, enc)
                           for g in gens], order)
    out._standard = ([_normalized(_integral(g.flat)[0], enc) for g in gens],
                     steps)
    out._completion = basis._completion  # of the same module
    return out


def quotient_dimension(basis: ModuleBasis):
    """dim_Q of O^r / <generators>, as a vector space; INFINITE if not finite.

    O is the local ring at the origin for a local order and the polynomial
    ring for a global one.  The dimension is the number of standard
    monomials: pairs (component, monomial) outside the leading-term module.
    """
    return _colength(_standard(basis)[0], basis.ambient_rank, basis.nvars)


def _colength(gens: list, r: int, nv: int):
    """The number of standard monomials of a standard basis gens of a
    submodule of O^r, O in nv variables; INFINITE if not finite."""
    if r and not gens:
        return INFINITE  # all of O^r; for r = 0 the sum below is 0
    lts: list = [[] for _ in range(r)]
    for g in gens:
        lts[g.comp].append(g.exp)
    total = 0
    counter = _Counter()
    for comp in range(r):
        exps = lts[comp]
        for i in range(nv):
            # Finite only if some leading term is a power of x_i (or 1).
            if not any(sum(e) == e[i] for e in exps):
                return INFINITE
        total += _staircase_size(exps, nv, counter)
    return total


def _staircase_size(exps: list, nv: int, counter: _Counter) -> int:
    """Number of monomials divisible by no element of exps, for a finite
    staircase.  Standard monomials are closed under division, so each one
    is reached from a smaller one by raising a single exponent: from m,
    raise exponent i for every i at or after the last nonzero exponent of
    m, which reaches every monomial exactly once.  Each visited monomial
    counts a step."""
    count = 0
    stack = [(0,) * nv]
    while stack:
        counter.tick()
        m = stack.pop()
        if any(exp_divides(e, m) for e in exps):
            continue
        count += 1
        last = max((i for i in range(nv) if m[i]), default=0)
        for i in range(last, nv):
            stack.append(m[:i] + (m[i] + 1,) + m[i + 1:])
    return count


# -- stacks: syzygies, modulo, membership certificates, homology --------------

class _Stack:
    """The module of the (f_j, e_j) in O^(rank + len(flats)), f_j the given
    flats of O^rank and e_j unit vectors, completed under the global order
    in its upper block only: the order is position-over-term with the upper
    components first (the keys of the upper block lie below enc.base(rank),
    those of the lower block above it), and only elements with an upper
    leading term are paired.  So upper() is a Groebner basis of the module
    M of the f_j (and of the seed), each element carrying in its lower block
    its expression in the f_j; dividing (v, 0) by it until the upper block
    dies gives a membership certificate for v.  Each (f_j, e_j) enters
    through run(), divided by the elements before it; the elements with a
    vanishing upper block, never paired, are those entry remainders and
    the reduced s-vectors of upper pairs, and by Schreyer's theorem
    (Greuel-Pfister, A Singular Introduction to Commutative Algebra, 2.5)
    their lower blocks, relations(), generate all a with (0, a) in the
    module, locally too.

    standard: a Groebner basis of a submodule N of O^rank, as normalized
    _Gens, which enters first as the (g, 0), its mutual pairs treated;
    the relations are then those of the f_j modulo N (Greuel-Pfister
    2.8).  With no seed, N = 0.
    """

    def __init__(self, flats: list, rank: int, enc: _Encoding,
                 standard: Sequence[_Gen] = ()):
        self.rank, self.enc = rank, enc
        completion = _Completion(enc, rank + len(flats), _Counter(),
                                 paired_rank=rank)
        completion.add_standard(standard)
        completion.run([{**vec, enc.unit(rank + j): den}
                        for j, (vec, den) in enumerate(map(_integral, flats))])
        self.gens = completion.gens
        self._seed: Optional[list] = None
        # The completion is deterministic, so this is the least budget
        # under which it can be built.
        self.steps = completion.counter.steps

    def reused(self) -> _Stack:
        """self, taken from a cache: under a step limit smaller than the
        steps its build took it raises, as a fresh build would."""
        if self.steps > step_limit():
            raise StepLimitExceeded(step_limit())
        return self

    def upper(self) -> list:
        return [g for g in self.gens if g.comp < self.rank]

    def relations(self) -> list:
        """The lower blocks, as flats in O^len(flats): a generating set, not
        lead-interreduced, since that is sound only for a standard basis."""
        base = self.enc.base(self.rank)
        return [{k - base: c for k, c in g.flat.items()}
                for g in self.gens if g.comp >= self.rank]

    def seed(self) -> list:
        """A Groebner basis of M: the upper blocks of the lead-interreduced
        upper(), as normalized _Gens, built on the first call and kept."""
        if self._seed is None:
            enc = self.enc
            base = enc.base(self.rank)
            self._seed = [
                _normalized({k: c for k, c in g.flat.items() if k < base},
                            enc)
                for g in _lead_interreduce(self.upper(), enc)]
        return self._seed

    def modulo(self, flats: list, enc: _Encoding) -> list:
        """Generators of {a : sum a_i z_i in M}, z_i the flats (packed by
        enc) of O^rank: the relations of their stack seeded by seed()."""
        return _Stack(flats, self.rank, enc, self.seed()).relations()


def _stacked(basis: ModuleBasis) -> _Stack:
    """The stack of the generators of basis, built once and cached on it."""
    if basis._stacked is None:
        enc = _encoding(basis.nvars, GLOBAL)
        basis._stacked = _Stack(
            [flatten_vector(g, enc) for g in basis.generators],
            basis.ambient_rank, enc)
    return basis._stacked.reused()


def _column_stack(m) -> _Stack:
    """The stack of every column of the matrix m, zero columns included;
    its relations generate ker(m: O^c -> O^r)."""
    enc = _encoding(m.nvars, GLOBAL)
    return _Stack([flatten_vector(m.column(j), enc) for j in range(m.cols)],
                  m.rows, enc)


def syzygies_of_basis(basis: ModuleBasis) -> list:
    """Generators of the syzygy module {w : sum w_j g_j = 0} in O^len(gens),
    global or local.  A generating set (Schreyer's theorem), not a standard
    basis: the stacked completion that finds them pairs only elements with
    a nonzero upper block (see _Stack).  member() certificates, which
    divide by that upper block only, are the same as after a full
    completion."""
    enc = _encoding(basis.nvars, GLOBAL)
    return [unflatten_vector(flat, len(basis.generators), enc)
            for flat in _stacked(basis).relations()]


def syzygies(m):
    """Syzygy matrix of a polynomial matrix: columns generate ker(m: O^c -> O^r).

    Returns a PolyMatrix z with m * z = 0 whose columns generate all
    relations among the columns of m over the polynomial ring, and so over
    the local ring too.  The columns are a generating set (Schreyer's
    theorem), not a standard basis of the kernel, and need not be minimal.
    """
    from .matalg import PolyMatrix
    enc = _encoding(m.nvars, GLOBAL)
    return PolyMatrix.from_columns(
        m.cols, [unflatten_vector(flat, m.cols, enc)
                 for flat in _column_stack(m).relations()], m.nvars)


def _check_vectors(vectors: Sequence[Vector], basis: ModuleBasis) -> None:
    """Raise ValueError unless every vector lies in O^r of basis's ring."""
    for v in vectors:
        if len(v) != basis.ambient_rank:
            raise ValueError("vector rank does not match ambient rank")
        if basis.nvars is not None and any(p.nvars != basis.nvars for p in v):
            raise ValueError("ring mismatch: a vector outside the ring of the "
                             f"module, in {basis.nvars} variables")


def modulo(vectors: Sequence[Vector], basis: ModuleBasis) -> list:
    """Generators of {a in O^t : sum a_i z_i in M}, with z_1..z_t the given
    vectors of O^r and M the module of basis (Singular's modulo;
    Greuel-Pfister, A Singular Introduction to Commutative Algebra, 2.8).
    It is computed globally, which generates the local answer too, from the
    stack of basis cached on it (see _Stack), and counts its own steps
    against the step limit.
    """
    t = len(vectors)
    if not t:
        return []
    _check_vectors(vectors, basis)
    enc = _encoding(vectors[0][0].nvars, GLOBAL)
    return [unflatten_vector(flat, t, enc)
            for flat in _stacked(basis).modulo(
                [flatten_vector(z, enc) for z in vectors], enc)]


def _homology_colength(cycles: _Stack, boundaries: Optional[_Stack]):
    """dim_Q of ker(m) / B over the local ring: 0, a count or INFINITE.

    cycles is the stack of the columns of a matrix m, and boundaries that
    of a matrix whose image B lies in ker(m), or None for B = 0, where the
    answer is 0 or INFINITE.  The relations z_1..z_t of cycles generate
    ker(m), locally too, and the answer is the colength of O^t / R, R the
    a with sum a_i z_i in B.  The seed of boundaries, a Groebner basis of B,
    is built once and kept on that stack.  A stack of rank 0 (of d_0) has the
    unit vectors as its z, so R is B itself, spanned by the seed.  Otherwise
    each z_i is divided by the seed first: one that reduces to 0 lies in B
    (globally, so locally too) and is dropped, which leaves the quotient
    unchanged; if none is left the answer is 0, else R is boundaries.modulo
    of the remainders h_i, from the same seed, so no z_i is divided by it
    twice: h_i is a nonzero multiple of z_i minus an element of B, so the
    quotient is the same.  R stays flat: it is re-keyed for the local order
    (_Encoding.localized rewrites the degree fields alone) and completed
    there.  The divisions, the colon stack and the local completion each
    count their own steps against the step limit.
    """
    z = cycles.relations()
    if not z:
        return 0
    if boundaries is None:
        return INFINITE
    glob = cycles.enc
    seed = boundaries.seed()
    if cycles.rank == 0:
        relations = [g.flat for g in seed]
    else:
        counter = _Counter()
        z = [h for flat in z
             if (h := _normal_form(flat, seed, glob, counter)[0])]
        if not z:
            return 0
        relations = boundaries.modulo(z, glob)
    t = len(z)
    enc = _encoding(glob.nvars, LOCAL)
    local = [glob.localized(flat) for flat in relations]
    return _colength(_complete(local, enc, t, _Counter()).standard()[0], t,
                     enc.nvars)


class MemberResult(_Record):
    """Outcome of a membership test.

    On success (contains=True) the exact identity
        unit * vec = sum coefficients[j] * generators[j]
    holds in the polynomial ring, with unit = 1 for a global order and
    unit(0) != 0 for a local one.  On failure unit = 1 and remainder is the
    nonzero global remainder of vec.
    """

    FIELDS = ("contains", "coefficients", "unit", "remainder")

    def __init__(self, contains: bool, coefficients: tuple, unit: Poly,
                 remainder: tuple):
        self.contains, self.coefficients = contains, coefficients
        self.unit, self.remainder = unit, remainder


def member(vec, basis: ModuleBasis) -> MemberResult:
    """Decide membership of a vector (or Poly, for rank 1) with certificate.

    The certificate satisfies unit * vec == sum coefficients[i] *
    generators[i] + remainder in the polynomial ring.  Under a local order
    unit is the first generator a of the colon module([vec], basis) with
    a(0) != 0, which exists exactly when vec lies in the local module; else
    unit == 1, as under a global order.  For a bare Poly input the
    remainder is returned as a bare Poly as well.
    """
    scalar = isinstance(vec, Poly)
    if scalar:
        vec = (vec,)
    vec = tuple(vec)
    if basis.ambient_rank == 0:
        raise ValueError("member() needs a module of positive rank: in "
                         "rank 0 there is no polynomial to take the ring from")
    _check_vectors([vec], basis)
    is_zero = all(p.is_zero() for p in vec)
    nv = vec[0].nvars
    unit = Poly.constant(nv, 1)
    if is_zero or not basis.generators:
        # Nothing to divide, or nothing to divide by: vec is its own
        # remainder.
        zero = tuple(Poly.zero(nv) for _ in basis.generators)
        return MemberResult(is_zero, zero, unit, vec[0] if scalar else vec)
    if not basis.order.is_global:
        a = next((a for a, in modulo([vec], basis) if a.constant_term()),
                 None)
        if a is not None:
            unit, vec = a, tuple(a * p for p in vec)
    enc, r = _encoding(nv, GLOBAL), basis.ambient_rank
    flat, den = _integral(flatten_vector(vec, enc))
    h, scale = _normal_form(flat, _stacked(basis).upper(), enc, _Counter())
    scale *= den
    base = enc.base(r)
    upper = {k: _scalar(Fraction(c, scale)) for k, c in h.items() if k < base}
    lower = {k - base: _scalar(Fraction(-c, scale))
             for k, c in h.items() if k >= base}
    remainder = unflatten_vector(upper, r, enc)
    return MemberResult(not upper,
                        unflatten_vector(lower, len(basis.generators), enc),
                        unit, remainder[0] if scalar else remainder)
