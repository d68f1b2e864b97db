"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in m variables is stored as a mapping from exponent vectors
(length-m tuples of nonnegative ints) to nonzero rational coefficients.
The zero polynomial is the empty mapping.  All operations return canonical
results: no zero coefficient is ever stored, an integral coefficient is an
int and any other a Fraction (so of denominator > 1), and two polynomials
are equal iff their term mappings are equal.

  x0^2 * x1 + 1/2  ->  {(2, 1): 1, (0, 0): Fraction(1, 2)}

Coefficients are rational (arbitrary precision).  Every dimension and rank
computed downstream is insensitive to enlarging the coefficient field, and
several chain-map formulas carry 1/2 factors, so exact rationals are the
right base ring.  Most coefficients are integers and stay ints, since int
arithmetic is far cheaper than Fraction arithmetic (Singular's longrat
keeps small integers immediate for the same reason).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction]
ExpVec = Tuple[int, ...]


def _scalar(c) -> Scalar:
    """The canonical coefficient of the rational c: an int if c is
    integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(terms: dict) -> dict:
    """terms with every Fraction of denominator 1 made an int, in place;
    values are replaced, never added or removed."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def exp_divides(a: ExpVec, b: ExpVec) -> bool:
    """True iff the monomial with exponents a divides the one with b."""
    return all(map(operator.le, a, b))


def exp_lcm(a: ExpVec, b: ExpVec) -> ExpVec:
    """Least common multiple of two monomials."""
    return tuple(map(max, a, b))


class _Record:
    """Base of the package's record classes: == and repr over the names in
    FIELDS, in declaration order and in the text a dataclass gives.  Other
    attributes (caches) are ignored; instances are unhashable."""

    FIELDS: Tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self.FIELDS]
                == [getattr(other, f) for f in self.FIELDS])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__qualname__}({args})"


class Poly:
    """An exact multivariate polynomial with rational coefficients.

    Instances are treated as immutable: no method mutates self, and the
    term dict must not be modified after construction.  This makes sharing
    across threads and memoization safe.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[ExpVec, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[ExpVec, Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent vector {exp} has length {len(exp)}, expected {nvars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _scalar(coeff)
                if c:
                    clean[tuple(exp)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap a term dict without checks: internal use only.  The caller
        guarantees canonical terms: exponent tuples of length nvars and
        nonzero coefficients, each an int or a Fraction of denominator > 1,
        in a dict nobody mutates later."""
        result = object.__new__(cls)
        object.__setattr__(result, "nvars", nvars)
        object.__setattr__(result, "terms", terms)
        return result

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(exp): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * self.nvars, 0))

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exp), 0))

    def __iter__(self) -> Iterator[tuple[ExpVec, Scalar]]:
        return iter(self.terms.items())

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return Poly._of(self.nvars, _canonical(out))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        """The product.  A rational factor, or a constant Poly after the ring
        check, acts as a scalar: 1 returns the other operand itself and -1
        its negation."""
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
        elif isinstance(other, Poly):
            self._check_compatible(other)
            if len(self.terms) == 1 and not any(next(iter(self.terms))):
                self, other = other, self  # the constant goes last
            if len(other.terms) != 1 or any(next(iter(other.terms))):
                out: dict[ExpVec, Scalar] = {}
                for ea, ca in self.terms.items():
                    for eb, cb in other.terms.items():
                        exp = tuple(x + y for x, y in zip(ea, eb))
                        s = out.get(exp, 0) + ca * cb
                        if s:
                            out[exp] = s
                        elif exp in out:
                            del out[exp]
                return Poly._of(self.nvars, _canonical(out))
            (c,) = other.terms.values()
        else:
            return NotImplemented
        if c == 1:
            return self
        if c == -1:
            return -self
        if not c:
            return Poly.zero(self.nvars)
        return Poly._of(self.nvars, _canonical(
            {e: k * c for e, k in self.terms.items()}))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise ValueError("point arity mismatch")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exp, vals):
                if e:
                    term *= v ** e
            total += term
        return total

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


class SubstitutionMap:
    """A polynomial map recorded by its component polynomials.

    The map sends a point x of the source space to
    (images[0](x), ..., images[n-1](x)).  All images live in the same
    source ring (same number of source variables).  Substituting through
    the map pulls a polynomial in n target variables back to a polynomial
    in the source variables.

    Maps used as germs at the origin usually satisfy images[i](0) = 0, but
    this is not forced: families may translate the base point (constant
    blocks, constant components), and pulling back a complex through such
    a map is still well defined.

    The map memoises the expanded image of every target monomial that
    ``substitute`` has pulled back through it, so every pullback along one
    map shares that work.  The memo is a pure cache that lives and dies
    with the map: it never changes what the map computes, and equality
    ignores it, so the map is still immutable as a value.
    """

    __slots__ = ("images", "source_nvars", "_monomial_images")

    def __init__(self, images: Sequence[Poly]):
        images = tuple(images)
        if not images:
            raise ValueError("a substitution map needs at least one image")
        src = images[0].nvars
        for p in images:
            if p.nvars != src:
                raise ValueError("images live in different source rings")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "source_nvars", src)
        # Target exponent vector -> its image; 1 maps to 1.
        object.__setattr__(self, "_monomial_images",
                           {(0,) * len(images): Poly.constant(src, 1)})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SubstitutionMap is immutable")

    @property
    def target_nvars(self) -> int:
        return len(self.images)

    def jacobian_column(self, i: int) -> tuple[Poly, ...]:
        """Partials of all components with respect to source variable i."""
        return tuple(partial(p, i) for p in self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubstitutionMap) and self.images == other.images

    def __repr__(self) -> str:
        return f"SubstitutionMap({[format_poly(p) for p in self.images]})"


# -- the module-level operations -------------------------------------------

def _monomial_image(f: SubstitutionMap, exp: ExpVec) -> Poly:
    """The image of the monomial x^exp under f, memoised on f.

    A missing monomial is its predecessor (the last nonzero exponent
    lowered by one) times one image; predecessors are filled in first.
    """
    memo = f._monomial_images
    chain = []
    while exp not in memo:
        i = max(k for k, e in enumerate(exp) if e)
        chain.append((exp, i))
        exp = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
    got = memo[exp]
    for exp, i in reversed(chain):
        memo[exp] = got = got * f.images[i]
    return got


def substitute(p: Poly, f: SubstitutionMap) -> Poly:
    """Replace variable i of p by f.images[i] and expand.

    p must have exactly as many variables as f has images; the result lives
    in the source ring of f.  Monomial images come from the memo on f.
    """
    if p.nvars != f.target_nvars:
        raise ValueError(
            f"arity mismatch: polynomial in {p.nvars} variables, map has "
            f"{f.target_nvars} images")
    out: dict[ExpVec, Scalar] = {}
    for exp, coeff in sorted(p.terms.items()):
        for e, c in _monomial_image(f, exp).terms.items():
            s = out.get(e, 0) + coeff * c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly._of(f.source_nvars, _canonical(out))


def partial(p: Poly, i: int) -> Poly:
    """Formal partial derivative of p with respect to variable i."""
    if not 0 <= i < p.nvars:
        raise ValueError(f"variable index {i} out of range for {p.nvars} variables")
    out: dict[ExpVec, Scalar] = {}
    for exp, coeff in p.terms.items():
        e = exp[i]
        if e == 0:
            continue
        new = list(exp)
        new[i] = e - 1
        out[tuple(new)] = coeff * e
    return Poly._of(p.nvars, _canonical(out))


def translate(p: Poly, a: Sequence[Scalar]) -> Poly:
    """The polynomial q(x) = p(x + a) for a rational point a."""
    if len(a) != p.nvars:
        raise ValueError("translation point arity mismatch")
    shifted = SubstitutionMap(
        [Poly.variable(p.nvars, i) + Fraction(a[i]) for i in range(p.nvars)])
    return substitute(p, shifted)


def default_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


def format_poly(p: Poly, names: Sequence[str] | None = None) -> str:
    """Render p in the input grammar (terms joined by + and -, '*' and '^').

    The output parses back to the same polynomial.  Terms are ordered by
    descending total degree, ties broken by exponent tuple, so the form is
    canonical.
    """
    if names is None:
        names = default_names(p.nvars)
    if len(names) != p.nvars:
        raise ValueError("wrong number of variable names")
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = p.terms[exp]
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
