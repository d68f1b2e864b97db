"""Matrices of polynomials and matrix families.

A PolyMatrix is a rows x cols grid of Poly entries over one ring; its
arithmetic skips zero entries, and a constant entry multiplies as a scalar
because Poly's own product treats a constant factor so.
A MatrixFamily is a square PolyMatrix together with its symmetry kind
(symmetric, skew, general) and is the basic input object downstream:
its determinant or Pfaffian is the function whose singularity theory is
being measured.

Also here: adjugates, Pfaffians, the sub-Pfaffian matrix (the skew
analogue of the adjugate, satisfying P* S = S P* = Pf(S) I), ideals of
submaximal minors, and the fixed coordinate conventions for the spaces
of symmetric, skew and trace-free matrices that the resolution and
tangent-space code relies on.  Each matrix object has one construction:
cofactors and minors come from one minor memo of the matrix itself,
sub-Pfaffians from one Pfaffian memo, the generic family of a kind and
size from unflatten, and every basis, coordinate map and product with a
basis matrix from one sparse form of the bases (_sparse_basis).

Coordinate conventions (all row-major):
  general n x n   entry basis E_ij, coordinates (i, j) for all i, j
  symmetric       upper triangle i <= j; basis E_ii and E_ij + E_ji (i < j)
  skew            strict upper triangle i < j; basis E_ij - E_ji
  trace free      off-diagonal E_ij (i != j) first, then the n-1 diagonal
                  differences E_ii - E_(i+1)(i+1); the coordinates of a
                  trace-free W are its off-diagonal entries followed by the
                  partial sums W_00, W_00 + W_11, ...
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from typing import Callable, List, Optional, Sequence

from .groebner import LOCAL, ModuleBasis
from .poly import Poly, SubstitutionMap, _Record, partial, substitute

KINDS = ("symmetric", "skew", "general")


class PolyMatrix:
    """A rows x cols matrix of polynomials over a common ring.

    The public constructor validates its input; arithmetic and the
    classmethod constructors build their results through the unchecked _of.
    Products walk only the nonzero entries of each row; zero entries pass
    through every entrywise operation.
    """

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]],
                 nvars: Optional[int] = None, cols: Optional[int] = None):
        rows = [tuple(r) for r in entries]
        nr = len(rows)
        nc = len(rows[0]) if nr else (cols if cols is not None else 0)
        if cols is not None and cols != nc:
            raise ValueError(f"rows have {nc} entries, expected cols={cols}")
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged matrix rows")
        nv = nvars
        for r in rows:
            for p in r:
                if not isinstance(p, Poly):
                    raise TypeError("matrix entries must be Poly")
                if nv is None:
                    nv = p.nvars
                elif p.nvars != nv:
                    raise ValueError("entries live in different rings")
        if nv is None:
            raise ValueError("empty matrix needs an explicit nvars")
        self.rows = nr
        self.cols = nc
        self.nvars = nv
        self.entries = tuple(rows)

    @classmethod
    def _of(cls, entries: Sequence[Sequence[Poly]], nvars: int,
            cols: int) -> "PolyMatrix":
        """A matrix of rows the caller built from Polys of ring nvars,
        each of length cols, without checks: internal use only."""
        m = object.__new__(cls)
        m.rows = len(entries)
        m.cols = cols
        m.nvars = nvars
        m.entries = tuple(map(tuple, entries))
        return m

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = Poly.zero(nvars)
        return cls._of([(z,) * cols] * rows, nvars, cols)

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        one = Poly.constant(nvars, 1)
        z = Poly.zero(nvars)
        return cls._of([[one if i == j else z for j in range(n)]
                        for i in range(n)], nvars, n)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[Poly]],
                     nvars: int) -> "PolyMatrix":
        if not columns:
            return cls.zeros(rows, 0, nvars)
        for c in columns:
            if len(c) != rows:
                raise ValueError("column length mismatch")
        return cls._of(list(zip(*columns)), nvars, len(columns))

    # -- access ---------------------------------------------------------------

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} in {self.nvars} vars)"

    # -- arithmetic -----------------------------------------------------------

    def _same_ring(self, nvars: int) -> None:
        # Entries that pass through untouched skip Poly's own ring check.
        if nvars != self.nvars:
            raise ValueError("matrices live in different rings")

    def _same_shape(self, other: "PolyMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        self._same_ring(other.nvars)

    def map_entries(self, fn: Callable[[Poly], Poly]) -> "PolyMatrix":
        """fn applied to the nonzero entries; zero entries pass through."""
        return PolyMatrix._of([[fn(a) if a.terms else a for a in r]
                               for r in self.entries], self.nvars, self.cols)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._same_shape(other)
        return PolyMatrix._of(
            [[(a + b if a.terms else b) if b.terms else a
              for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)],
            self.nvars, self.cols)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._same_shape(other)
        return PolyMatrix._of(
            [[(a - b if a.terms else -b) if b.terms else a
              for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)],
            self.nvars, self.cols)

    def __neg__(self) -> "PolyMatrix":
        return self.map_entries(Poly.__neg__)

    def scale(self, c) -> "PolyMatrix":
        """Every entry times c, a Poly or a rational number."""
        if isinstance(c, Poly):
            self._same_ring(c.nvars)
        return self.map_entries(lambda a: a * c)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        self._same_ring(other.nvars)
        sparse = [[(j, b) for j, b in enumerate(r) if b.terms]
                  for r in other.entries]
        z = Poly.zero(self.nvars)
        out = []
        for r in self.entries:
            acc = [None] * other.cols
            for a, row in zip(r, sparse):
                if not (row and a.terms):
                    continue
                for j, b in row:
                    p = a * b
                    s = acc[j]
                    acc[j] = p if s is None else s + p
            out.append([z if s is None else s for s in acc])
        return PolyMatrix._of(out, self.nvars, other.cols)

    def apply_map(self, f: SubstitutionMap) -> "PolyMatrix":
        """Entrywise substitution; the result lives in the source ring of f."""
        return PolyMatrix._of([[substitute(p, f) for p in r]
                               for r in self.entries],
                              f.source_nvars, self.cols)


# -- determinant, adjugate, pfaffian ------------------------------------------

def _minors(m: PolyMatrix) -> Callable[[tuple, tuple], Poly]:
    """Determinants of the square submatrices of m, by expansion along the
    first row, all sharing one memo keyed by (rows, cols)."""
    nv = m.nvars
    memo: dict = {}

    def minor(rows: tuple, cols: tuple) -> Poly:
        if not rows:
            return Poly.constant(nv, 1)
        if len(rows) == 1:
            return m.entries[rows[0]][cols[0]]
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        acc = Poly.zero(nv)
        row = m.entries[rows[0]]
        for pos, c in enumerate(cols):
            e = row[c]
            if not e.terms:
                continue
            term = e * minor(rows[1:], cols[:pos] + cols[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    return minor


def determinant(m: PolyMatrix) -> Poly:
    """Exact determinant by minor expansion with subset memoization."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    full = tuple(range(m.rows))
    return _minors(m)(full, full)


def adjugate(m: PolyMatrix) -> PolyMatrix:
    """The transposed cofactor matrix; adjugate(m) @ m = det(m) * I.
    All cofactors share one minor memo.  The adjugate of a symmetric m is
    symmetric, so then only the cofactors with i <= j are expanded."""
    if not m.is_square():
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    ent = m.entries
    symmetric = all(ent[i][j] == ent[j][i]
                    for i in range(n) for j in range(i + 1, n))
    minor = _minors(m)
    out = [[Poly.zero(m.nvars)] * n for _ in range(n)]
    for i in range(n):
        rows = tuple(k for k in range(n) if k != i)
        for j in range(i if symmetric else 0, n):
            c = minor(rows, tuple(k for k in range(n) if k != j))
            out[j][i] = c if (i + j) % 2 == 0 else -c
            if symmetric:
                out[i][j] = out[j][i]
    return PolyMatrix._of(out, m.nvars, n)


def _check_skew(m: PolyMatrix) -> None:
    if not m.is_square():
        raise ValueError("skew operations need a square matrix")
    for i in range(m.rows):
        if m.entries[i][i].terms:
            raise ValueError(f"nonzero diagonal entry at row {i + 1}")
        for j in range(i + 1, m.cols):
            if m.entries[i][j] != -m.entries[j][i]:
                raise ValueError("skew symmetry violated at row "
                                 f"{i + 1}, column {j + 1}")


def _pfaffians(m: PolyMatrix) -> Callable[[tuple], Poly]:
    """Pfaffians of the principal submatrices of a skew m on increasing
    index tuples, all sharing one memo.  Expansion along the first index:
      Pf = sum_j (-1)^j m[i0, i_j] Pf(m with rows/cols i0, i_j removed).
    """
    nv = m.nvars
    memo: dict = {}

    def pf(indices: tuple) -> Poly:
        if not indices:
            return Poly.constant(nv, 1)
        got = memo.get(indices)
        if got is not None:
            return got
        i0 = indices[0]
        rest = indices[1:]
        acc = Poly.zero(nv)
        for pos, j in enumerate(rest):
            e = m.entries[i0][j]
            if not e.terms:
                continue
            term = e * pf(rest[:pos] + rest[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[indices] = acc
        return acc

    return pf


def pfaffian(m: PolyMatrix) -> Poly:
    """Pfaffian of a skew matrix of even size, Pf(m)^2 = det(m)."""
    _check_skew(m)
    if m.rows % 2 != 0:
        raise ValueError("pfaffian needs an even-size matrix")
    return _pfaffians(m)(tuple(range(m.rows)))


def sub_pfaffian_matrix(m: PolyMatrix) -> PolyMatrix:
    """The skew analogue P* of the adjugate: P* m = m P* = Pf(m) I.

    P*[i][j] = (-1)^(i+j) Pf(m without rows/cols i, j) for i < j, and
    P*[j][i] = -P*[i][j].  All sub-pfaffians share one pfaffian memo of m,
    as the cofactors of adjugate share one minor memo; the defining
    identity is checked on every result, as P* m = Pf(m) I alone: P* and m
    are skew, so m P* = (P* m)^T.
    """
    _check_skew(m)
    n = m.rows
    if n % 2 != 0:
        raise ValueError("sub-pfaffian matrix needs an even-size matrix")
    pf = _pfaffians(m)
    ent = [[Poly.zero(m.nvars)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sub = pf(tuple(k for k in range(n) if k != i and k != j))
            ent[i][j] = sub if (i + j) % 2 == 0 else -sub
            ent[j][i] = -ent[i][j]
    out = PolyMatrix._of(ent, m.nvars, n)
    pfid = PolyMatrix.identity(n, m.nvars).scale(pf(tuple(range(n))))
    if out @ m != pfid:
        raise AssertionError("sub-pfaffian identity failed")
    return out


# -- matrix families ----------------------------------------------------------

class MatrixFamily(_Record):
    """A square matrix of polynomials with a declared symmetry kind.

    kind is one of 'symmetric', 'skew', 'general'; the structural
    constraints are validated on construction, and an error names rows and
    columns counted from 1, as the input format does.  entries is the n x n
    matrix itself, and m its number of parameters (ring variables).
    """

    FIELDS = ("kind", "entries")

    def __init__(self, kind: str, entries: PolyMatrix):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", entries)
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        e = self.entries
        if not e.is_square():
            raise ValueError("matrix is not square")
        if self.kind == "symmetric":
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if e.entries[i][j] != e.entries[j][i]:
                        raise ValueError(f"symmetry violated at row {i + 1}, "
                                         f"column {j + 1}")
        elif self.kind == "skew":
            _check_skew(e)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFamily is immutable")

    @property
    def n(self) -> int:
        return self.entries.rows

    @property
    def m(self) -> int:
        return self.entries.nvars

    def function(self) -> Poly:
        """det for symmetric/general families, Pf for skew ones."""
        if self.kind == "skew":
            return pfaffian(self.entries)
        return determinant(self.entries)

    def as_map(self) -> SubstitutionMap:
        """The family as a map from parameter space to matrix space,
        in the flattening coordinates of its kind."""
        return SubstitutionMap(flatten(self.kind, self.entries))

    def partial(self, i: int) -> PolyMatrix:
        return self.entries.map_entries(lambda p: partial(p, i))


def generic_family(kind: str, n: int) -> MatrixFamily:
    """The generic family of its kind: every independent entry is its own
    variable, so the parameter count is the dimension of the matrix space."""
    nv = space_dim(kind, n)
    coords = [Poly.variable(nv, k) for k in range(nv)]
    return MatrixFamily(kind, unflatten(kind, coords, n, nv))


def minors_ideal(fam: MatrixFamily, size: int) -> ModuleBasis:
    """The ideal of size x size minors (symmetric/general) or of
    size x size sub-pfaffians (skew, even size), as a rank-1 module basis
    over the local order.  Size 0 gives the unit ideal.  All minors share
    one minor memo of the family matrix, all sub-pfaffians one pfaffian
    memo."""
    n = fam.n
    if not 0 <= size <= n:
        raise ValueError("minor size out of range")
    subsets = list(combinations(range(n), size))
    if fam.kind == "skew":
        if size % 2 != 0:
            raise ValueError("sub-pfaffians need an even size")
        pf = _pfaffians(fam.entries)
        gens = [pf(rows) for rows in subsets]
    else:
        minor = _minors(fam.entries)
        gens = [minor(rows, cols) for rows in subsets for cols in subsets]
    return ModuleBasis(1, [(g,) for g in gens], LOCAL)


# -- coordinate conventions ----------------------------------------------------

def space_dim(kind: str, n: int) -> int:
    return len(_sparse_basis(kind, n))


def flatten(kind: str, m: PolyMatrix) -> List[Poly]:
    """Coordinates of a matrix in the fixed basis of its kind's space."""
    ent = m.entries
    return [ent[b[0][0]][b[0][1]] for b in _sparse_basis(kind, m.rows)]


def unflatten(kind: str, coords: Sequence[Poly], n: int,
              nvars: int) -> PolyMatrix:
    """The matrix with the given coordinates in the basis of kind's space."""
    coords = list(coords)
    basis = _sparse_basis(kind, n)
    if len(coords) != len(basis):
        raise ValueError(f"{len(coords)} coordinates for a space of "
                         f"dimension {len(basis)}")
    z = Poly.zero(nvars)
    ent = [[z] * n for _ in range(n)]
    for p, b in zip(coords, basis):
        for i, j, c in b:
            ent[i][j] = p * c
    return PolyMatrix(ent, nvars)


# -- the Lie-algebra bases, as placements of rows and columns -----------------

@cache
def _sparse_basis(kind: str, n: int) -> tuple:
    """The basis of kind's space in its coordinate order, or for kind 'sl'
    the trace-free one, each matrix as the tuple of its nonzero entries
    (i, j, c); flatten reads each coordinate at the first entry."""
    if kind == "general":
        return tuple(((i, j, 1),) for i in range(n) for j in range(n))
    if kind == "symmetric":
        return tuple(((i, j, 1),) if i == j else ((i, j, 1), (j, i, 1))
                     for i in range(n) for j in range(i, n))
    if kind == "skew":
        return tuple(((i, j, 1), (j, i, -1))
                     for i in range(n) for j in range(i + 1, n))
    if kind == "sl":
        return tuple([((i, j, 1),) for i in range(n) for j in range(n)
                      if i != j]
                     + [((i, i, 1), (i + 1, i + 1, -1))
                        for i in range(n - 1)])
    raise ValueError(f"unknown kind {kind!r}")


def _placed(b: tuple, m: PolyMatrix, left: bool) -> dict:
    """B m (left) or m B for a basis matrix B of _sparse_basis, as a sparse
    matrix (row, col) -> Poly, with no product multiplied out: for each
    entry (i, j, c) of B, B m takes row j of m times c into row i, and m B
    takes column i into column j."""
    out: dict = {}
    for i, j, c in b:
        line = m.entries[j] if left else [r[i] for r in m.entries]
        for k, p in enumerate(line):
            if p.terms:
                key = (i, k) if left else (k, j)
                q, s = p * c, out.get(key)
                out[key] = q if s is None else s + q
    return out


def _trace_times(m: PolyMatrix, b: tuple) -> Poly:
    """trace(m B) for a basis matrix B of _sparse_basis."""
    (i, j, c), *rest = b
    return sum((m.entries[l][k] * e for k, l, e in rest),
               m.entries[j][i] * c)


@cache
def _targets(kind: str, n: int, twin: int) -> dict:
    """(i, j) -> the (coordinate, factor) pairs that entry (i, j) of d adds
    to in the coordinates of d + twin d^T (see _coords): the coordinate
    read at (i, j) (see flatten) with factor 1, and the one read at (j, i)
    with factor twin."""
    at = {b[0][:2]: pos for pos, b in enumerate(_sparse_basis(kind, n))}
    return {(i, j): tuple((at[key], c) for key, c in (((i, j), 1),
                                                      ((j, i), twin))
                          if c and key in at)
            for i in range(n) for j in range(n)}


def _coords(kind: str, d: dict, n: int, z, twin: int = 0) -> list:
    """Coordinates of d + twin d^T in the basis of kind's space, for a
    sparse matrix d that is kind's own once twin d^T is added; z is the
    zero of its entries.  Only the entries of d are visited."""
    to = _targets(kind, n, twin)
    out = [z] * space_dim(kind, n)
    for key, p in d.items():
        for pos, c in to[key]:
            q = p * c
            out[pos] = out[pos] + q if out[pos].terms else q
    return out


def _sl_coords(d: dict, n: int, z, centred: bool = False) -> list:
    """Coordinates of a trace-free sparse matrix d with zero z, or with
    centred of d - trace(d)/n I: its off-diagonal entries row-major, then
    the n-1 leading partial sums of its diagonal.  Raises if the trace is
    not identically zero."""
    out = [z] * (n * n - n)
    diag = [z] * n
    for (i, j), p in d.items():
        if i == j:
            diag[i] = p
        else:
            out[i * (n - 1) + j - (j > i)] = p  # row-major, diagonal skipped
    if centred:
        t = sum(diag, z) * Fraction(1, n)
        diag = [p - t for p in diag]
    sums = list(accumulate(diag))
    if sums and sums[-1].terms:
        raise ValueError("matrix has nonzero trace")
    return out + sums[:-1]


def _lie_images(kind: str, s: PolyMatrix, flavour: str, z=None) -> list:
    """Flattened images of the Lie-algebra action on a matrix S of kind,
    over the basis of sl (flavour 'special') or of gl ('general'):
    A^t S + S A for symmetric and skew S, which is S A plus or minus its
    transpose, and for general S first every A S, then every S B.  z is
    the zero entry, by default the zero Poly of S's ring."""
    if flavour not in ("special", "general"):
        raise ValueError(f"unknown flavour {flavour!r}")
    n = s.rows
    if z is None:
        z = Poly.zero(s.nvars)
    basis = _sparse_basis("sl" if flavour == "special" else "general", n)
    if kind == "general":
        return [tuple(_coords(kind, _placed(b, s, left), n, z))
                for left in (True, False) for b in basis]
    twin = 1 if kind == "symmetric" else -1
    return [tuple(_coords(kind, _placed(a, s, False), n, z, twin))
            for a in basis]
