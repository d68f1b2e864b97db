"""Matrices of polynomials and matrix families.

A PolyMatrix is a dense rows x cols grid of Poly entries over one ring.
A MatrixFamily is a square PolyMatrix together with its symmetry kind
(symmetric, skew, general) and is the basic input object downstream:
its determinant or Pfaffian is the function whose singularity theory is
being measured.

Also here: adjugates, Pfaffians, the sub-Pfaffian matrix (the skew
analogue of the adjugate, satisfying P* S = S P* = Pf(S) I), ideals of
submaximal minors, and the fixed coordinate conventions for the spaces
of symmetric, skew and trace-free matrices that the chain-map and
tangent-space code relies on.

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

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .groebner import LOCAL, ModuleBasis
from .poly import Poly, SubstitutionMap, substitute

KINDS = ("symmetric", "skew", "general")


class PolyMatrix:
    """A rows x cols matrix of polynomials over a common ring."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]],
                 nvars: Optional[int] = None, cols: Optional[int] = None):
        rows = [tuple(r) for r in entries]
        nr = len(rows)
        nc = len(rows[0]) if nr else (cols if cols is not None else 0)
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged matrix")
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

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = Poly.zero(nvars)
        return cls([[z] * cols for _ in range(rows)], nvars, cols=cols)

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        one = Poly.constant(nvars, 1)
        z = Poly.zero(nvars)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)],
                   nvars)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[Poly]],
                     nvars: int) -> "PolyMatrix":
        if not columns:
            return cls.zeros(rows, 0, nvars)
        for c in columns:
            if len(c) != rows:
                raise ValueError("column length mismatch")
        return cls([[columns[j][i] for j in range(len(columns))]
                    for i in range(rows)], nvars, cols=len(columns))

    @classmethod
    def block(cls, grid: Sequence[Sequence[Optional["PolyMatrix"]]],
              row_sizes: Sequence[int], col_sizes: Sequence[int],
              nvars: int) -> "PolyMatrix":
        """Assemble from a grid of blocks; None means a zero block."""
        total_r = sum(row_sizes)
        total_c = sum(col_sizes)
        z = Poly.zero(nvars)
        out = [[z] * total_c for _ in range(total_r)]
        r0 = 0
        for bi, rs in enumerate(row_sizes):
            c0 = 0
            for bj, cs in enumerate(col_sizes):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.rows != rs or blk.cols != cs:
                        raise ValueError(
                            f"block ({bi},{bj}) is {blk.rows}x{blk.cols}, "
                            f"expected {rs}x{cs}")
                    for i in range(rs):
                        for j in range(cs):
                            out[r0 + i][c0 + j] = blk.entries[i][j]
                c0 += cs
            r0 += rs
        return cls(out, nvars, cols=total_c)

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

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

    def _same_shape(self, other: "PolyMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._same_shape(other)
        return PolyMatrix([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)],
                          self.nvars, cols=self.cols)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._same_shape(other)
        return PolyMatrix([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)],
                          self.nvars, cols=self.cols)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-a for a in r] for r in self.entries],
                          self.nvars, cols=self.cols)

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[a * c for a in r] for r in self.entries],
                          self.nvars, cols=self.cols)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        z = Poly.zero(self.nvars)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out, self.nvars, cols=other.cols)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)], self.nvars,
                          cols=self.rows)

    def trace(self) -> Poly:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        t = Poly.zero(self.nvars)
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def map_entries(self, fn: Callable[[Poly], Poly],
                    nvars: Optional[int] = None) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in r] for r in self.entries],
                          nvars, cols=self.cols)

    def apply_map(self, f: SubstitutionMap) -> "PolyMatrix":
        """Entrywise substitution; the result lives in the source ring of f."""
        return PolyMatrix([[substitute(p, f) for p in r] for r in self.entries],
                          f.source_nvars, cols=self.cols)


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
    All n^2 cofactors share one minor memo."""
    if not m.is_square():
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    minor = _minors(m)
    out = [[Poly.zero(m.nvars)] * n for _ in range(n)]
    for i in range(n):
        rows = tuple(k for k in range(n) if k != i)
        for j in range(n):
            c = minor(rows, tuple(k for k in range(n) if k != j))
            out[j][i] = c if (i + j) % 2 == 0 else -c
    return PolyMatrix(out, m.nvars)


def _check_skew(m: PolyMatrix) -> None:
    if not m.is_square():
        raise ValueError("skew operations need a square matrix")
    for i in range(m.rows):
        if m.entries[i][i].terms:
            raise ValueError("nonzero diagonal in a skew matrix")
        for j in range(i + 1, m.cols):
            if m.entries[i][j] != -m.entries[j][i]:
                raise ValueError(f"skew symmetry violated at ({i},{j})")


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


# The generic sub-pfaffian matrices are derived once per size in a ring of
# n(n-1)/2 upper-entry variables, straight from one pfaffian memo, and
# instantiated by substitution afterwards.
_GENERIC_SUBPF: dict = {}


def _upper_index(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pairs, {p: k for k, p in enumerate(pairs)}


def _generic_skew(n: int) -> PolyMatrix:
    pairs, _ = _upper_index(n)
    nv = len(pairs)
    z = Poly.zero(nv)
    ent = [[z] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        v = Poly.variable(nv, k)
        ent[i][j] = v
        ent[j][i] = -v
    return PolyMatrix(ent, nv)


def _generic_subpf(n: int) -> PolyMatrix:
    """P*[i][j] = (-1)^(i+j) Pf(S without rows/cols i, j) for i < j, and
    P*[j][i] = -P*[i][j], for the generic skew S of size n."""
    got = _GENERIC_SUBPF.get(n)
    if got is not None:
        return got
    s = _generic_skew(n)
    pf = _pfaffians(s)
    ent = [[Poly.zero(s.nvars)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sub = pf(tuple(k for k in range(n) if k != i and k != j))
            ent[i][j] = sub if (i + j) % 2 == 0 else -sub
            ent[j][i] = -ent[i][j]
    out = PolyMatrix(ent, s.nvars)
    # Defining property, checked once per size.
    pfid = PolyMatrix.identity(n, s.nvars).scale(pf(tuple(range(n))))
    if (out @ s) != pfid or (s @ out) != pfid:
        raise AssertionError("sub-pfaffian identity failed in the generic case")
    _GENERIC_SUBPF[n] = out
    return out


def sub_pfaffian_matrix(m: PolyMatrix) -> PolyMatrix:
    """The skew analogue P* of the adjugate: P* m = m P* = Pf(m) I.

    Entries are signed sub-pfaffians of m: the generic-size matrix is built
    once per size from one pfaffian memo, then instantiated by substitution.
    """
    _check_skew(m)
    n = m.rows
    if n % 2 != 0:
        raise ValueError("sub-pfaffian matrix needs an even-size matrix")
    generic = _generic_subpf(n)
    pairs, _ = _upper_index(n)
    images = SubstitutionMap([m.entries[i][j] for (i, j) in pairs]) \
        if pairs else None
    if images is None:
        return PolyMatrix.identity(0, m.nvars)
    return generic.apply_map(images)


# -- matrix families ----------------------------------------------------------

@dataclass(frozen=True)
class MatrixFamily:
    """A square matrix of polynomials with a declared symmetry kind.

    kind is one of 'symmetric', 'skew', 'general'; the structural
    constraints are validated on construction.  m is the number of
    parameters (ring variables); entries is the n x n matrix itself.
    """

    kind: str
    n: int
    m: int
    entries: PolyMatrix

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        e = self.entries
        if not e.is_square() or e.rows != self.n:
            raise ValueError("entry matrix size does not match n")
        if e.nvars != self.m:
            raise ValueError("entry ring does not match parameter count m")
        if self.kind == "symmetric":
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if e.entries[i][j] != e.entries[j][i]:
                        raise ValueError(f"symmetry violated at ({i},{j})")
        elif self.kind == "skew":
            _check_skew(e)

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
        from .poly import partial as dp
        return self.entries.map_entries(lambda p: dp(p, i))


def generic_family(kind: str, n: int) -> MatrixFamily:
    """The generic family of its kind: every independent entry is its own
    variable, so the parameter count is the dimension of the matrix space."""
    nv = space_dim(kind, n)
    coords = [Poly.variable(nv, k) for k in range(nv)]
    return MatrixFamily(kind, n, nv, unflatten(kind, coords, n, nv))


def minors_ideal(fam: MatrixFamily, size: int) -> ModuleBasis:
    """The ideal of size x size minors (symmetric/general) or of
    size x size sub-pfaffians (skew, even size), as a rank-1 module basis
    over the local order.  Size 0 gives the unit ideal."""
    from itertools import combinations
    e = fam.entries
    n = fam.n
    if not 0 <= size <= n:
        raise ValueError("minor size out of range")
    gens: list = []
    if fam.kind == "skew":
        if size % 2 != 0:
            raise ValueError("sub-pfaffians need an even size")
        for rows in combinations(range(n), size):
            sub = PolyMatrix([[e.entries[i][j] for j in rows] for i in rows],
                             e.nvars, cols=size)
            gens.append(pfaffian(sub))
    else:
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                sub = PolyMatrix([[e.entries[i][j] for j in cols] for i in rows],
                                 e.nvars, cols=size)
                gens.append(determinant(sub))
    return ModuleBasis(1, [(g,) for g in gens], LOCAL)


# -- coordinate conventions ----------------------------------------------------

def space_dim(kind: str, n: int) -> int:
    if kind == "symmetric":
        return n * (n + 1) // 2
    if kind == "skew":
        return n * (n - 1) // 2
    if kind == "general":
        return n * n
    raise ValueError(f"unknown kind {kind!r}")


def flatten(kind: str, m: PolyMatrix) -> List[Poly]:
    """Coordinates of a matrix in the fixed basis of its kind's space."""
    n = m.rows
    if kind == "general":
        return [m.entries[i][j] for i in range(n) for j in range(n)]
    if kind == "symmetric":
        return [m.entries[i][j] for i in range(n) for j in range(i, n)]
    if kind == "skew":
        return [m.entries[i][j] for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown kind {kind!r}")


def unflatten(kind: str, coords: Sequence[Poly], n: int,
              nvars: int) -> PolyMatrix:
    z = Poly.zero(nvars)
    ent = [[z] * n for _ in range(n)]
    it = iter(coords)
    if kind == "general":
        for i in range(n):
            for j in range(n):
                ent[i][j] = next(it)
    elif kind == "symmetric":
        for i in range(n):
            for j in range(i, n):
                p = next(it)
                ent[i][j] = p
                ent[j][i] = p
    elif kind == "skew":
        for i in range(n):
            for j in range(i + 1, n):
                p = next(it)
                ent[i][j] = p
                ent[j][i] = -p
    else:
        raise ValueError(f"unknown kind {kind!r}")
    leftovers = sum(1 for _ in it)
    if leftovers:
        raise ValueError("too many coordinates")
    return PolyMatrix(ent, nvars)


def sl_coords(m: PolyMatrix) -> List[Poly]:
    """Coordinates of a trace-free matrix: off-diagonal entries row-major,
    then the n-1 leading partial sums of the diagonal.  Raises if the trace
    is not identically zero."""
    if not m.trace().is_zero():
        raise ValueError("matrix has nonzero trace")
    n = m.rows
    out = [m.entries[i][j] for i in range(n) for j in range(n) if i != j]
    acc = Poly.zero(m.nvars)
    for i in range(n - 1):
        acc = acc + m.entries[i][i]
        out.append(acc)
    return out


def _unit_basis(kind: str, n: int, nvars: int) -> List[PolyMatrix]:
    """The matrices whose coordinates are the unit vectors, in the
    flattening order of kind."""
    one = Poly.constant(nvars, 1)
    z = Poly.zero(nvars)
    d = space_dim(kind, n)
    return [unflatten(kind, [one if i == k else z for i in range(d)], n,
                      nvars)
            for k in range(d)]


def sym_basis(n: int, nvars: int) -> List[PolyMatrix]:
    """Constant basis matrices matching the symmetric flattening order."""
    return _unit_basis("symmetric", n, nvars)


def skew_basis(n: int, nvars: int) -> List[PolyMatrix]:
    return _unit_basis("skew", n, nvars)


def gl_basis(n: int, nvars: int) -> List[PolyMatrix]:
    return _unit_basis("general", n, nvars)


def sl_basis(n: int, nvars: int) -> List[PolyMatrix]:
    """Off-diagonal units row-major, then E_ii - E_(i+1)(i+1)."""
    out = []
    one = Poly.constant(nvars, 1)
    z = Poly.zero(nvars)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ent = [[z] * n for _ in range(n)]
            ent[i][j] = one
            out.append(PolyMatrix(ent, nvars))
    for i in range(n - 1):
        ent = [[z] * n for _ in range(n)]
        ent[i][i] = one
        ent[i + 1][i + 1] = -one
        out.append(PolyMatrix(ent, nvars))
    return out
