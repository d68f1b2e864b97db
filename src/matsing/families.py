"""Reading and writing family descriptions, and the built-in catalog.

The format is line oriented: `key = value` statements separated by newlines
or semicolons (newlines inside brackets do not separate).  '#' starts a
comment.  Keys:

    name     free-form label
    kind     symmetric | skew | general | section
    n        matrix size (matrix kinds; inferred from the matrix if absent)
    vars     source variables: `x, y, z` or a range `x1..x6`
    matrix   full matrix `[[...], [...]]` of polynomial entries
    upper    the upper triangle row-major instead of the full matrix
             (including the diagonal for symmetric, strict for skew)
    fvars    target variables (sections)
    f        the target function (sections), a polynomial in fvars
    map      `[p1, ..., pN]`, the section components, polynomials in vars
    expected.KEY   integer metadata carried along (reference values)

Polynomials use explicit operators only: `x^2*y - 3/2*z + 1`.  There is no
implicit multiplication; exponents are nonnegative integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, List, Optional, Tuple

from .matalg import MatrixFamily, PolyMatrix, generic_family, unflatten
from .poly import Poly, SubstitutionMap, _Record, format_poly

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SPACE = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")  # blanks and comments


class ParseError(ValueError):
    """Input text rejected, with position information when available."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}" if col is None else \
                f"line {line}, column {col}: {message}"
        super().__init__(message)


# -- polynomial expressions -----------------------------------------------------

class _Tokens:
    """A reader of text[start:end] that skips blanks and '#' comments and
    reports errors at their line and column in the whole text."""

    def __init__(self, text: str, varnames: List[str], start: int = 0,
                 end: Optional[int] = None):
        self.text = text
        self.pos = start
        self.end = len(text) if end is None else end
        self.vars = {v: i for i, v in enumerate(varnames)}
        self.nvars = len(varnames)

    def error(self, msg: str):
        prefix = self.text[:self.pos]
        line = prefix.count("\n") + 1
        col = self.pos - (prefix.rfind("\n") + 1) + 1
        raise ParseError(msg, line, col)

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos, self.end).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < self.end else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < self.end and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos, self.end)
        if not m:
            self.error("expected an identifier")
        self.pos = m.end()
        return m.group()

    def list(self, item: Callable[[], object]) -> list:
        """A bracketed, comma-separated list of item() values."""
        self.expect("[")
        out = []
        while not self.take("]"):
            if out:
                self.expect(",")
                if self.peek() == "]":
                    self.error("trailing comma")
            out.append(item())
        return out


def _read(t: _Tokens, item: Callable[[_Tokens], object]):
    """item(t), which must read all of t up to its end."""
    got = item(t)
    if t.peek():
        t.error("unexpected trailing input")
    return got


def _parse_expr(t: _Tokens) -> Poly:
    sign = 1
    if t.take("-"):
        sign = -1
    elif t.take("+"):
        pass
    p = _parse_term(t) * sign
    while True:
        if t.take("+"):
            p = p + _parse_term(t)
        elif t.take("-"):
            p = p - _parse_term(t)
        else:
            return p


def _parse_term(t: _Tokens) -> Poly:
    p = _parse_power(t)
    while t.take("*"):
        p = p * _parse_power(t)
    return p


def _parse_power(t: _Tokens) -> Poly:
    base = _parse_atom(t)
    if t.take("^"):
        return base ** t.integer()
    return base


def _parse_atom(t: _Tokens) -> Poly:
    c = t.peek()
    if c == "(":
        t.expect("(")
        p = _parse_expr(t)
        t.expect(")")
        return p
    if c.isdigit():
        num = t.integer()
        if t.take("/"):
            den = t.integer()
            if den == 0:
                t.error("zero denominator")
            return Poly.constant(t.nvars, Fraction(num, den))
        return Poly.constant(t.nvars, num)
    if c and (c.isalpha() or c == "_"):
        name = t.ident()
        idx = t.vars.get(name)
        if idx is None:
            t.error(f"unknown variable {name!r}")
        return Poly.variable(t.nvars, idx)
    t.error("expected a number, variable or parenthesized expression")


def parse_poly(text: str, varnames: List[str]) -> Poly:
    """Parse one polynomial over the named variables."""
    return _read(_Tokens(text, list(varnames)), _parse_expr)


def _poly_list(t: _Tokens) -> List[Poly]:
    return t.list(partial(_parse_expr, t))


def _rows(t: _Tokens) -> List[List[Poly]]:
    rows = t.list(partial(_poly_list, t))
    if not rows:
        t.error("empty matrix")
    return rows


# -- family files -----------------------------------------------------------------

class FamilySpec(_Record):
    """A parsed family description plus carried metadata.  expected
    defaults to a fresh empty dict.  n, the matrix size, is read from
    entries (None for a section)."""

    FIELDS = ("kind", "variables", "name", "n", "entries", "fvars", "f",
              "map_images", "expected")

    def __init__(self, kind: str, variables: List[str], name: str = "",
                 entries: Optional[List[List[Poly]]] = None,
                 fvars: Optional[List[str]] = None, f: Optional[Poly] = None,
                 map_images: Optional[List[Poly]] = None,
                 expected: Optional[dict] = None):
        self.kind, self.variables, self.name = kind, variables, name
        self.entries, self.fvars, self.f = entries, fvars, f
        self.map_images = map_images
        self.expected = {} if expected is None else expected

    @property
    def n(self) -> Optional[int]:
        return None if self.entries is None else len(self.entries)

    def to_family(self) -> MatrixFamily:
        """The family, built and checked on the first call only."""
        if self.kind == "section":
            raise ValueError("a section has no matrix family")
        return self._family

    @cached_property
    def _family(self) -> MatrixFamily:
        return MatrixFamily(self.kind,
                            PolyMatrix(self.entries, len(self.variables)))

    def to_section(self) -> Tuple[Poly, SubstitutionMap]:
        if self.kind != "section":
            raise ValueError("not a section")
        return self.f, SubstitutionMap(self.map_images)

    def subject(self):
        return self.to_section() if self.kind == "section" else self.to_family()


def _split_statements(text: str) -> List[Tuple[int, str, tuple]]:
    """Split on newlines/semicolons at bracket depth 0; strip comments.
    Returns (line_number, statement, span) triples, span the offsets in
    text of the value (after the first '=') and of the statement's end."""
    out = []
    buf: List[str] = []
    depth = 0
    line = 1
    start_line = 1
    value_at = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", line)
        if (ch == ";" or ch == "\n") and depth == 0:
            stmt = "".join(buf).strip()
            if stmt:
                out.append((start_line, stmt, (value_at, i)))
            buf = []
            start_line = line
            value_at = None
        else:
            if ch == "=" and value_at is None:
                value_at = i + 1
            buf.append(ch)
        i += 1
    if depth != 0:
        raise ParseError("unbalanced bracket at end of input", line)
    stmt = "".join(buf).strip()
    if stmt:
        out.append((start_line, stmt, (value_at, i)))
    return out


def _parse_varlist(value: str, line: int) -> List[str]:
    value = value.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*?)(\d+)\.\.\1?(\d+)", value)
    if m:
        prefix, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        if hi < lo:
            raise ParseError("empty variable range", line)
        return [f"{prefix}{k}" for k in range(lo, hi + 1)]
    names = [v.strip() for v in value.split(",")]
    for v in names:
        if not _IDENT.fullmatch(v):
            raise ParseError(f"bad variable name {v!r}", line)
    if len(set(names)) != len(names):
        raise ParseError("repeated variable name", line)
    return names


_KEYS = ("name", "kind", "n", "vars", "fvars", "matrix", "upper", "f", "map")
_KINDS = ("symmetric", "skew", "general", "section")


def parse_family(text: str) -> FamilySpec:
    """Parse a family description; raises ParseError on any defect."""
    fields: dict = {}
    lines: dict = {}
    spans: dict = {}
    expected: dict = {}
    for line, stmt, span in _split_statements(text):
        if "=" not in stmt:
            raise ParseError("expected key = value", line)
        key, value = stmt.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key.startswith("expected."):
            sub = key[len("expected."):]
            if not _IDENT.fullmatch(sub):
                raise ParseError(f"bad expected key {sub!r}", line)
            expected[sub] = (value if value == "infinite"
                             else _int_or_error(value, line))
            continue
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line)
        if key in fields:
            raise ParseError(f"repeated key {key!r}", line)
        fields[key] = value
        lines[key] = line
        spans[key] = span

    def read(key, varnames, item):
        # Read from the whole text, so that errors give its positions.
        return _read(_Tokens(text, varnames, *spans[key]), item)

    if "kind" not in fields:
        raise ParseError("missing kind")
    kind = fields["kind"]
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}", lines["kind"])
    if "vars" not in fields:
        raise ParseError("missing vars")
    variables = _parse_varlist(fields["vars"], lines["vars"])
    name = fields.get("name", "")

    if kind == "section":
        for key in ("matrix", "upper", "n"):
            if key in fields:
                raise ParseError(f"key {key!r} does not apply to sections",
                                 lines[key])
        for key in ("fvars", "f", "map"):
            if key not in fields:
                raise ParseError(f"missing {key!r} for a section")
        fvars = _parse_varlist(fields["fvars"], lines["fvars"])
        f = read("f", fvars, _parse_expr)
        images = read("map", variables, _poly_list)
        if len(images) != len(fvars):
            raise ParseError(
                f"map has {len(images)} components, fvars has {len(fvars)}",
                lines["map"])
        return FamilySpec(kind=kind, variables=variables, name=name,
                          fvars=fvars, f=f, map_images=images,
                          expected=expected)

    for key in ("fvars", "f", "map"):
        if key in fields:
            raise ParseError(f"key {key!r} only applies to sections",
                             lines[key])
    if ("matrix" in fields) == ("upper" in fields):
        raise ParseError("exactly one of matrix/upper is required")
    if "matrix" in fields:
        entries = read("matrix", variables, _rows)
    else:
        rows = read("upper", variables, _rows)
        entries = _fill_upper(kind, rows, len(variables), lines["upper"])
    spec = FamilySpec(kind=kind, variables=variables, name=name,
                      entries=entries, expected=expected)
    try:
        spec.to_family()
    except ValueError as exc:  # ragged rows, not square, the kind's symmetry
        raise ParseError(str(exc), lines.get("matrix")) from exc
    if "n" in fields:
        n_stated = _int_or_error(fields["n"], lines["n"])
        if n_stated != spec.n:
            raise ParseError(f"n = {n_stated} does not match the matrix size "
                             f"{spec.n}", lines["n"])
    return spec


def _int_or_error(value: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"expected an integer, got {value!r}", line)


def _fill_upper(kind: str, rows: List[List[Poly]], nvars: int,
                line: int) -> List[List[Poly]]:
    """Rows of the upper triangle, each one entry shorter than the last
    (the first includes the diagonal for symmetric kinds, excludes it for
    skew)."""
    if kind not in ("symmetric", "skew"):
        raise ParseError("upper only applies to symmetric/skew kinds", line)
    n = len(rows[0]) if kind == "symmetric" else len(rows[0]) + 1
    offset = 0 if kind == "symmetric" else 1
    if len(rows) != n - offset:
        raise ParseError(f"upper needs {n - offset} rows for n = {n}, "
                         f"got {len(rows)}", line)
    for i, r in enumerate(rows):
        if len(r) != n - offset - i:
            raise ParseError(f"upper row {i + 1} needs {n - offset - i} "
                             f"entries, got {len(r)}", line)
    # The upper triangle row-major is the flattening order of both kinds.
    m = unflatten(kind, [p for r in rows for p in r], n, nvars)
    return [list(r) for r in m.entries]


def print_family(spec: FamilySpec) -> str:
    """Canonical text form; parse_family(print_family(s)) is equivalent
    to s."""
    out = []
    if spec.name:
        out.append(f"name = {spec.name}")
    out.append(f"kind = {spec.kind}")
    out.append(f"vars = {', '.join(spec.variables)}")
    if spec.kind == "section":
        out.append(f"fvars = {', '.join(spec.fvars)}")
        out.append(f"f = {format_poly(spec.f, spec.fvars)}")
        images = ", ".join(format_poly(p, spec.variables)
                           for p in spec.map_images)
        out.append(f"map = [{images}]")
    else:
        out.append(f"n = {spec.n}")
        rows = []
        for r in spec.entries:
            rows.append("[" + ", ".join(format_poly(p, spec.variables)
                                        for p in r) + "]")
        out.append("matrix = [" + ", ".join(rows) + "]")
    for key in sorted(spec.expected):
        out.append(f"expected.{key} = {spec.expected[key]}")
    return "\n".join(out) + "\n"


# -- catalog ----------------------------------------------------------------------

def _xvars(k: int) -> List[str]:
    return [f"x{i + 1}" for i in range(k)]


def _block_extend(entries: List[List[Poly]], n: int, nvars: int,
                  diag_block) -> List[List[Poly]]:
    """Embed a small matrix in the top-left corner of an n x n one, filling
    the rest of the diagonal with copies of diag_block (a square list grid
    of constants)."""
    k = len(entries)
    z = Poly.zero(nvars)
    grid = [[z] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            grid[i][j] = entries[i][j]
    step = len(diag_block)
    pos = k
    while pos < n:
        for i in range(step):
            for j in range(step):
                c = diag_block[i][j]
                if c:
                    grid[pos + i][pos + j] = Poly.constant(nvars, c)
        pos += step
    return grid


# kind -> (short name, core size, the constant diagonal block that pads a
# normal form to size n; a skew block must itself be skew)
_CORES = {"symmetric": ("sym", 2, [[1]]), "general": ("gen", 2, [[1]]),
          "skew": ("skew", 4, [[0, 1], [-1, 0]])}


def _build_core(kind: str, normal_form: bool, params: dict) -> FamilySpec:
    """generic-<short>-<core>, the generic family of kind at its core size,
    or normal-form-<short> n=N, that family padded to size N with copies of
    the constant block of kind."""
    short, core, pad = _CORES[kind]
    fam = generic_family(kind, core)
    entries = [list(r) for r in fam.entries.entries]
    name = f"generic-{short}-{core}"
    expected = {"mu": 1, "tau_matrix_special": 0, "codim_minors": 1}
    if normal_form:
        n = int(params.get("n", core))
        if n < core or (n - core) % len(pad) != 0:
            parity = "even " if len(pad) > 1 else ""
            raise ValueError(f"normal-form-{short} needs {parity}n >= {core}")
        entries = _block_extend(entries, n, fam.m, pad)
        name = f"normal-form-{short} n={n}"
        expected = {"mu": 1, "codim_minors": 1}
    return FamilySpec(kind=kind, variables=_xvars(fam.m), name=name,
                      entries=entries, expected=expected)


def _build_diag_sym(params: dict) -> FamilySpec:
    a = params.get("a")
    if isinstance(a, int):
        a = (a,)
    if not a:
        raise ValueError("diag-sym needs a nonempty a = (a1, a2, ...)")
    a = tuple(int(x) for x in a)
    if any(x < 0 for x in a):
        raise ValueError("exponents must be nonnegative")
    n = len(a)
    z = Poly.zero(1)
    e = [[z] * n for _ in range(n)]
    for i, ai in enumerate(a):
        e[i][i] = Poly.monomial(1, (ai,))
    srt = sorted(a)
    expected = {}
    if sum(a) > 0:
        expected = {"mu": sum(a) - 1,
                    "tau_matrix_special":
                        sum((n - i) * srt[i] for i in range(n)) - 1}
    label = ",".join(str(x) for x in a)
    return FamilySpec(kind="symmetric", variables=["x"],
                      name=f"diag-sym a=({label})", entries=e,
                      expected=expected)


# name -> the section's family text
_SECTIONS = {
    "remark-4-8-iii": """name = remark-4-8-iii
        kind = section; vars = x, y; fvars = x, y, z
        f = x^5*z + x^3*y^3 + y^5*z; map = [x, y, x + y]
        expected.mu = 25; expected.tau_function_right = 10
        expected.codim_minors = 19""",
    "cross-ratio-example": """name = cross-ratio-example
        kind = section; vars = x, y; fvars = x, y, z
        f = y*(x + y)*(x - y)*(x + z*y); map = [x, y, 0]
        expected.mu = 9""",
}


# name -> (builder, the parameter keys it accepts)
_CATALOG = {
    "generic-sym-2": (partial(_build_core, "symmetric", False), ()),
    "generic-gen-2": (partial(_build_core, "general", False), ()),
    "generic-skew-4": (partial(_build_core, "skew", False), ()),
    "normal-form-sym": (partial(_build_core, "symmetric", True), ("n",)),
    "normal-form-gen": (partial(_build_core, "general", True), ("n",)),
    "normal-form-skew": (partial(_build_core, "skew", True), ("n",)),
    "diag-sym": (_build_diag_sym, ("a",)),
    **{name: (lambda params, text=text: parse_family(text), ())
       for name, text in _SECTIONS.items()},
}


def catalog_names() -> List[str]:
    return sorted(_CATALOG)


def catalog(name: str, **params) -> FamilySpec:
    """A named built-in family; parameters depend on the entry.  An unknown
    name raises KeyError, an unknown parameter ValueError."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog family {name!r}; available: "
                       + ", ".join(catalog_names()))
    builder, keys = _CATALOG[name]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"{name} does not take {', '.join(unknown)}; "
                         f"accepted: {', '.join(keys) or 'none'}")
    return builder(params)
