from fractions import Fraction

import pytest

from matsing import (
    FamilySpec,
    MatrixFamily,
    ParseError,
    catalog,
    catalog_names,
    generic_family,
    parse_family,
    parse_poly,
    print_family,
)


def test_parse_poly_examples():
    assert parse_poly("x^5*z + x^3*y^3 + y^5*z", ["x", "y", "z"]).terms == {
        (5, 0, 1): Fraction(1), (3, 3, 0): Fraction(1),
        (0, 5, 1): Fraction(1)}
    p = parse_poly("1/2*(x + y)^2", ["x", "y"])
    assert p == parse_poly("1/2*x^2 + x*y + 1/2*y^2", ["x", "y"])


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("x^-1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("w + 1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("1/0", ["x"])
    with pytest.raises(ParseError):
        parse_poly("(x + 1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("", ["x"])


def test_parse_poly_signs():
    # A sign is allowed at the start of an expression (including inside
    # parentheses), but not doubled after a binary operator.
    assert parse_poly("-x + 2", ["x"]) == parse_poly("2 - x", ["x"])
    assert parse_poly("x - (-1)", ["x"]) == parse_poly("x + 1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x - -1", ["x"])


def test_parse_family_minimal_symmetric():
    spec = parse_family("kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z]]")
    assert spec.kind == "symmetric"
    assert spec.n == 2
    assert spec.variables == ["x", "y", "z"]
    fam = spec.to_family()
    assert fam.function() == parse_poly("x*z - y^2", ["x", "y", "z"])


def test_to_family_returns_the_family_the_parser_checked(monkeypatch):
    built = []
    init = MatrixFamily.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(MatrixFamily, "__init__", counted)
    spec = parse_family("kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]")
    assert spec.to_family() is spec.to_family() is built[0]
    assert len(built) == 1


def test_parse_family_skew_upper():
    spec = parse_family(
        "kind=skew; vars=x1..x6; upper=[[x1,x2,x3],[x4,x5],[x6]]")
    assert spec.n == 4
    ref = catalog("generic-skew-4")
    assert spec.entries == ref.entries
    # The symmetric upper form includes the diagonal.
    upper = parse_family("kind=symmetric; vars=x,y,z; "
                         "upper=[[x,y,z^2],[x*y,0],[y+z]]")
    full = parse_family("kind=symmetric; vars=x,y,z; "
                        "matrix=[[x,y,z^2],[y,x*y,0],[z^2,0,y+z]]")
    assert upper == full
    assert upper.n == 3
    skew = parse_family("kind=skew; vars=x,y; upper=[[x,0,y],[y^2,1],[x]]")
    assert skew == parse_family("kind=skew; vars=x,y; matrix=[[0,x,0,y],"
                                "[-x,0,y^2,1],[0,-y^2,0,x],[-y,-1,-x,0]]")


def test_parse_family_vars_range():
    spec = parse_family("kind=general; vars=x1..x4; matrix=[[x1,x2],[x3,x4]]")
    assert spec.variables == ["x1", "x2", "x3", "x4"]


def test_parse_family_comments_and_newlines():
    text = """
# a comment line
kind = symmetric
vars = x, y, z   # trailing comment
matrix = [[x, y],
          [y, z]]
expected.mu = 1
"""
    spec = parse_family(text)
    assert spec.n == 2
    assert spec.expected == {"mu": 1}


def test_parse_family_section():
    text = ("kind=section; vars=x,y; fvars=u,v,w; f=u*w - v^2;"
            " map=[x, y, x + y]")
    spec = parse_family(text)
    f, fmap = spec.to_section()
    assert f.nvars == 3
    assert fmap.source_nvars == 2
    with pytest.raises(ValueError):
        spec.to_family()


def test_parse_family_errors():
    cases = [
        "vars=x; matrix=[[x]]",                        # missing kind
        "kind=banana; vars=x; matrix=[[x]]",           # unknown kind
        "kind=symmetric; vars=x",                      # no matrix
        "kind=symmetric; vars=x; matrix=[[x]]; upper=[[x]]",
        "kind=symmetric; vars=x,y; matrix=[[x,]]",     # trailing comma
        "kind=symmetric; vars=x,y; matrix=[[x,y]]",    # not square
        "kind=symmetric; vars=x,y; matrix=[[x,x],[y,y]]",  # not symmetric
        "kind=skew; vars=x; matrix=[[x,x],[-x,0]]",    # nonzero diagonal
        "kind=skew; vars=x,y; matrix=[[0,x],[x,0]]",   # not skew
        "kind=symmetric; vars=x,x; matrix=[[x,x],[x,x]]",  # repeated var
        "kind=symmetric; vars=x; n=3; matrix=[[x]]",   # n mismatch
        "kind=symmetric; vars=x; matrix=[[x]]; matrix=[[x]]",  # repeated key
        "kind=symmetric; vars=x; matrix=[[x]]; shape=1",  # unknown key
        "kind=section; vars=x; fvars=u,v; f=u; map=[x]",  # map too short
        "kind=section; vars=x; f=x",                   # missing fvars/map
        "kind=symmetric; vars=x; matrix=[[x]]; f=x",   # f on a matrix kind
        "kind=section; vars=x; fvars=u; f=u; map=[x]; n=1",  # n on section
        "kind=symmetric; vars=x; expected.mu! = 1; matrix=[[x]]",
        "kind=symmetric; vars=x; matrix=[[x]",         # unbalanced bracket
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_family(text)


def test_parse_errors_give_positions_in_the_file():
    # The column is the one just after the offending token.
    head = "# a family\nkind = symmetric\nvars = x, y\n"
    with pytest.raises(ParseError) as err:
        parse_family(head + "matrix = [[x, w], [w, y]]\n")
    assert str(err.value) == "line 4, column 16: unknown variable 'w'"
    with pytest.raises(ParseError, match="^line 5, column 14: trailing comma"):
        parse_family(head + "upper = [[x, y],  # first row, w\n"
                            "          [x,]]")
    with pytest.raises(ParseError, match="^line 2, column 14: unexpected"):
        parse_family("kind=section; vars=x; fvars=u\nf=u; map=[x] x")
    # Comments inside a value are skipped.
    assert parse_family(head + "matrix = [[x, 0],  # w\n [0, y]]").n == 2
    # PolyMatrix checks the rows, and MatrixFamily the shape and the kind's
    # symmetry, naming rows and columns from 1; the parser gives their
    # message the line of the matrix, and checks a stated n only after.
    for kind, matrix, message in (
            ("symmetric", "[[x, x], [y, y]]",
             "symmetry violated at row 1, column 2"),
            ("skew", "[[0, x], [-x, y]]", "nonzero diagonal entry at row 2"),
            ("skew", "[[0, x], [x, 0]]",
             "skew symmetry violated at row 1, column 2"),
            ("general", "[[x, y], [y]]", "ragged matrix rows"),
            ("general", "[[x, y]]", "matrix is not square"),
            ("general", "[[x, y]]\nn = 3", "matrix is not square")):
        with pytest.raises(ParseError) as err:
            parse_family(f"kind = {kind}\nvars = x, y\nmatrix = {matrix}")
        assert str(err.value) == f"line 3: {message}"


def test_print_family_round_trip_catalog():
    entries = [("generic-sym-2", {}), ("generic-gen-2", {}),
               ("generic-skew-4", {}), ("normal-form-sym", {"n": 3}),
               ("normal-form-gen", {"n": 3}), ("normal-form-skew", {"n": 6}),
               ("diag-sym", {"a": (1, 2)}), ("remark-4-8-iii", {}),
               ("cross-ratio-example", {})]
    for name, params in entries:
        spec = catalog(name, **params)
        text = print_family(spec)
        back = parse_family(text)
        assert back == spec, name  # all nine fields


def test_family_spec_defaults_are_fresh():
    a = FamilySpec("symmetric", ["x"])
    b = FamilySpec(kind="symmetric", variables=["x"])
    assert a == b and a.expected is not b.expected
    assert (a.name, a.n, a.entries, a.fvars, a.f, a.map_images) == (
        "", None, None, None, None, None)
    a.expected["mu"] = 1
    assert b.expected == {} and a != b
    assert repr(b) == ("FamilySpec(kind='symmetric', variables=['x'], "
                       "name='', n=None, entries=None, fvars=None, f=None, "
                       "map_images=None, expected={})")


def test_family_spec_reads_n_from_its_entries():
    # n is no separate field that could disagree with the matrix: it is
    # read from entries, so print_family writes the size the matrix has,
    # and the parser still rejects a stated n that does not match.
    x = parse_poly("x", ["x"])
    spec = FamilySpec("symmetric", ["x"], entries=[[x]])
    assert spec.n == 1
    with pytest.raises(TypeError):
        FamilySpec("symmetric", ["x"], n=5, entries=[[x]])
    text = print_family(spec)
    assert "n = 1" in text and parse_family(text) == spec
    with pytest.raises(ParseError, match="n = 5 does not match the matrix "
                                         "size 1"):
        parse_family(text.replace("n = 1", "n = 5"))


def test_catalog_names_and_errors():
    assert "generic-sym-2" in catalog_names()
    with pytest.raises(KeyError):
        catalog("no-such-family")
    with pytest.raises(ValueError):
        catalog("diag-sym")
    with pytest.raises(ValueError, match="nonempty"):
        catalog("diag-sym", a=())
    with pytest.raises(ValueError, match="does not take m; accepted: n"):
        catalog("normal-form-sym", m=3)
    with pytest.raises(ValueError, match="normal-form-skew needs even n >= 4"):
        catalog("normal-form-skew", n=5)
    with pytest.raises(ValueError, match="normal-form-skew needs even n >= 4"):
        catalog("normal-form-skew", n=2)
    with pytest.raises(ValueError, match="normal-form-sym needs n >= 2"):
        catalog("normal-form-sym", n=1)
    with pytest.raises(ValueError, match="normal-form-gen needs n >= 2"):
        catalog("normal-form-gen", n=0)


def test_catalog_generic_entries_are_the_generic_families():
    for name, kind, n in (("generic-sym-2", "symmetric", 2),
                          ("generic-gen-2", "general", 2),
                          ("generic-skew-4", "skew", 4)):
        spec = catalog(name)
        fam = generic_family(kind, n)
        assert spec.entries == [list(r) for r in fam.entries.entries]
        assert spec.variables == [f"x{i + 1}" for i in range(fam.m)]
        assert spec.to_family() == fam


def test_catalog_expected_metadata():
    spec = catalog("remark-4-8-iii")
    assert spec.expected == {"mu": 25, "tau_function_right": 10,
                             "codim_minors": 19}
    assert catalog("cross-ratio-example").expected == {"mu": 9}


def test_catalog_normal_form_blocks():
    spec = catalog("normal-form-sym", n=4)
    fam = spec.to_family()
    # The lower-right block is an identity, so the determinant matches the
    # core 2x2 determinant.
    core = catalog("generic-sym-2").to_family()
    assert fam.function() == core.function()
    skew = catalog("normal-form-skew", n=6).to_family()
    assert skew.function() == catalog("generic-skew-4").to_family().function()


def test_catalog_diag_entries():
    spec = catalog("diag-sym", a=(1, 2))
    fam = spec.to_family()
    assert fam.entries.entries[0][0] == parse_poly("x", ["x"])
    assert fam.entries.entries[1][1] == parse_poly("x^2", ["x"])
    assert fam.entries.entries[0][1].is_zero()
