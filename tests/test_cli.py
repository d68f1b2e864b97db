import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matsing import cli
from matsing.invariants import CheckRecord


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_catalog_human(capsys):
    code, out, err = run(capsys, "analyze", "generic-sym-2")
    assert code == 0
    assert "mu = 1" in out
    assert "tau_matrix_special = 0" in out
    assert "codim_minors = 1" in out
    assert "check eqeq" in out and "HOLDS" in out


def test_analyze_catalog_with_params(capsys):
    code, out, err = run(capsys, "analyze", "diag-sym", "a=(1,2)")
    assert code == 0
    assert "mu = 2" in out
    assert "tau_matrix_special = 3" in out


def test_analyze_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", "generic-sym-2", "--json")
    code2, out2, _ = run(capsys, "analyze", "generic-sym-2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["mu"] == 1
    assert data["tau_matrix_special"] == 0
    assert [c["identity"] for c in data["checks"]] == list(cli.IDENTITIES)


def test_analyze_section_catalog(capsys):
    code, out, _ = run(capsys, "analyze", "remark-4-8-iii", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 25
    assert data["tau_function_right"] == 10
    assert data["codim_minors"] == 19
    assert data["tau_matrix_special"] is None


def test_analyze_file(tmp_path, capsys):
    p = tmp_path / "fam.txt"
    p.write_text("kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z]]")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert "mu = 1" in out


def test_analyze_bad_file_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("kind=symmetric; vars=x,y; matrix=[[x,]]")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 1
    assert "trailing comma" in err


def test_analyze_unknown_target_exit_1(capsys):
    code, out, err = run(capsys, "analyze", "nope-not-here")
    assert code == 1
    assert "catalog" in err


@pytest.mark.parametrize("argv, message", [
    (["normal-form-sym", "m=3"], "normal-form-sym does not take m; "
                                 "accepted: n"),
    (["generic-sym-2", "n=3"], "generic-sym-2 does not take n; "
                               "accepted: none"),
    (["diag-sym", "a=()"], "diag-sym needs a nonempty a"),
])
def test_analyze_bad_catalog_params_exit_1(capsys, argv, message):
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "neither a readable file" not in err


def test_analyze_params_on_file_exit_1(tmp_path, capsys):
    p = tmp_path / "fam.txt"
    p.write_text("kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z]]")
    code, out, err = run(capsys, "analyze", str(p), "n=2")
    assert code == 1


def test_verify_rejects_an_odd_skew_family_as_analyze_does(tmp_path, capsys):
    # Odd-size skew matrices have no Pf, so the family has no target
    # function g and no germ rule to pass: verify rejects them as analyze
    # does, with the same message, whatever the identity would have read.
    for i, text in enumerate(("kind=skew; vars=x,y,z; upper=[[x,y],[z]]",
                              "kind=skew; vars=x; matrix=[[0]]")):
        p = tmp_path / f"odd{i}.fam"
        p.write_text(text)
        code, out, err = run(capsys, "analyze", str(p))
        assert (code, out) == (1, "")
        assert "pfaffian needs an even-size matrix" in err
        for theorem in ("diag", "ck"):
            assert run(capsys, "verify", str(p), "--theorem", theorem) \
                == (1, "", err), theorem


def test_verify_rejects_a_non_germ_as_analyze_does(tmp_path, capsys):
    # det = 1 + y - x^2 is a unit at 0: every identity exits 1 with the
    # message of analyze, whatever its own hypotheses would have said.
    p = tmp_path / "unit.fam"
    p.write_text("kind = symmetric; vars = x, y; matrix = [[1, x], [x, 1+y]]")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out) == (1, "") and "not a singularity germ" in err
    for theorem in cli.IDENTITIES:
        assert run(capsys, "verify", str(p), "--theorem", theorem) \
            == (1, "", err), theorem


def test_analyze_strict_not_applicable_exit_2(capsys):
    code, out, _ = run(capsys, "analyze", "generic-sym-2", "--strict")
    assert code == 2
    # strict changes only the exit code, not the numbers
    assert "mu = 1" in out


def test_max_steps_guard_exit_3(capsys):
    code, out, err = run(capsys, "analyze", "remark-4-8-iii",
                         "--max-steps", "25")
    assert code == 3
    assert "step" in err.lower()


def test_max_steps_does_not_leak(capsys):
    from matsing.groebner import step_limit
    run(capsys, "analyze", "remark-4-8-iii", "--max-steps", "25")
    # The guard is restored once the command finishes.
    assert step_limit() > 25


def test_verify_holds_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "generic-gen-2", "--theorem",
                       "gorp")
    assert code == 0
    assert "HOLDS" in out


def test_verify_not_applicable_exit_0_and_strict_2(capsys):
    code, out, _ = run(capsys, "verify", "diag-sym", "a=(1,2)",
                       "--theorem", "imax")
    assert code == 0
    assert "NOT-APPLICABLE" in out
    code2, out2, _ = run(capsys, "verify", "diag-sym", "a=(1,2)",
                         "--theorem", "imax", "--strict")
    assert code2 == 2


def test_verify_unknown_theorem_exit_1(capsys):
    code, out, err = run(capsys, "verify", "generic-sym-2", "--theorem",
                         "zeta")
    assert code == 1
    assert "unknown identity" in err


def test_verify_fails_maps_to_exit_4(monkeypatch, capsys):
    # No theorem genuinely fails on valid hypotheses, so the FAILS path is
    # exercised by stubbing the verification result.
    def fake_verify(subject, identity):
        return CheckRecord(identity, 1, 2, "FAILS", "synthetic")
    monkeypatch.setattr(cli, "verify_identity", fake_verify)
    code, out, _ = run(capsys, "verify", "generic-sym-2", "--theorem",
                       "submax")
    assert code == 4
    assert "FAILS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "generic-gen-2", "--theorem",
                       "betas", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "HOLDS"
    assert data["identity"] == "betas"


def test_resolution_human(capsys):
    code, out, _ = run(capsys, "resolution", "generic-skew-4", "--check")
    assert code == 0
    assert "ranks = [1, 6, 15, 20, 15, 6, 1]" in out
    assert "d^2 = 0: yes" in out
    assert "H_0 = 1" in out
    assert "H_6 = 0" in out


def test_resolution_without_check_skips_homology(capsys):
    code, out, _ = run(capsys, "resolution", "generic-sym-2")
    assert code == 0
    assert "H_0" not in out


def test_resolution_rejects_sections(capsys):
    code, out, err = run(capsys, "resolution", "remark-4-8-iii")
    assert code == 1


def test_resolution_broken_complex_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_complex", lambda c: False)
    code, out, _ = run(capsys, "resolution", "generic-sym-2")
    assert code == 4
    assert "NO" in out


def test_batch(tmp_path, capsys):
    (tmp_path / "a.fam").write_text(
        "kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z]]")
    (tmp_path / "b.fam").write_text("kind=nonsense")
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("a.fam:")
    assert lines[1].startswith("b.fam: error:")
    assert "errors = 1" in lines[-1]


def test_batch_empty_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    assert "errors = 0" in out


def test_batch_json_deterministic(tmp_path, capsys):
    (tmp_path / "a.fam").write_text(
        "kind=symmetric; vars=x; matrix=[[x]]")
    code1, out1, _ = run(capsys, "batch", str(tmp_path), "--json")
    code2, out2, _ = run(capsys, "batch", str(tmp_path), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["files"][0]["file"] == "a.fam"


def test_batch_isolates_each_file(tmp_path, capsys, monkeypatch):
    for fname in ("a.fam", "b.fam", "c.fam"):
        (tmp_path / fname).write_text("kind=symmetric; vars=x; matrix=[[x]]")
    real_analyze = cli.analyze

    def analyze(subject, name=""):
        if name == "b.fam":
            raise AssertionError("boom")
        return real_analyze(subject, name=name)

    monkeypatch.setattr(cli, "analyze", analyze)
    code, out, _ = run(capsys, "batch", str(tmp_path), "--json")
    assert code == 0
    data = json.loads(out)
    files = data["files"]
    assert [e["file"] for e in files] == ["a.fam", "b.fam", "c.fam"]
    assert "report" in files[0] and "report" in files[2]
    assert files[1] == {"file": "b.fam", "error": "AssertionError: boom"}
    assert data["summary"]["errors"] == 1


def test_batch_not_a_directory_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "batch", str(tmp_path / "missing"))
    assert code == 1


@pytest.mark.parametrize("args, budget, code", [
    # The largest single computation of each op is a module path: the
    # stacked completion behind the Schreyer syzygies of the partials of
    # the generic determinant or Pfaffian (der_log_f; 16 components for
    # the generic Pf_6), or a stack of the columns of a differential.
    ("analyze normal-form-sym n=3", "30", 0),
    ("analyze normal-form-sym n=3", "29", 3),
    ("analyze normal-form-skew n=6", "325", 0),
    ("analyze normal-form-skew n=6", "324", 3),
    ("resolution --check normal-form-gen n=4", "38", 0),
    ("resolution --check normal-form-gen n=4", "37", 3),
])
def test_max_steps_boundary_of_module_paths(capsys, args, budget, code):
    # Each boundary pins the step counts of completion and division.
    got, _, _ = run(capsys, *args.split(), "--max-steps", budget)
    assert got == code


@pytest.mark.parametrize("text, budget, dims", [
    # pencil-skew-gor and slow-skew6 of perfbench/gen.py KNOWN_SLOW.
    ("kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1+x2^2]]",
     "400", [2, 2]),
    ("kind=skew; vars=x,y,z; "
     "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]",
     "2000", ["infinite", "infinite"]),
])
def test_eqeq_on_known_slow_skew_inputs(tmp_path, capsys, text, budget,
                                        dims):
    # A full completion of the stacked syzygy modules runs for minutes on
    # both; the budget makes it fail fast instead of hanging.
    p = tmp_path / "fam.txt"
    p.write_text(text + "\n")
    code, out, err = run(capsys, "verify", "--theorem", "eqeq", "--json",
                         "--max-steps", budget, str(p))
    assert code == 0, err
    data = json.loads(out)
    assert data["verdict"] == "HOLDS"
    assert data["lhs"] == data["rhs"] == dims


def test_resolution_check_on_slow_skew6_under_a_budget(tmp_path, capsys):
    # slow-skew6 of perfbench/gen.py KNOWN_SLOW.  Its largest computation
    # takes 819 steps; the budget makes a regression fail fast instead of
    # hanging.
    p = tmp_path / "fam.txt"
    p.write_text("kind=skew; vars=x,y,z; "
                 "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]\n")
    code, out, err = run(capsys, "resolution", "--check", "--json",
                         "--max-steps", "3000", str(p))
    assert code == 0, err
    data = json.loads(out)
    assert data["square_zero"]
    assert data["homology"] == [1, 3, 3, 1, 0, 0, 0]


def test_eqeq_on_slow_sym_under_a_small_budget(tmp_path, capsys):
    # slow-sym of perfbench/gen.py KNOWN_SLOW.  Both sides have colength 4,
    # so division truncated at degree 4 decides eqeq; mutual membership of
    # generators exceeds this budget in its stacked completions.
    p = tmp_path / "fam.txt"
    p.write_text("kind=symmetric; vars=x,y; "
                 "upper=[[x,y,0],[x,y^2],[x^2+y]]\n")
    code, out, err = run(capsys, "verify", "--theorem", "eqeq", "--json",
                         "--max-steps", "400", str(p))
    assert code == 0, err
    data = json.loads(out)
    assert data["verdict"] == "HOLDS"
    assert data["lhs"] == data["rhs"] == [4, 4]


@pytest.mark.parametrize("theorem, dims", [("eqeq", [4, 4]),
                                            ("betas", 4)])
def test_slow_gen_verifies_under_a_budget(tmp_path, capsys, theorem, dims):
    # slow-gen of perfbench/gen.py KNOWN_SLOW: mu = tau = 4 and Betti
    # numbers [2, 2, 0, 0, 0], so tau = mu - b0 + b1.  Its largest single
    # computation takes 1152 steps.
    p = tmp_path / "fam.txt"
    p.write_text("kind=general; vars=x,y,z; "
                 "matrix=[[x,y^2+z^3],[z^2+x*y,y+x^3]]\n")
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--json",
                         "--max-steps", "1500", str(p))
    assert code == 0, err
    data = json.loads(out)
    assert data["verdict"] == "HOLDS"
    assert data["lhs"] == data["rhs"] == dims
    code, out, err = run(capsys, "analyze", "--json", "--max-steps", "1500",
                         str(p))
    assert code == 0, err
    data = json.loads(out)
    assert {data[k] for k in ("mu", "tau_function_right",
                              "tau_function_contact", "tau_matrix_special",
                              "tau_matrix_general")} == {4}
    assert data["betti"] == [2, 2, 0, 0, 0]


def test_parser_is_built_once_and_namespaces_are_fresh():
    assert cli._build_parser() is cli._build_parser()
    first = cli._build_parser().parse_args(["analyze", "diag-sym", "a=(1,2)"])
    second = cli._build_parser().parse_args(["analyze", "generic-sym-2"])
    assert first is not second
    assert first.params == ["a=(1,2)"] and second.params == []


def test_import_loads_no_dataclasses():
    # A fresh `matsing` process pays for every module the package imports;
    # dataclasses alone brings inspect, ast and dis.  The set difference
    # leaves out whatever the environment's site imports.
    code = ("import sys; before = set(sys.modules); import matsing.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    added = set(out.stdout.split())
    assert "matsing.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}
