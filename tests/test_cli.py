import json

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


def test_analyze_params_on_file_exit_1(tmp_path, capsys):
    p = tmp_path / "fam.txt"
    p.write_text("kind=symmetric; vars=x,y,z; matrix=[[x,y],[y,z]]")
    code, out, err = run(capsys, "analyze", str(p), "n=2")
    assert code == 1


def test_odd_skew_family_needs_no_pfaffian_to_be_checked(tmp_path, capsys):
    # A family's target function, the generic Pf, and its map to matrix
    # space are built only when an invariant needs them: odd-size skew
    # matrices have no Pf, and 1x1 skew ones no matrix coordinates.
    for i, text in enumerate(("kind=skew; vars=x,y,z; upper=[[x,y],[z]]",
                              "kind=skew; vars=x; matrix=[[0]]")):
        p = tmp_path / f"odd{i}.fam"
        p.write_text(text)
        for theorem in ("diag", "ck"):
            code, out, _ = run(capsys, "verify", str(p), "--theorem",
                               theorem)
            assert code == 0
            assert "NOT-APPLICABLE" in out
        code, out, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "pfaffian needs an even-size matrix" in err


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
    from matsing.groebner import _Counter
    run(capsys, "analyze", "remark-4-8-iii", "--max-steps", "25")
    # The guard is restored once the command finishes.
    assert _Counter(None).limit > 25


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
    def fake_verify(subject, identity, max_steps=None):
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
