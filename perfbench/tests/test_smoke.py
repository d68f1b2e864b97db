"""Smoke test of the benchmark itself (not of matsing).

    python3 -m pytest -q perfbench/tests

One short op per workload: every metric of BENCHMARK.json is printed with
its unit, a corrupted reference counts as a failed op, a hanging op is
stopped at its deadline and names its layer, and the benchmark refuses to
run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, lines = run.measure(workload, 1, 0, bool(trace), ops_per_pass=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:  # printed, not in BENCHMARK.json
        want.update(pass_wall_s="s", ref_s="s", ops_per_s="1/s",
                    op_p50_s="s", op_tail_s="s")
    for name, unit in want.items():
        assert any(line.startswith(f"  {name} = ")
                   and line.split(" = ")[1].split()[1] == unit
                   for line in lines), name
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = [v for k, v in m.items() if k.endswith("_s")
                 and not k.startswith("invariants.")
                 and k not in ("traced_pass_s", "unattributed_s")]
        total = sum(parts) + m["invariants.self_s"] + m["unattributed_s"]
        assert total == pytest.approx(m["traced_pass_s"], rel=1e-9)


def test_corrupted_reference_is_a_failed_op():
    refs = checks.load_refs()
    key = "analyze generic-sym-2"
    refs[key] = refs[key].replace('"mu": 1', '"mu": 2')
    result, lines = run.measure("catalog-batch", 1, 0, False, refs=refs,
                                ops_per_pass=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("differs from the reference" in line for line in lines)


def test_hanging_op_is_stopped_and_names_its_layer(tmp_path):
    path = os.path.join(tmp_path, "slow-sym.fam")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.KNOWN_SLOW["slow-sym"] + "\n")
    ops = [gen.slow_op("slow-sym", "eqeq", path)]
    runner = run.Runner({"warm": False, "deadline": 1.0}, iter([ops]), {})
    st = runner.phase(0, True, 1)
    if st.completed:
        pytest.skip("slow-sym eqeq no longer passes a 1 s deadline")
    assert dict(st.failures) == {"timeout": 1}
    assert st.passes[0] < 1.0 + run.GRACE + 5
    (argv, open_groups), = st.hangs
    assert open_groups[0] == "cli.main"
    assert run.layer(open_groups) in ("invariants", "groebner")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
