"""Correctness gates for benchmark ops.

`failure(op, reply, refs)` returns None for a correct output and a short
reason otherwise.  References are the exact `--json` stdout of each fixed op,
committed in refs.json.  To rewrite them from the current code (only when a
change is meant to alter the reports):

    PYTHONPATH=src python3 perfbench/checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Optional

from gen import KNOWN_VALUES, WORKDIR, WORKLOADS, Inputs

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "refs.json")


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def failure(op: dict, reply: dict, refs: dict) -> Optional[str]:
    if reply.get("error"):
        return "exception: " + reply["error"].strip().splitlines()[-1]
    if reply["exit"] != 0:
        return f"exit code {reply['exit']}: {reply['stderr'].strip()}"
    try:
        out = json.loads(reply["stdout"])
    except ValueError:
        return "output is not JSON"
    verdicts = [c["verdict"] for c in out.get("checks", [])]
    if "verdict" in out:
        verdicts.append(out["verdict"])
    if "FAILS" in verdicts:
        return "an identity check FAILS"
    if op.get("known"):
        why = known_value_failure(op["known"], op["key"].split()[0], out)
        if why is not None:
            return why
    if op["check"] == "ref":
        want = refs.get(op["key"])
        if want is None:
            return f"no reference for {op['key']!r}"
        if reply["stdout"] != want:
            return f"output differs from the reference {op['key']!r}"
        return None
    if op["check"] == "diag":
        return diag_failure(op["a"], out)
    if op["check"] == "sound":
        if op["argv"][0] != "analyze":
            return None
        missing = {"mu", "betti", "checks", "tau_function_right"} - set(out)
        return f"report lacks {sorted(missing)}" if missing else None
    return f"unknown check {op['check']!r}"


def known_value_failure(name: str, cmd: str, out: dict) -> Optional[str]:
    """Values proved by other routes for the known-slow inputs."""
    known = KNOWN_VALUES[name]
    if cmd == "resolution":
        ok = out["square_zero"] and out["homology"] == known["betti"]
        got = out["homology"]
    elif cmd == "betas":
        got = [out["lhs"], out["rhs"]]
        ok = got == [known["tau"], known["tau"]]
    else:  # eqeq: [tau_special, tau_general] vs [tau_kf, tau_kv]
        got = [out["lhs"], out["rhs"]]
        ok = out["lhs"][0] == out["rhs"][0] == known["tau"]
    return None if ok else f"{cmd} {name}: got {got}, known {known}"


def diag_failure(a: list, out: dict) -> Optional[str]:
    """Closed forms for diag(x^a_1, ..., x^a_n)."""
    n, srt = len(a), sorted(a)
    want = {"tau_matrix_special": sum((n - i) * srt[i] for i in range(n)) - 1,
            "mu": sum(a) - 1, "b0": sum(srt[:n - 1])}
    got = {"tau_matrix_special": out["tau_matrix_special"], "mu": out["mu"],
           "b0": out["betti"][0]}
    return None if got == want else f"diag-sym {a}: got {got}, want {want}"


def reference_ops():
    ops = {}
    for name in WORKLOADS:
        inputs = Inputs(name, 0, os.path.join(WORKDIR, "refs"))
        for o in next(inputs.passes()):
            if o["check"] == "ref":
                ops[o["key"]] = o
    return list(ops.values())


def main() -> None:
    from matsing import cli
    refs = {}
    for o in reference_ops():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(o["argv"]))
        if code != 0:
            sys.exit(f"{o['key']}: exit code {code}")
        refs[o["key"]] = out.getvalue()
        print(o["key"], file=sys.stderr)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
