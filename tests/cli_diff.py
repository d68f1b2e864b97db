"""Compare the command line of two source trees, op by op.

    python tests/cli_diff.py OLD_SRC NEW_SRC [--quick]

Each op is one `matsing.cli` call, run against each tree in a fresh
process: the first tree's processes get PYTHONHASHSEED=1, the second's
PYTHONHASHSEED=2, so `cli_diff.py src src` checks that the outputs do not
depend on hash order.  The child process counts the calls of
`groebner._Counter.tick` by wrapping the method from outside; the library
is not changed.  It also records the largest count any single counter
reaches in the op, its peak: each computation counts its own steps, so the
peak is the least `--max-steps` under which the op passes (an op that runs
out of its budget reads the budget plus one).  The script prints every op
whose stdout, stderr, exit code, step count or peak differs, with the step
count and the peak side by side, and every op that passes TIMEOUT seconds
on either tree, then the op count, the timeout count and the step totals
of both trees, and exits 1 on any difference or timeout.  Two ops run at a
time.

The ops are `analyze --json` with and without `--max-steps 40`,
`verify --theorem eqeq --json` and `resolution --check --json`, on the
catalog entries, the normal forms up to skew 8, the pencils, the known-slow
inputs, seeded diag-sym tuples and seeded random families, all taken from
perfbench/gen.py.  The catalog entries and the pencils also run `verify
--theorem <id> --json` for every other identity, so each check runs on
its own, reading only what it needs.  The known-slow inputs run `verify
--theorem betas` too, and skip the ops that gen.HANGING lists and a plain
`analyze`, which would run into those.  Each file of MALFORMED, which the
parser rejects, runs `analyze --json`, and NON_GERM, a family whose det is
a unit at 0, runs `analyze --json` and `verify --theorem <id> --json` for
every identity, so the error text on stderr and the exit code are compared
too.  So do the two A1_CONE sections, the only inputs on which `verify
--theorem ck` gets past its hypotheses.  The two ODD_SKEW families, which
have no Pf, run `analyze --json` and `verify --theorem ck|diag --json`, so
that verify's rejection is compared with analyze's.  --quick keeps about
135 ops: the catalog entries with all four ops, the pencils with both
`analyze` ops and every `verify` op, the NON_GERM, A1_CONE and ODD_SKEW ops
and the first three files of MALFORMED.

pytest does not collect this file: it is a tool, run by hand and in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402

NORMAL_FORMS = [["normal-form-sym", f"n={n}"] for n in (2, 3, 4)] \
    + [["normal-form-gen", f"n={n}"] for n in (2, 3, 4)] \
    + [["normal-form-skew", f"n={n}"] for n in (4, 6, 8)]
RANDOM_FAMILIES = 30
BUDGET = "40"
TIMEOUT = 300  # seconds per op and tree
JOBS = 2  # ops run at a time
# name -> a family file with one defect; the first three, the kind checks,
# run in --quick too.
MALFORMED = {
    "not-symmetric": "kind = symmetric\nvars = x, y\nmatrix = [[x, x], [y, y]]",
    "skew-diagonal": "kind = skew\nvars = x\nmatrix = [[x, x], [-x, 0]]",
    "not-skew": "kind = skew\nvars = x, y\nmatrix = [[0, x], [x, 0]]",
    "upper-on-general": "kind = general\nvars = x\nupper = [[x]]",
    "ragged": "kind = general\nvars = x, y\nmatrix = [[x, y], [y]]",
    "not-square": "kind = general\nvars = x, y\nmatrix = [[x, y]]",
    "n-mismatch": "kind = symmetric\nvars = x\nn = 3\nmatrix = [[x]]",
    "unknown-variable": "kind = symmetric\nvars = x\nmatrix = [[w]]",
}

NON_GERM = "kind = symmetric; vars = x, y; matrix = [[1, x], [x, 1+y]]"
# Two sections of the isolated A1 cone u*w - v^2, at m0 - m = 2 and 1: the
# catalog sections have a non-isolated target, so only these reach ck's
# tau = mu + b0 and tau = mu from the command line.
A1_CONE = {
    "a1-cone-curve": "kind = section; fvars = u, v, w; f = u*w - v^2; "
                     "vars = x; map = [x^2, x^3, x]",
    "a1-cone-surface": "kind = section; fvars = u, v, w; f = u*w - v^2; "
                       "vars = x, y; map = [x, y, x^2 + y^3]",
}
# Odd-size skew families have no Pf, so analyze and verify both reject them.
ODD_SKEW = {
    "odd-skew-3": "kind = skew; vars = x, y, z; upper = [[x, y], [z]]",
    "odd-skew-1": "kind = skew; vars = x; matrix = [[0]]",
}
IDENTITIES = ("eqeq", "betas", "imax", "submax", "gorenstein", "ck", "gorp",
              "diag")

# Runs one CLI call in the child process: argv[1] is the source tree,
# argv[2] the CLI arguments as JSON.  Prints one JSON line.
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from matsing import groebner
from matsing.cli import main
steps = peak = 0
tick = groebner._Counter.tick
def counted(self):
    global steps, peak
    steps += 1
    try:
        tick(self)
    finally:
        peak = max(peak, self.steps)
groebner._Counter.tick = counted
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = main(json.loads(sys.argv[2]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"stdout": out.getvalue(), "stderr": err.getvalue(),
                  "code": code, "steps": steps, "peak": peak}))
"""


def ops(workdir: str, quick: bool) -> list:
    """The op list, as CLI argument lists; input files go into workdir."""
    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name + ".fam")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return path

    def analyze(target: list) -> list:
        return [["analyze", *target, "--json"],
                ["analyze", *target, "--json", "--max-steps", BUDGET]]

    def verify(target: list, ids=IDENTITIES) -> list:
        return [["verify", "--theorem", i, *target, "--json"] for i in ids]

    def four(target: list) -> list:
        return analyze(target) + verify(target, ["eqeq"]) + [
            ["resolution", "--check", *target, "--json"]]

    pencils = [[write(name, text)] for name, text in gen.PENCILS.items()]
    malformed = [["analyze", write(name, text), "--json"]
                 for name, text in MALFORMED.items()]
    unit = [write("non-germ", NON_GERM)]
    non_germ = [["analyze", *unit, "--json"]] + verify(unit)
    cones = []
    for name, text in A1_CONE.items():
        target = [write(name, text)]
        cones += [["analyze", *target, "--json"]] + verify(target)
    odd = []
    for name, text in ODD_SKEW.items():
        target = [write(name, text)]
        odd += [["analyze", *target, "--json"]] + verify(target,
                                                          ["ck", "diag"])
    out = [op for target in gen.CATALOG for op in four(target)]
    if quick:
        return (out + [op for target in pencils for op in analyze(target)]
                + malformed[:3]
                + [op for target in pencils for op in verify(target)]
                + non_germ + cones + odd)
    out += [op for target in pencils for op in four(target)] + malformed
    for target in gen.CATALOG + pencils:
        out += verify(target, IDENTITIES[1:])
    out += non_germ + cones + odd
    for target in NORMAL_FORMS:
        if target not in gen.CATALOG:
            out += four(target)
    for name, text in gen.KNOWN_SLOW.items():
        path = write(name, text)
        out.append(["analyze", path, "--json", "--max-steps", BUDGET])
        for cmd, argv in gen.SLOW_COMMANDS.items():
            if (name, cmd) not in gen.HANGING:
                out.append([*argv, path, "--json"])
    rng = random.Random("cli-diff")
    for n in gen.DIAG_SIZES:
        for _ in range(gen.DIAG_PER_SIZE):
            a = gen.diag_tuple(rng, n)
            out += four(["diag-sym", "a=(" + ",".join(map(str, a)) + ")"])
    shape = gen.FINISHING_SHAPES[0]
    for i in range(RANDOM_FAMILIES):
        out += four([write(f"random-{i:02d}",
                           gen.random_family_text(rng, *shape))])
    return out


def run(src: str, argv: list, seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, src, json.dumps(argv)], env=env,
            capture_output=True, text=True, timeout=TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"stdout": "", "stderr": "", "code": "timeout", "steps": None,
                "peak": None}
    try:
        return json.loads(proc.stdout)
    except ValueError:  # the child died: keep what it left
        return {"stdout": proc.stdout,
                "stderr": proc.stderr.replace(src, "SRC"),
                "code": proc.returncode, "steps": None, "peak": None}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()
    srcs = [os.path.abspath(s) for s in (args.old_src, args.new_src)]
    with tempfile.TemporaryDirectory() as workdir:
        todo = ops(workdir, args.quick)

        def both(argv: list) -> list:
            return [run(src, argv, seed)
                    for seed, src in enumerate(srcs, 1)]

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(both, todo))
    differ = timeouts = 0
    totals = [0, 0]
    for argv, (a, b) in zip(todo, results):
        for side, r in enumerate((a, b)):
            totals[side] += r["steps"] or 0
        shown = " ".join(argv).replace(workdir, "WORK")
        if "timeout" in (a["code"], b["code"]):
            timeouts += 1
            print(f"TIMEOUT {shown}: code {a['code']!r} -> {b['code']!r}")
            continue
        parts = [f"{f} differs" for f in ("stdout", "stderr") if a[f] != b[f]]
        if a["code"] != b["code"]:
            parts.append(f"code {a['code']!r} -> {b['code']!r}")
        if (a["steps"], a["peak"]) != (b["steps"], b["peak"]):
            parts.append(f"steps {a['steps']!r} -> {b['steps']!r}, "
                         f"peak {a['peak']!r} -> {b['peak']!r}")
        if parts:
            differ += 1
            print(f"DIFF {shown}: " + "; ".join(parts))
    print(f"{len(todo)} ops, {differ} differ, {timeouts} timed out; "
          f"steps {totals[0]} -> {totals[1]}")
    return 1 if differ or timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
