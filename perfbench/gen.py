"""Seeded inputs for the benchmark workloads.

Every input the program sees is either a catalog name with its arguments or
a `.fam` file written here; the program never sees the seed.  The same seed
gives the same sequence of passes.

    python3 perfbench/gen.py --workload hard-local --seed 1 --passes 2 --out DIR

prints the op lists of the first passes and writes their `.fam` files to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from typing import Iterator, List

DEFAULT_SEED = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")

# Small catalog entries: each `analyze` takes 5-200 ms on the seed code.
CATALOG = [
    ["generic-sym-2"],
    ["generic-gen-2"],
    ["generic-skew-4"],
    ["normal-form-sym", "n=3"],
    ["normal-form-gen", "n=3"],
    ["remark-4-8-iii"],
    ["cross-ratio-example"],
]

# The small pencils of the acceptance tests 5-7 (the skew Gorenstein pencil
# is in KNOWN_SLOW instead).
PENCILS = {
    "pencil-sym-a": "kind=symmetric; vars=x,y; matrix=[[x,y],[y,-x]]",
    "pencil-sym-b": "kind=symmetric; vars=x,y; matrix=[[x,y],[y,x^2]]",
    "pencil-gen-a": "kind=general; vars=x,y,z; matrix=[[x,y],[z,-x]]",
    "pencil-gen-b": "kind=general; vars=x,y,z; matrix=[[x,y],[z,x^2]]",
    "pencil-gen-c": "kind=general; vars=x,y; matrix=[[x,y],[-y,x]]",
    "pencil-gen-d": "kind=general; vars=x,y; matrix=[[x,y],[-y,x+y^2]]",
    "pencil-skew-a": "kind=skew; vars=x1..x4; upper=[[x1,x2,x3],[x4,-x2],[x1]]",
}

NORMAL_FORMS = [
    ["normal-form-sym", "n=4"],
    ["normal-form-gen", "n=4"],
    ["normal-form-skew", "n=6"],
]

# The known-slow inputs of the ROADMAP table, plus the skew Gorenstein pencil.
KNOWN_SLOW = {
    "slow-sym": "kind=symmetric; vars=x,y; upper=[[x,y,0],[x,y^2],[x^2+y]]",
    "slow-gen": "kind=general; vars=x,y,z; matrix=[[x,y^2+z^3],[z^2+x*y,y+x^3]]",
    "slow-skew6": "kind=skew; vars=x,y,z; "
                  "upper=[[x,y,z,0,0],[z,0,y^2,0],[x,0,0],[1,0],[x^2+y^3]]",
    "pencil-skew-gor": "kind=skew; vars=x1..x4; "
                       "upper=[[x1,x2,x3],[x4,-x2],[x1+x2^2]]",
}

# Values proved by other routes (ROADMAP, re-anchor 1) for known-slow
# inputs whose full computation does not finish on the seed code.
KNOWN_VALUES = {
    "slow-sym": {"mu": 4, "tau": 4, "betti": [3, 3, 0, 0]},
    "slow-gen": {"mu": 4, "tau": 4, "betti": [2, 2, 0, 0, 0]},
}

# The three ops of each known-slow input, as CLI arguments before the file.
SLOW_COMMANDS = {
    "eqeq": ["verify", "--theorem", "eqeq"],
    "betas": ["verify", "--theorem", "betas"],
    "resolution": ["resolution", "--check"],
}

# Ops on the known-slow inputs that do not finish within minutes on the
# seed code.  They are not part of any timed workload (see hangs.py).
HANGING = [("slow-sym", "eqeq"), ("slow-gen", "eqeq"), ("slow-gen", "betas"),
           ("slow-skew6", "eqeq"), ("slow-skew6", "resolution"),
           ("pencil-skew-gor", "eqeq")]

# Shapes of the test suite's random_family generator: (kind, n, variables).
# On the seed code, analyze finished on 40 of 40 draws of the first shape.
# Draws of the others run past any deadline 30-100 % of the time, so they
# are probed by hangs.py instead of timed.
FINISHING_SHAPES = [("symmetric", 2, 1)]
HANGING_SHAPES = [("symmetric", 2, 2), ("general", 2, 2), ("general", 2, 3),
                  ("skew", 4, 4), ("skew", 4, 5), ("symmetric", 3, 2)]

DIAG_SIZES = (2, 3, 4)
DIAG_PER_SIZE = 3
RANDOM_PER_SHAPE = 8


def op(argv: List[str], check: str, key: str = "", **extra) -> dict:
    """One CLI call.  check names the gate applied to its output: 'ref'
    (byte-identical to the committed reference under key), 'diag' (closed
    forms), or 'sound' (exit 0, well-formed, no FAILS verdict).  An op with
    'known' is also checked against KNOWN_VALUES[known]."""
    return dict(argv=argv + ["--json"], check=check, key=key, **extra)


def diag_tuple(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randint(1, 4) for _ in range(n))


def _poly_text(rng: random.Random, names: List[str], max_degree: int = 2,
               terms: int = 3) -> str:
    """A random sparse polynomial vanishing at 0, drawn like the test
    suite's random_poly, written in the family file syntax."""
    parts: dict = {}
    for _ in range(rng.randint(1, terms)):
        e = [0] * len(names)
        for _ in range(rng.randint(1, max_degree)):
            e[rng.randrange(len(names))] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            parts[tuple(e)] = parts.get(tuple(e), Fraction(0)) + c
    out = ""
    for exp, c in sorted(parts.items(), reverse=True):
        if c == 0:
            continue
        mono = "*".join(f"{v}^{k}" if k > 1 else v
                        for v, k in zip(names, exp) if k)
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def random_family_text(rng: random.Random, kind: str, n: int, m: int) -> str:
    names = [f"x{i + 1}" for i in range(m)]
    grid = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "general":
                grid[i][j] = _poly_text(rng, names)
            elif j > i or (j == i and kind == "symmetric"):
                p = _poly_text(rng, names)
                grid[i][j] = p
                if j != i:
                    grid[j][i] = p if kind == "symmetric" else f"-({p})"
    rows = ", ".join("[" + ", ".join(r) + "]" for r in grid)
    return f"kind = {kind}\nvars = {', '.join(names)}\nmatrix = [{rows}]\n"


class Inputs:
    """Writes `.fam` files into workdir and hands out the op list of each
    pass.  Passes of one workload differ only in their seeded draws."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._count = 0

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name + ".fam")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + ("" if text.endswith("\n") else "\n"))
        return os.path.relpath(path, ROOT)  # workers run in ROOT

    def passes(self) -> Iterator[List[dict]]:
        while True:
            yield WORKLOADS[self.workload](self)

    def catalog_batch(self) -> List[dict]:
        ops = [op(["analyze"] + a, "ref", "analyze " + " ".join(a))
               for a in CATALOG]
        for name, text in PENCILS.items():
            ops.append(op(["analyze", self.write(name, text)], "ref",
                          "analyze " + name))
        for n in DIAG_SIZES:
            for _ in range(DIAG_PER_SIZE):
                a = diag_tuple(self.rng, n)
                arg = "a=(" + ",".join(map(str, a)) + ")"
                ops.append(op(["analyze", "diag-sym", arg], "diag", a=list(a)))
        return ops

    def normal_forms_cold(self) -> List[dict]:
        return [op(["analyze"] + a, "ref", "analyze " + " ".join(a))
                for a in NORMAL_FORMS]

    def hard_local(self) -> List[dict]:
        ops = []
        for name, text in KNOWN_SLOW.items():
            path = self.write(name, text)
            for cmd in SLOW_COMMANDS:
                if (name, cmd) not in HANGING:
                    ops.append(slow_op(name, cmd, path))
        for shape in FINISHING_SHAPES:
            ops += self.random_ops(shape, RANDOM_PER_SHAPE)
        return ops

    def random_ops(self, shape: tuple, count: int) -> List[dict]:
        out = []
        for _ in range(count):
            self._count += 1
            path = self.write(f"random-{self._count:05d}",
                              random_family_text(self.rng, *shape))
            out.append(op(["analyze", path], "sound", shape=list(shape)))
        return out


def slow_op(name: str, cmd: str, path: str) -> dict:
    """An op on a known-slow input; one that hangs on the seed code has
    no committed reference."""
    check = "sound" if (name, cmd) in HANGING else "ref"
    return op(SLOW_COMMANDS[cmd] + [path], check, f"{cmd} {name}",
              known=name if name in KNOWN_VALUES else None)


WORKLOADS = {
    "catalog-batch": Inputs.catalog_batch,
    "normal-forms-cold": Inputs.normal_forms_cold,
    "hard-local": Inputs.hard_local,
}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    it = Inputs(args.workload, args.seed, args.out).passes()
    for _ in range(args.passes):
        print(json.dumps(next(it)))


if __name__ == "__main__":
    main()
