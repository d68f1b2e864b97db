"""Deadline probe for the inputs that hang on the seed code.

    python3 perfbench/hangs.py [--seed 1]

Runs, each in a fresh traced worker under the 10 s DEADLINE, the ops on the
known-slow inputs that are left out of the timed workloads (gen.HANGING)
and PER_SHAPE seeded random families of each shape in gen.HANGING_SHAPES.
For every op that passes the deadline it prints the layers open at that
moment; an op that finishes has its output checked like any benchmark op
(known values where they exist, and no FAILS verdict).  Exits 1 on a wrong
output.
"""

from __future__ import annotations

import argparse
import compileall
import os
import random
import shutil
import sys
from collections import Counter

from gen import (DEFAULT_SEED, HANGING, HANGING_SHAPES, KNOWN_SLOW, WORKDIR,
                 Inputs, slow_op)
from run import SRC, Runner, layer, outcome

PER_SHAPE = 3
DEADLINE = 10.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "matsing", "__init__.py")):
        print(f"error: no matsing sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    workdir = os.path.join(WORKDIR, f"hangs-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = Inputs("hard-local", args.seed, workdir)
    inputs.rng = random.Random(f"hangs:{args.seed}")
    groups = {"known-slow": [slow_op(name, cmd,
                                     inputs.write(name, KNOWN_SLOW[name]))
                             for name, cmd in HANGING]}
    for shape in HANGING_SHAPES:
        label = "random {} {}x{} in {} variables".format(shape[0], shape[1],
                                                         shape[1], shape[2])
        groups[label] = inputs.random_ops(shape, PER_SHAPE)
    conf = {"warm": False, "deadline": DEADLINE}
    all_stats = []
    layers: Counter = Counter()
    for label, ops in groups.items():
        st = Runner(conf, iter([ops]), {}).phase(0, True, 1)
        all_stats.append(st)
        layers.update(layer(open_groups) for _, open_groups in st.hangs)
        print(f"{label}: {st.completed} of {st.attempted} finished within "
              f"{DEADLINE:g} s")
    _, _, wrong, lines = outcome(all_stats)
    print("\n".join(lines))
    for name, count in sorted(layers.items()):
        print(f"  timeouts.{name} = {count} count")
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
