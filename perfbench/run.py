"""The matsing benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload catalog-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  An op is one `matsing.cli.main([...,
"--json"])` call made in a worker process (worker.py); its time is measured
in the worker, and its output is checked (checks.py) against a committed
reference, a closed form or the identity verdicts.  This process runs one
worker at a time and kills a worker whose op passes the deadline; that op
counts as failed, and as its deadline in the pass time.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
pass_s is the mean wall time of a pass scaled to a fixed speed of the
machine, measured by the worker's reference_work() (README.md).  With
--trace 1 half of the time runs untraced and half traced (tracer.py), and the
metrics are the per-layer ones.  Every metric is printed by name with its
unit; the last line is one JSON object.  The exit code is 1 when an output
is wrong and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Iterator, List, Optional

from checks import failure, load_refs
from gen import DEFAULT_SEED, ROOT, WORKDIR, Inputs
from tracer import GROUPS

SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# warm: one worker runs every op of a pass, after an untimed warm-up pass
# (setups: workers started one after another, each for an equal share of
# the time).  Cold workloads start a fresh worker for every op.
WORKLOADS = {
    "catalog-batch": {"warm": True, "setups": 3, "deadline": 10.0},
    "normal-forms-cold": {"warm": False, "deadline": 60.0},
    "hard-local": {"warm": False, "deadline": 20.0},
}

# Usual time of worker.reference_work() on the machine this benchmark was
# written on (see README.md): pass_s is the pass time at that speed.
REF_S = 0.018
READY_TIMEOUT = 60.0
GRACE = 2.0  # time a traced worker gets to report its open spans
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, traced: bool):
        self.traced = traced
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self.buf = b""

    def read(self, timeout: float) -> Optional[dict]:
        """The next message, or None when none arrives in time."""
        end = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = end - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied(f"worker exited with {self.proc.wait()}")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def wait_ready(self) -> float:
        if self.read(READY_TIMEOUT) is None:
            raise WorkerDied("worker did not start")
        return perf_counter() - self.started

    def call(self, argv: List[str], deadline: float,
             ref: bool) -> Optional[dict]:
        request = {"argv": argv, "ref": ref}
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        return self.read(deadline)

    def abort(self) -> Optional[list]:
        """Stop a worker whose op passed its deadline; a traced worker
        first reports the layers that were open."""
        open_groups = None
        if self.traced and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGUSR1)
            try:
                msg = self.read(GRACE)
                while msg is not None and "open" not in msg:
                    msg = self.read(GRACE)
                open_groups = msg and msg["open"]
            except (WorkerDied, ValueError):
                pass
        self.kill()
        return open_groups

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            pass
        self.kill()


class Stats:
    """Samples of one phase (untraced or traced) of a run."""

    def __init__(self):
        self.setups: list = []
        self.passes: list = []  # wall time of each timed pass
        self.ref_times: list = []  # worker.reference_work() in untraced ops
        self.op_times: list = []
        self.attempted = 0
        self.completed = 0
        self.failures: Counter = Counter()
        self.wrong = 0
        self.hangs: list = []  # (argv, groups open at the deadline)
        self.pass_traces: list = []  # per timed pass, the op summaries


class Runner:
    """Runs passes of ops, drawn from `passes`, in workers as `conf`
    says; one Stats per phase."""

    def __init__(self, conf: dict, passes: Iterator[List[dict]], refs: dict,
                 ops_per_pass: Optional[int] = None):
        self.conf = conf
        self.deadline = conf["deadline"]
        self.passes = passes
        self.refs = refs
        self.ops_per_pass = ops_per_pass
        self.worker: Optional[Worker] = None
        self.traced = False

    def next_pass(self) -> List[dict]:
        return next(self.passes)[:self.ops_per_pass]

    def phase(self, seconds: float, traced: bool, setups: int) -> Stats:
        st = Stats()
        self.traced = traced
        try:
            if self.conf["warm"]:
                for _ in range(setups):
                    self.worker = Worker(traced)
                    self.worker.wait_ready()
                    self.run_pass(self.next_pass(), st, timed=False)
                    st.setups.append(perf_counter() - self.worker.started)
                    self.timed_passes(seconds / setups, st)
                    self.worker.close()
                    self.worker = None
            else:
                self.timed_passes(seconds, st)
        finally:
            if self.worker is not None:
                self.worker.kill()
                self.worker = None
        return st

    def timed_passes(self, seconds: float, st: Stats) -> None:
        end = perf_counter() + seconds
        while True:
            ops = self.next_pass()
            first = len(st.ref_times)
            t0 = perf_counter()
            traces = self.run_pass(ops, st, timed=True)
            st.passes.append(perf_counter() - t0
                             - sum(st.ref_times[first:]))
            st.pass_traces.append(traces)
            if perf_counter() >= end:
                return

    def run_pass(self, ops: List[dict], st: Stats, timed: bool) -> list:
        traces = []
        for op in ops:
            cold = not self.conf["warm"]
            if cold:
                self.worker = Worker(self.traced)
                st.setups.append(self.worker.wait_ready())
            reply = self.run_op(op, st, timed)
            if reply is not None and "trace" in reply and timed:
                traces.append(reply["trace"])
            if cold and self.worker is not None:
                self.worker.close()
                self.worker = None
        return traces

    def run_op(self, op: dict, st: Stats, timed: bool) -> Optional[dict]:
        st.attempted += 1
        try:
            reply = self.worker.call(op["argv"], self.deadline,
                                     timed and not self.traced)
        except (WorkerDied, BrokenPipeError, ValueError) as exc:
            reply, why = None, f"worker died: {exc}"
        else:
            why = None if reply is not None else "timeout"
        if reply is None:
            if why == "timeout":
                open_groups = self.worker.abort() or []
                st.hangs.append((" ".join(op["argv"]), open_groups))
            else:
                self.worker.kill()
                st.wrong += 1
            st.failures[why] += 1
            if timed:
                st.op_times.append(self.deadline)
            self.worker = None
            if self.conf["warm"]:
                self.worker = Worker(self.traced)
                self.worker.wait_ready()
            return None
        why = failure(op, reply, self.refs)
        if why is not None:
            st.failures[why] += 1
            st.wrong += 1
        elif timed:
            st.completed += 1
        if timed:
            st.op_times.append(reply["elapsed"])
            st.ref_times.extend(reply["ref"])
        return reply

    def measure(self, seconds: float, trace: bool) -> dict:
        if not trace:
            return {"plain": self.phase(seconds, False,
                                        self.conf.get("setups", 1))}
        return {"plain": self.phase(seconds / 2, False, 1),
                "traced": self.phase(seconds / 2, True, 1)}


# -- metrics ---------------------------------------------------------------------

def tail(times: list) -> tuple:
    """(value, percentile label): the highest listed percentile with at
    least 10 samples beyond it, else the maximum."""
    xs = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return xs[rank - 1], f"p{p:g}"
    return xs[-1], "max"


def end_to_end(st: Stats) -> tuple:
    """Metrics {name: (value, unit)}, their notes, and the lines of the
    printed-only metrics.  pass_wall_s, ops_per_s, op_p50_s and op_tail_s
    are left out of BENCHMARK.json: the first three take in the machine's
    speed, which drifts between runs, and op_tail_s switches percentile
    with the sample count, which varies between runs."""
    value, label = tail(st.op_times)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall = statistics.mean(st.passes)
    ref = statistics.mean(st.ref_times) if st.ref_times else REF_S
    m = {
        "setup_s": (statistics.median(st.setups), "s"),
        "pass_s": (wall * REF_S / ref, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(st.setups)} worker set-ups",
        "pass_s": f"pass_wall_s at a reference_work() time of {REF_S:g} s",
        "peak_rss_mb": "largest worker",
    }
    n = len(st.op_times)
    extra = [f"  pass_wall_s = {wall:.6g} s  (mean of {len(st.passes)} "
             "passes)",
             f"  ref_s = {ref:.6g} s  (mean of {len(st.ref_times)} "
             "reference_work() times)",
             f"  ops_per_s = {st.completed / sum(st.passes):.6g} 1/s  "
             f"({st.completed} correct ops)",
             f"  op_p50_s = {statistics.median(st.op_times):.6g} s  "
             f"({n} op times)",
             f"  op_tail_s = {value:.6g} s  ({label} of {n} op times)"]
    return m, notes, extra


def per_layer(plain: Stats, traced: Stats) -> tuple:
    n = len(traced.passes)
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    calls: Counter = Counter()
    root_s = 0.0
    hits = gens_max = bits_max = 0
    for op_traces in traced.pass_traces:
        for t in op_traces:
            self_s.update(t["self"])
            incl_s.update(t["incl"])
            calls.update(t["calls"])
            root_s += t["root_s"]
            hits += t["member_hits"]
            gens_max = max(gens_max, t["basis_gens_max"])
            bits_max = max(bits_max, t["coeff_bits_max"])
    m = {}
    for group in GROUPS:
        if not group.startswith("invariants."):
            m[group + "_s"] = (self_s[group] / n, "s")
    for group in ("milnor", "tau_matrix", "log_fields", "betti"):
        m[f"invariants.{group}_s"] = (incl_s["invariants." + group] / n, "s")
    m["invariants.analyze_self_s"] = (self_s["invariants.analyze"] / n, "s")
    m["invariants.self_s"] = (sum(v for g, v in self_s.items()
                                  if g.startswith("invariants.")) / n, "s")
    m["groebner.member_calls"] = (calls["groebner.member"] / n, "count")
    m["groebner.member_hit_frac"] = (
        hits / calls["groebner.member"] if calls["groebner.member"] else 0.0,
        "ratio")
    m["groebner.basis_calls"] = (calls["groebner.basis"] / n, "count")
    m["groebner.basis_gens_max"] = (gens_max, "count")
    m["groebner.coeff_bits_max"] = (bits_max, "bit")
    m["groebner.syzygies_calls"] = (calls["groebner.syzygies"] / n, "count")
    m["poly.substitute_calls"] = (calls["poly.substitute"] / n, "count")
    m["complexes.homology_calls"] = (calls["complexes.homology"] / n, "count")
    m["families.parse_calls"] = (calls["families.parse"] / n, "count")
    traced_pass = sum(traced.passes) / n
    m["traced_pass_s"] = (traced_pass, "s")
    m["unattributed_s"] = (traced_pass - root_s / n, "s")
    m["trace_overhead"] = (statistics.mean(traced.passes)
                           / statistics.mean(plain.passes), "ratio")
    layers = Counter(layer(groups) for _, groups in traced.hangs)
    m["timeouts"] = (sum(layers.values()), "count")
    notes = {"traced_pass_s": f"mean of {n} traced passes; the *_s self "
                              "times, invariants.self_s and unattributed_s "
                              "add up to it"}
    extra = [f"  timeouts.{k} = {v} count" for k, v in sorted(layers.items())]
    return m, notes, extra


def layer(open_groups: list) -> str:
    """The innermost layer open when an op passed its deadline."""
    return open_groups[-1].split(".")[0] if open_groups else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            refs: Optional[dict] = None,
            ops_per_pass: Optional[int] = None) -> tuple:
    """Run one workload; returns (result object, printable lines)."""
    conf = WORKLOADS[workload]
    workdir = os.path.join(WORKDIR, f"{workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(conf, Inputs(workload, seed, workdir).passes(),
                    load_refs() if refs is None else refs, ops_per_pass)
    phases = runner.measure(seconds, trace)
    if trace:
        metrics, notes, extra = per_layer(phases["plain"], phases["traced"])
    else:
        metrics, notes, extra = end_to_end(phases["plain"])
    attempted, failed, wrong, outcome_lines = outcome(phases.values())
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  "
             f"trace {int(trace)}"]
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        lines.append(f"  {name} = {value:.6g} {unit}"
                     + (f"  ({note})" if note else ""))
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines + extra + outcome_lines


def outcome(stats) -> tuple:
    """(attempted, failed, wrong, lines): fail_frac, the failure reasons
    and, for each op that passed its deadline, the layers open then."""
    stats = list(stats)
    attempted = sum(s.attempted for s in stats)
    failures: Counter = Counter()
    for s in stats:
        failures.update(s.failures)
    failed = sum(failures.values())
    wrong = sum(s.wrong for s in stats)
    lines = [f"  fail_frac = {failed / attempted:.6g} ratio  "
             f"({failed} of {attempted} ops failed, {wrong} wrong)"]
    for why, count in sorted(failures.items()):
        lines.append(f"  failure x{count}: {why}")
    for s in stats:
        for argv, open_groups in s.hangs:
            lines.append(f"  deadline: {argv}  open: "
                         + (" > ".join(open_groups) or "not traced"))
    return attempted, failed, wrong, lines


def main() -> int:
    p = argparse.ArgumentParser(description="matsing benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "matsing", "__init__.py")):
        print(f"error: no matsing sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
