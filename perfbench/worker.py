"""Benchmark worker: runs `matsing.cli.main` calls sent by run.py.

    python3 perfbench/worker.py <trace 0|1>

Reads one JSON request per line on stdin and answers one JSON line on the
stdout it was started with.  The call's own stdout and stderr are captured
and returned.  The op time is measured here, around the call.  A request
with "ref" also times `reference_work()` right before the call and every
REF_EVERY seconds during it; the op time leaves those out.  With tracing
on, SIGUSR1 makes the worker report the layers open at that moment and
exit; run.py sends it when an op passes its deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter

EXIT_DEADLINE = 124
REF_EVERY = 0.5


def _reference_polys() -> list:
    rng = random.Random(0)
    return [{tuple(rng.randint(0, 3) for _ in range(3)):
             Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                      rng.randint(1, 4))
             for _ in range(12)} for _ in range(6)]


REFERENCE_POLYS = _reference_polys()


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure Python shaped like matsing's
    own work: all products of six sparse polynomials with Fraction
    coefficients, summed in a dict.  It uses nothing from matsing, so its
    time follows only the machine's speed at that moment."""
    t0 = perf_counter()
    acc: dict = {}
    for a in REFERENCE_POLYS:
        for b in REFERENCE_POLYS:
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                    acc[e] = acc.get(e, 0) + ca * cb
    return perf_counter() - t0


def main() -> int:
    traced = sys.argv[1] == "1"
    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)  # stray writes to fd 1
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(msg: dict) -> None:
        proto.write(json.dumps(msg) + "\n")

    from matsing import cli
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

        def report_open(signum, frame):
            send({"open": tracer.open_groups()})
            proto.flush()
            os._exit(EXIT_DEADLINE)

        signal.signal(signal.SIGUSR1, report_open)
    during: list = []
    signal.signal(signal.SIGALRM,
                  lambda signum, frame: during.append(reference_work()))
    send({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        ref = [reference_work()] if request.get("ref") else []
        during.clear()
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        if ref:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - t0 - sum(during)
        ref += during
        reply = {"elapsed": elapsed, "exit": code, "stdout": out.getvalue(),
                 "stderr": err.getvalue(), "error": error, "ref": ref}
        if tracer is not None:
            reply["trace"] = tracer.summary()
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
