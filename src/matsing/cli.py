"""Command-line interface.

Subcommands:

    analyze    <file-or-catalog> [key=value ...]   all invariants + checks
    verify     <file-or-catalog> --theorem <id>    one identity, with verdict
    resolution <file-or-catalog> [--check]         complex ranks, d^2, homology
    batch      <directory>                         analyze every file

Common flags: --json (machine output, deterministic), --strict (exit 2 when
any check is NOT-APPLICABLE), --max-steps N (reduction step guard: each
completion, normal form and member() query gets its own budget of N steps,
so one invocation can take many times N in total).

Exit codes: 0 success, 1 input or parse error, 2 inapplicable hypothesis
under --strict, 3 step guard exceeded, 4 a verified identity FAILS.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import List, Optional

from .complexes import homology_profile, kind_complex, verify_complex
from .families import FamilySpec, ParseError, catalog, catalog_names, \
    parse_family
from .groebner import StepLimitExceeded, set_step_limit
from .invariants import IDENTITIES, _jsonable, analyze, verify_identity
from .matalg import MatrixFamily

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STRICT = 2
EXIT_STEPS = 3
EXIT_FAILS = 4


def _fmt(v) -> str:
    v = _jsonable(v)
    if isinstance(v, list):
        return "[" + ", ".join(map(_fmt, v)) + "]"
    return str(v)


def _parse_params(tokens: List[str]) -> dict:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        m = re.fullmatch(r"\(([^()]*)\)", value)
        if m:
            items = [s.strip() for s in m.group(1).split(",") if s.strip()]
            params[key] = tuple(int(s) for s in items)
        elif re.fullmatch(r"-?\d+", value):
            params[key] = int(value)
        else:
            params[key] = value
    return params


def _load_spec(target: str, param_tokens: List[str]) -> FamilySpec:
    if os.path.exists(target):
        if param_tokens:
            raise ValueError("key=value parameters only apply to catalog "
                             "names, not files")
        with open(target, encoding="utf-8") as fh:
            return parse_family(fh.read())
    try:
        return catalog(target, **_parse_params(param_tokens))
    except KeyError:
        raise ValueError(f"{target!r} is neither a readable file nor a "
                         "catalog name; catalog: "
                         + ", ".join(catalog_names()))


def _print_report(report, out) -> None:
    if report.name:
        print(f"name = {report.name}", file=out)
    head = f"kind = {report.kind}"
    if report.n is not None:
        head += f", n = {report.n}"
    head += f", m = {report.m}"
    print(head, file=out)
    fields = report.FIELDS
    for f in fields[fields.index("mu"):fields.index("m0") + 1]:
        v = getattr(report, f)
        if v is not None:
            print(f"{f} = {_fmt(v)}", file=out)
    for c in report.checks:
        print(_check_line(f"check {c.identity:<11} {c.verdict}", c), file=out)


def _check_line(head: str, c) -> str:
    """head, then the sides and the note of the check record c."""
    if c.lhs is not None or c.rhs is not None:
        head += f"  lhs = {_fmt(c.lhs)}, rhs = {_fmt(c.rhs)}"
    return head + (f"  ({c.note})" if c.note else "")


def _cmd_analyze(args) -> int:
    spec = _load_spec(args.target, args.params)
    report = analyze(spec.subject(), name=spec.name)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        _print_report(report, sys.stdout)
    if args.strict and any(c.verdict == "NOT-APPLICABLE"
                           for c in report.checks):
        return EXIT_STRICT
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args.target, args.params)
    record = verify_identity(spec.subject(), args.theorem)
    if args.json:
        print(json.dumps(record.to_dict(), sort_keys=True, indent=2))
    else:
        print(_check_line(f"identity {record.identity}: {record.verdict}",
                          record))
    if record.verdict == "FAILS":
        return EXIT_FAILS
    if record.verdict == "NOT-APPLICABLE" and args.strict:
        return EXIT_STRICT
    return EXIT_OK


def _cmd_resolution(args) -> int:
    spec = _load_spec(args.target, args.params)
    if spec.kind == "section":
        raise ValueError("resolution applies to matrix families, not "
                         "sections")
    fam: MatrixFamily = spec.to_family()
    c = kind_complex(fam)
    square_zero = verify_complex(c)
    homology = homology_profile(c) if args.check else None
    if args.json:
        payload = {
            "kind": fam.kind,
            "n": fam.n,
            "ranks": list(c.ranks),
            "square_zero": square_zero,
            "homology": _jsonable(homology),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"kind = {fam.kind}, n = {fam.n}")
        print(f"ranks = {_fmt(list(c.ranks))}")
        print(f"d^2 = 0: {'yes' if square_zero else 'NO'}")
        if homology is not None:
            for k, h in enumerate(homology):
                print(f"H_{k} = {_fmt(h)}")
    return EXIT_OK if square_zero else EXIT_FAILS


def _cmd_batch(args) -> int:
    if not os.path.isdir(args.directory):
        raise ValueError(f"not a directory: {args.directory!r}")
    names = sorted(f for f in os.listdir(args.directory)
                   if os.path.isfile(os.path.join(args.directory, f)))
    entries = []
    counts = {"HOLDS": 0, "FAILS": 0, "NOT-APPLICABLE": 0, "errors": 0}
    for fname in names:
        path = os.path.join(args.directory, fname)
        try:
            with open(path, encoding="utf-8") as fh:
                spec = parse_family(fh.read())
            report = analyze(spec.subject(), name=spec.name or fname)
        except Exception as exc:  # one bad file must not stop the batch
            counts["errors"] += 1
            entries.append({"file": fname,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        for c in report.checks:
            counts[c.verdict] += 1
        entries.append({"file": fname, "report": report.to_dict()})
    payload = {"files": entries, "summary": counts}
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for e in entries:
            if "error" in e:
                print(f"{e['file']}: error: {e['error']}")
            else:
                r = e["report"]
                verdicts = [c["verdict"] for c in r["checks"]]
                brief = ", ".join(f"{verdicts.count(v)} {v}"
                                  for v in ("HOLDS", "FAILS",
                                            "NOT-APPLICABLE")
                                  if verdicts.count(v))
                print(f"{e['file']}: mu = {r['mu']}, checks: {brief}")
        print("summary: " + ", ".join(f"{k} = {v}"
                                      for k, v in sorted(counts.items())))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh namespace on every call, so reusing it is safe."""
    parser = argparse.ArgumentParser(
        prog="matsing",
        description="Invariants of matrix singularities: Milnor and Tjurina "
                    "numbers, resolutions, and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params=True):
        if params:
            p.add_argument("target",
                           help="input file path or catalog name")
            p.add_argument("params", nargs="*",
                           help="catalog parameters as key=value")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when a hypothesis is not met")
        p.add_argument("--max-steps", type=int, default=None,
                       help="cap on the reduction steps of each "
                            "standard-basis computation")

    p = sub.add_parser("analyze", help="all invariants and identity checks")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check one identity")
    common(p)
    p.add_argument("--theorem", required=True,
                   help="identity id: " + ", ".join(IDENTITIES))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("resolution",
                       help="build the kind-appropriate complex")
    common(p)
    p.add_argument("--check", action="store_true",
                   help="also compute homology dimensions")
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("batch", help="analyze every file in a directory")
    p.add_argument("directory")
    common(p, params=False)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    previous_limit = None
    if args.max_steps is not None:
        if args.max_steps <= 0:
            print("error: --max-steps must be positive", file=sys.stderr)
            return EXIT_INPUT
        previous_limit = set_step_limit(args.max_steps)
    try:
        return args.func(args)
    except StepLimitExceeded as exc:
        print(f"error: step guard exceeded ({exc})", file=sys.stderr)
        return EXIT_STEPS
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if previous_limit is not None:
            set_step_limit(previous_limit)


if __name__ == "__main__":
    sys.exit(main())
