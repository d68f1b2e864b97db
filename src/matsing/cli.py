"""matsing <command>: Milnor and Tjurina numbers, resolutions and identity
checks of matrix singularities.

    analyze    <file-or-catalog> [key=value ...]  all invariants + checks
    verify     <file-or-catalog> [key=value ...] --theorem <id>  one identity
    resolution <file-or-catalog> [key=value ...] [--check]  ranks, d^2 = 0
    batch      <directory>                        analyze every file

Options go before or after the positionals, a value after a space or "=".
<id> is one of eqeq, betas, imax, submax, gorenstein, ck, gorp, diag;
--check adds the homology dimensions.  Every command takes --json
(deterministic machine output), --strict (exit 2 when any check is
NOT-APPLICABLE), --max-steps N (each completion, normal form and member()
query gets its own budget of N reduction steps) and -h/--help (this text).

Exit codes: 0 success, 1 bad input or command line, 2 NOT-APPLICABLE under
--strict, 3 step guard exceeded, 4 a verified identity FAILS.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
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
    if not os.path.isdir(args.target):
        raise ValueError(f"not a directory: {args.target!r}")
    names = sorted(f for f in os.listdir(args.target)
                   if os.path.isfile(os.path.join(args.target, f)))
    entries = []
    counts = {"HOLDS": 0, "FAILS": 0, "NOT-APPLICABLE": 0, "errors": 0}
    for fname in names:
        path = os.path.join(args.target, fname)
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
    if args.strict and counts["NOT-APPLICABLE"]:
        return EXIT_STRICT
    return EXIT_OK


# command -> handler, own flags (None: takes a value, False: a switch)
COMMANDS = {"analyze": (_cmd_analyze, {}),
            "verify": (_cmd_verify, {"--theorem": None}),
            "resolution": (_cmd_resolution, {"--check": False}),
            "batch": (_cmd_batch, {})}


def _parse_argv(argv: List[str]) -> SimpleNamespace:
    """argv as a namespace: func, target, params and one attribute per
    flag; ValueError on a malformed command line."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got "
                         f"{argv[:1]}")
    command, rest = argv[0], iter(argv[1:])
    func, flags = COMMANDS[command]
    defaults = {"--max-steps": None, "--json": False, "--strict": False,
                **flags}
    opts, positionals = dict(defaults), []
    for tok in rest:
        name, eq, value = tok.partition("=")
        if not tok.startswith("-"):
            positionals.append(tok)
        elif name not in opts or (eq and defaults[name] is False):
            raise ValueError(f"{command} takes no option {tok!r}")
        elif defaults[name] is False:
            opts[name] = True
        else:
            opts[name] = value if eq else next(rest, None)
            if opts[name] is None:
                raise ValueError(f"{name} needs a value")
    args = SimpleNamespace(func=func, **{k[2:].replace("-", "_"): v
                                         for k, v in opts.items()})
    if args.max_steps is not None:
        if not (args.max_steps.isdecimal() and int(args.max_steps) > 0):
            raise ValueError("--max-steps needs a positive integer, got "
                             f"{args.max_steps!r}")
        args.max_steps = int(args.max_steps)
    what = "one directory" if command == "batch" else "a file or catalog name"
    if not positionals or command == "batch" and len(positionals) > 1:
        raise ValueError(f"{command} takes {what}, got {positionals}")
    args.target, args.params = positionals[0], positionals[1:]
    if command == "verify" and args.theorem is None:
        raise ValueError("verify needs --theorem <id>")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__ or "")
        return EXIT_OK
    previous_limit = None
    try:
        args = _parse_argv(argv)
        if args.max_steps is not None:
            previous_limit = set_step_limit(args.max_steps)
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
