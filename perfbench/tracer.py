"""Span tracing of matsing's layers, installed from outside the program.

Each traced function is replaced by a wrapper at every binding site: in its
own module, in every matsing module that imported it by name, and on its
class for methods.  A wrapper records (id, parent id, group, start, end,
extra) into a list kept in memory; `summary()` turns the spans of one op
into per-group self times, inclusive times and counts.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Span group -> traced functions as (module, attribute).  A group's name is
# "<layer>.<part>", the layer being the matsing module that defines it.
GROUPS = {
    "cli.main": [("matsing.cli", "main")],
    "families.parse": [("matsing.families", "parse_family"),
                       ("matsing.families", "catalog")],
    "invariants.analyze": [("matsing.invariants", "analyze"),
                           ("matsing.invariants", "verify_identity")],
    "invariants.milnor": [("matsing.invariants", "milnor_number"),
                          ("matsing.invariants", "tjurina_number_function")],
    "invariants.tau_matrix": [("matsing.invariants", "tau_matrix"),
                              ("matsing.invariants", "tangent_module")],
    "invariants.log_fields": [("matsing.invariants", "der_log_f"),
                              ("matsing.invariants", "der_log_V"),
                              ("matsing.invariants", "pulled_field_module"),
                              ("matsing.invariants", "t1_kf"),
                              ("matsing.invariants", "t1_kv")],
    "invariants.betti": [("matsing.invariants", "betti_numbers"),
                         ("matsing.invariants", "function_presentation")],
    "complexes.kind_complex": [("matsing.complexes", "kind_complex"),
                               ("matsing.complexes", "jozefiak_complex"),
                               ("matsing.complexes", "jp_complex"),
                               ("matsing.complexes", "gn_complex"),
                               ("matsing.complexes", "koszul")],
    "complexes.pullback": [("matsing.complexes", "pullback")],
    "complexes.homology": [("matsing.complexes", "homology_dimension"),
                           ("matsing.complexes", "homology_profile")],
    "matalg.det_pf": [("matsing.matalg", "determinant"),
                      ("matsing.matalg", "pfaffian"),
                      ("matsing.matalg", "MatrixFamily.function")],
    "matalg.adjugate": [("matsing.matalg", "adjugate"),
                        ("matsing.matalg", "sub_pfaffian_matrix")],
    "matalg.minors_ideal": [("matsing.matalg", "minors_ideal")],
    "poly.substitute": [("matsing.poly", "substitute")],
    "poly.partial": [("matsing.poly", "partial")],
    "groebner.basis": [("matsing.groebner", "groebner_basis")],
    "groebner.quotient_dimension": [("matsing.groebner",
                                     "quotient_dimension")],
    "groebner.syzygies": [("matsing.groebner", "syzygies"),
                          ("matsing.groebner", "syzygies_of_basis")],
    "groebner.member": [("matsing.groebner", "member")],
}

# Groups whose metric is inclusive time (a stage view): time of the
# outermost span of the group, children included.
INCLUSIVE = ("invariants.milnor", "invariants.tau_matrix",
             "invariants.log_fields", "invariants.betti")

# Calls are counted, per group, for these functions only: one count per
# basis, syzygy module, homology group or loaded spec.
COUNTED = {"member", "groebner_basis", "syzygies_of_basis", "substitute",
           "homology_dimension", "parse_family", "catalog"}


def _coeff_bits(basis) -> int:
    bits = 0
    for vec in basis.generators:
        for p in vec:
            for c in p.terms.values():
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return bits


def _member_extra(args, result):
    return int(result.contains)


def _basis_extra(args, result):
    if args and result is args[0]:
        return None  # already complete: no new basis was built
    return (len(result.generators), _coeff_bits(result))


EXTRAS = {("groebner.member", "member"): _member_extra,
          ("groebner.basis", "groebner_basis"): _basis_extra}


class Tracer:
    """Spans of the current op, kept in memory until `summary()`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # (span id, group) of the open spans
        self.next_id = 1

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def open_groups(self) -> list:
        return [group for _, group in self.stack]

    def wrap(self, fn, group: str):
        extra_fn = EXTRAS.get((group, fn.__name__))
        counted = fn.__name__ in COUNTED
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1][0] if stack else 0
            stack.append((sid, group))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append([sid, parent, group, t0, t1, counted,
                                     None])
            if extra_fn is not None:
                tracer.spans[-1][6] = extra_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of GROUPS at every binding site."""
        importlib.import_module("matsing.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "matsing" or name.startswith("matsing.")]
        for group, targets in GROUPS.items():
            for modname, attr in targets:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.wrap(cls.__dict__[meth], group))
                    continue
                fn = getattr(owner, attr)
                wrapped = self.wrap(fn, group)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapped)

    def summary(self) -> dict:
        """Per-group totals over the spans recorded since `reset()`."""
        child = defaultdict(float)
        parent_of = {}
        for sid, parent, group, t0, t1, _, _ in self.spans:
            child[parent] += t1 - t0
            parent_of[sid] = (parent, group)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        root_s = 0.0
        member_hits = 0
        gens_max = bits_max = 0
        for sid, parent, group, t0, t1, counted, extra in self.spans:
            dur = t1 - t0
            self_s[group] += dur - child[sid]
            if parent == 0:
                root_s += dur
            if counted:
                calls[group] += 1
            if group in INCLUSIVE and not _inside(parent, group, parent_of):
                incl_s[group] += dur
            if extra is None:
                continue
            if group == "groebner.member":
                member_hits += extra
            else:
                gens_max = max(gens_max, extra[0])
                bits_max = max(bits_max, extra[1])
        return {"self": dict(self_s), "incl": dict(incl_s),
                "calls": dict(calls), "root_s": root_s,
                "member_hits": member_hits, "basis_gens_max": gens_max,
                "coeff_bits_max": bits_max}


def _inside(sid: int, group: str, parent_of: dict) -> bool:
    while sid:
        sid, g = parent_of.get(sid, (0, None))
        if g == group:
            return True
    return False
