"""Per-layer spans for logfirm, recorded from outside the library.

``Tracer.install`` wraps each public function named in ``LAYERS`` and
rebinds the wrapper under every name that holds the original in any loaded
``logfirm`` module.  Rebinding only where a function is defined would miss
calls made through another module's own binding (``fan`` and ``monoid``
import from ``intlinalg`` by name, for example).

A span is (function, parent span, operation id, start, end, outcome), kept
in memory and written out once at the end.  The timed runs never install
the tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

LAYERS = {
    "intlinalg": ("smith_normal_form", "hermite_normal_form", "solve_lattice",
                  "kernel_and_cokernel", "dual_rays", "ilp_feasible"),
    "monoid": ("saturate", "faces", "face_localization", "sharpen",
               "fs_pushout", "find_factorization"),
    "fan": ("make_cone", "cone_faces", "cone_intersection", "cone_complex",
            "star_subdivision", "common_refinement", "sigma_n", "point"),
    "firmament": ("firmament_from_charts", "firmament_member", "contact_order"),
    "firm": ("firm_check", "firm_check_pushout"),
    "lift": ("describe_lift",),
    "campana": ("m_multiplicity", "variant_multiplicities",
                "intersection_multiplicity"),
    "cli": ("dispatch",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)

# what a span records about its result, for the useful-outcome ratios
_OUTCOMES = {
    "intlinalg.ilp_feasible": lambda r: r is not None,
    "monoid.find_factorization": lambda r: r is not None,
    "fan.cone_faces": len,
}

_ILP = "intlinalg.ilp_feasible"
_MEMBER = "firmament.firmament_member"
_FACES = "fan.cone_faces"

# set-up metrics kept from the traced set-up: where `query` builds firmaments
SETUP_CALLS = ("fan.make_cone", "intlinalg.dual_rays", "intlinalg.ilp_feasible")


def metric_names() -> list[str]:
    """Every metric a traced run reports, in a fixed order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.time_s"]
    names += [f"{m}.self_s" for m in LAYERS]
    names += ["intlinalg.dual_rays.calls_in_ilp",
              "intlinalg.ilp_feasible.feasible_ratio",
              "monoid.find_factorization.found_ratio",
              "fan.cone_faces.faces_per_make_cone",
              "firmament.firmament_member.ilp_per_query",
              "trace.overhead_s", "gc.collections", "gc.time_s"]
    names += [f"setup.{m}.self_s" for m in LAYERS]
    names += [f"setup.{fn}.calls" for fn in SETUP_CALLS]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return ("count" if name.endswith((".calls", ".calls_in_ilp", ".collections"))
            else "ratio")


class Tracer:
    """Spans of the wrapped functions; ``op`` tags new spans with the id of
    the operation being run (-1 during set-up)."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []  # [fn, parent, op, start_ns, end_ns, outer, outcome]
        self._stack: list[int] = []
        self._depth = dict.fromkeys(FUNCTIONS, 0)
        self._saved: list[tuple] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for name in FUNCTIONS:
            module, fn = name.split(".")
            original = getattr(importlib.import_module(f"logfirm.{module}"), fn)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "logfirm" and not mod_name.startswith("logfirm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        outcome = _OUTCOMES.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, tracer.op, clock(), 0,
                    depth[name] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                stack.pop()
                span[4] = clock()
            if outcome is not None:
                span[6] = outcome(result)
            return result
        return traced

    # -- reporting ------------------------------------------------------------

    def metrics(self, in_setup: bool) -> dict[str, float]:
        """Layer metrics over the set-up spans or over the operation spans.
        Inclusive time counts only a function's outermost spans; a module's
        self time is its spans' time minus the time of their direct children."""
        spans = self.spans
        child_ns = [0] * len(spans)
        in_ilp = [False] * len(spans)
        in_member = [False] * len(spans)
        for i, (name, parent, _, start, end, _, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                pname = spans[parent][0]
                in_ilp[i] = in_ilp[parent] or pname == _ILP
                in_member[i] = in_member[parent] or pname == _MEMBER
        calls = dict.fromkeys(FUNCTIONS, 0)
        incl_ns = dict.fromkeys(FUNCTIONS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        positive = dict.fromkeys(FUNCTIONS, 0)
        dual_in_ilp = ilp_in_member = faces_made = 0
        for i, (name, parent, op, start, end, outer, outcome) in enumerate(spans):
            if (op < 0) != in_setup:
                continue
            calls[name] += 1
            if outer:
                incl_ns[name] += end - start
            self_ns[name.split(".")[0]] += end - start - child_ns[i]
            if outcome:
                positive[name] += outcome
            if name == "intlinalg.dual_rays" and in_ilp[i]:
                dual_in_ilp += 1
            if name == _ILP and in_member[i]:
                ilp_in_member += 1
            if name == "fan.make_cone" and parent >= 0 and spans[parent][0] == _FACES:
                faces_made += 1

        def ratio(a, b):
            return a / b if b else 0.0

        if in_setup:
            out = {f"setup.{m}.self_s": ns / 1e9 for m, ns in self_ns.items()}
            out.update({f"setup.{fn}.calls": calls[fn] for fn in SETUP_CALLS})
            return out
        out = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.time_s"] = incl_ns[fn] / 1e9
        out.update({f"{m}.self_s": ns / 1e9 for m, ns in self_ns.items()})
        out["intlinalg.dual_rays.calls_in_ilp"] = dual_in_ilp
        out["intlinalg.ilp_feasible.feasible_ratio"] = ratio(positive[_ILP], calls[_ILP])
        out["monoid.find_factorization.found_ratio"] = ratio(
            positive["monoid.find_factorization"], calls["monoid.find_factorization"])
        out["fan.cone_faces.faces_per_make_cone"] = ratio(positive[_FACES], faces_made)
        out["firmament.firmament_member.ilp_per_query"] = ratio(ilp_in_member, calls[_MEMBER])
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, op, function,
        start and end in ns since the first span."""
        t0 = self.spans[0][3] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tfunction\tstart_ns\tend_ns\n")
            for i, (name, parent, op, start, end, _, _) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start - t0}\t{end - t0}\n")
