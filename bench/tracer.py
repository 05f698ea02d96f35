"""Span tracer for the per-layer benchmark run, built outside the package.

`Tracer.install` wraps the public entry points of each cylsim layer.  A
function is replaced on its defining module and on every cylsim module that
imported it by name (``from .decompose import canonicalize_inputs``), so calls
through either binding are recorded.  Each call appends one span
``(name index, start, end, parent)`` to an in-memory list; nothing is written
until the operation ends.  `op_metrics` turns one operation's spans into the
per-layer metrics, with self times computed from the span tree.

Two modules are deliberately not wrapped: `cylsim.matter` is analytic,
sub-millisecond and on no workload's path, and the `cylsim.bloch` helpers take
microseconds each, so wrapping them would distort the trace; their time counts
in the self time of whichever layer called them.  The same holds for the
per-sample helpers `fold_phase` and `resolve_measure_angle`.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT = "cli.main"

# (layer, module that defines or binds the function, attribute)
TARGETS = (
    ("experiment", "cylsim.experiment", "radius_ledger"),
    ("growth", "cylsim.growth", "lambda_phi"),
    ("decompose", "cylsim.decompose", "linprog"),
    ("decompose", "cylsim.decompose", "decompose_over_circles"),
    ("decompose", "cylsim.decompose", "hull_membership"),
    ("decompose", "cylsim.decompose", "canonicalize_inputs"),
    ("decompose", "cylsim.decompose", "decompose_gate_output"),
    ("sampler", "cylsim.sampler", "run_branches"),
    ("sampler", "cylsim.sampler", "empirical_tv"),
    ("oracle", "cylsim.oracle", "exact_distribution"),
    ("oracle", "cylsim.oracle", "evolve"),
    ("statespace", "cylsim.statespace", "max_input_radius_bspace"),
)


def _note_linprog(counters, args, kwargs, res):
    cost = args[0] if args else kwargs["c"]
    counters["lp_columns"] = counters.get("lp_columns", 0) + len(cost)
    counters["lp_iterations"] = counters.get("lp_iterations", 0) + int(res.nit)
    counters["lp_failures"] = counters.get("lp_failures", 0) + int(res.status != 0)


def _note_run_branches(counters, args, kwargs, run):
    counters["samples"] = counters.get("samples", 0) + len(run.outcomes)


def _note_exact(counters, args, kwargs, dist):
    counters["leaves"] = counters.get("leaves", 0) + len(dist.probs)


NOTES = {
    "decompose.linprog": _note_linprog,
    "sampler.run_branches": _note_run_branches,
    "oracle.exact_distribution": _note_exact,
}


class Tracer:
    """In-memory span recorder.  Spans are ``[name index, start, end,
    parent span]`` with times in seconds from `perf_counter`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.warnings: list[str] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                note(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target on all loaded cylsim modules.  A target the
        package no longer has is reported as a warning and zero calls."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cylsim" or key.startswith("cylsim."))]
        for layer, module, attr in TARGETS:
            name = f"{layer}.{attr}"
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.warnings.append(f"{module}.{attr} not found; {name} "
                                     "reports zero calls")
                continue
            traced = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters, "warnings": self.warnings}


LAYERS = ("cli", "experiment", "growth", "decompose", "sampler", "oracle",
          "statespace")


def op_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see bench/README.md)."""
    names, spans, counters = trace["names"], trace["spans"], trace["counters"]
    layer_of = [n.split(".", 1)[0] for n in names]
    child = [0.0] * len(spans)
    for _idx, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for sid, (idx, start, end, parent) in enumerate(spans):
        name, layer = names[idx], layer_of[idx]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[layer] += dur - child[sid]
        p = parent
        while p >= 0 and layer_of[spans[p][0]] != layer:
            p = spans[p][3]
        if p < 0:  # outermost span of its layer
            busy[layer] += dur

    lp = calls.get("decompose.linprog", 0)
    over_circles = calls.get("decompose.decompose_over_circles", 0)
    samples = counters.get("samples", 0)
    return {
        "cli.self_s": self_s["cli"],
        "experiment.ledger_calls": calls.get("experiment.radius_ledger", 0),
        "experiment.ledger_s": incl.get("experiment.radius_ledger", 0.0),
        "growth.lambda_calls": calls.get("growth.lambda_phi", 0),
        "growth.lambda_s": incl.get("growth.lambda_phi", 0.0),
        "decompose.lp_solves": lp,
        "decompose.lp_s": incl.get("decompose.linprog", 0.0),
        "decompose.lp_iterations": counters.get("lp_iterations", 0),
        "decompose.lp_columns_mean": counters.get("lp_columns", 0) / lp if lp else 0.0,
        "decompose.lp_failures": counters.get("lp_failures", 0),
        "decompose.lp_per_hull": lp / over_circles if over_circles else 0.0,
        "decompose.hull_calls": calls.get("decompose.hull_membership", 0),
        "decompose.hull_s": incl.get("decompose.hull_membership", 0.0),
        "decompose.canonicalize_calls": calls.get("decompose.canonicalize_inputs", 0),
        "decompose.canonicalize_s": incl.get("decompose.canonicalize_inputs", 0.0),
        "sampler.samples": samples,
        "sampler.busy_s": busy["sampler"],
        "sampler.self_s": self_s["sampler"],
        "sampler.us_per_sample": 1e6 * self_s["sampler"] / samples if samples else 0.0,
        "oracle.busy_s": busy["oracle"],
        "oracle.leaves": counters.get("leaves", 0),
        "oracle.evolve_calls": calls.get("oracle.evolve", 0),
        "statespace.searches": calls.get("statespace.max_input_radius_bspace", 0),
        "statespace.self_s": self_s["statespace"],
        # layer self times, for the dominant-layer summary
        **{f"self.{layer}": self_s[layer] for layer in LAYERS},
    }
