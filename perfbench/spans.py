"""Spans around the public functions of each conelab module, kept in memory.

`Tracer.install` wraps every public function that a layer module defines and
rebinds the wrapper under every name a conelab module holds for it, so calls
through names that `experiments`, `tangency`, `fourier` or `operators`
imported from other modules are traced too.  Nothing under `src/` changes.

Each call records one span (function, parent span, start, end).  A per-layer
time metric is the self time of its functions: the span's duration minus the
time spent inside spans of other functions that carry a metric of their own.
Wrapped helpers without a metric (say `make_quadrature` under `decay_mean`)
count towards the nearest enclosing function that has one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("measures", "fourier", "operators", "maximal", "tangency",
          "rectangles", "experiments", "fitting", "svgplot")

# metric -> the functions (module.name) whose self time it sums
SELF_TIME = {
    "measures.generate_s": ("measures.generate",),
    "measures.generate_config_s": ("measures.generate_config",),
    "measures.max_plank_mass_s": ("measures.max_plank_mass",),
    "measures.gamma_tau_s": ("measures.gamma_tau",),
    "fourier.decay_mean_s": ("fourier.decay_mean",),
    "fourier.sigma_check_s": ("fourier.sigma_check",),
    "fourier.weighted_l2_s": ("fourier.weighted_l2",),
    "operators.build_extension_operator_s": ("operators.build_extension_operator",),
    "operators.operator_norm_s": ("operators.operator_norm",),
    "operators.l1_constant_s": ("operators.l1_constant",),
    "operators.bbcr_equivalence_check_s": ("operators.bbcr_equivalence_check",),
    "operators.transference_check_s": ("operators.transference_check",),
    "maximal.multiplicity_field_s": ("maximal.multiplicity_field",),
    "maximal.wolff_example_check_s": ("maximal.wolff_example_check",),
    "tangency.classify_pairs_s": ("tangency.classify_pairs",),
    "tangency.pair_count_s": ("tangency.pair_count",),
    "tangency.nu_multiplicity_s": ("tangency.nu_multiplicity",),
    "tangency.main_geom_check_s": ("tangency.main_geom_check",),
    "rectangles.rect_sample_points_s": ("rectangles.rect_sample_points",),
    "rectangles.greedy_maximal_incomparable_s": ("rectangles.greedy_maximal_incomparable",),
    "experiments.output_s": ("experiments.write_csv", "experiments.write_manifest",
                             "svgplot.svg_scatter"),
}

CALL_COUNTS = {
    "tangency.classify_pairs_calls": "tangency.classify_pairs",
    "tangency.nu_multiplicity_calls": "tangency.nu_multiplicity",
    "rectangles.rect_sample_points_calls": "rectangles.rect_sample_points",
}

COUNTERS = ("fourier.decay_mean_terms", "fourier.sigma_check_terms",
            "operators.matrix_mb", "operators.norm_iterations", "maximal.raster_cells",
            "tangency.pairs_classified", "rectangles.greedy_kept", "rectangles.greedy_candidates")


# Counter hooks run after a call returns: (tracer, frame, args, kwargs, result).
# `frame` is the call's own metric frame, or the innermost enclosing one for
# functions without a metric.
def _hook_make_quadrature(tr, frame, args, kwargs, result):
    if frame is not None:
        frame[2]["nodes"] = result.node_count


def _hook_decay_mean(tr, frame, args, kwargs, result):
    tr.counters["fourier.decay_mean_terms"] += frame[2].get("nodes", 0) * args[0].mass


def _hook_sigma_check(tr, frame, args, kwargs, result):
    points = len(np.asarray(args[0]).reshape(-1, 3))
    tr.counters["fourier.sigma_check_terms"] += frame[2].get("nodes", 0) * points


def _hook_build_operator(tr, frame, args, kwargs, result):
    tr.counters["operators.matrix_mb"] += result.matrix.nbytes / 2.0 ** 20


def _hook_operator_norm(tr, frame, args, kwargs, result):
    tr.counters["operators.norm_iterations"] += result["iterations"]


def _hook_multiplicity_field(tr, frame, args, kwargs, result):
    tr.counters["maximal.raster_cells"] += result[0].size


def _hook_classify_pairs(tr, frame, args, kwargs, result):
    tr.counters["tangency.pairs_classified"] += len(result.d)


def _hook_greedy(tr, frame, args, kwargs, result):
    tr.counters["rectangles.greedy_kept"] += len(result)
    tr.counters["rectangles.greedy_candidates"] += len(args[0])


HOOKS = {
    "fourier.make_quadrature": _hook_make_quadrature,
    "fourier.decay_mean": _hook_decay_mean,
    "fourier.sigma_check": _hook_sigma_check,
    "operators.build_extension_operator": _hook_build_operator,
    "operators.operator_norm": _hook_operator_norm,
    "maximal.multiplicity_field": _hook_multiplicity_field,
    "tangency.classify_pairs": _hook_classify_pairs,
    "rectangles.greedy_maximal_incomparable": _hook_greedy,
}


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # [name id, parent span index, start, end]
        self.current = -1
        self.stack: list = []          # metric frames: [metric, child time, extra]
        self.self_time = {m: 0.0 for m in SELF_TIME}
        self.calls = {m: 0 for m in CALL_COUNTS}
        self.counters = {c: 0 for c in COUNTERS}

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every conelab name for them."""
        metric_of = {f: m for m, funcs in SELF_TIME.items() for f in funcs}
        count_of = {f: m for m, f in CALL_COUNTS.items()}
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"conelab.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{attr}"
                wrapped[id(fn)] = self._wrap(fn, key, metric_of.get(key),
                                             count_of.get(key), HOOKS.get(key))
        for name, mod in list(sys.modules.items()):
            if name != "conelab" and not name.startswith("conelab."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):  # dispatch tables such as PIPELINES
                    for k, v in list(val.items()):
                        if id(v) in wrapped:
                            val[k] = wrapped[id(v)]

    def _wrap(self, fn, key, metric, count_metric, hook):
        name_id = len(self.names)
        self.names.append(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            index = len(self.spans)
            span = [name_id, parent, clock(), 0.0]
            self.spans.append(span)
            self.current = index
            frame = None
            if metric is not None:
                frame = [metric, 0.0, {}]
                self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[3] = end
                self.current = parent
                if frame is not None:
                    self.stack.pop()
                    duration = end - span[2]
                    self.self_time[metric] += duration - frame[1]
                    if self.stack:
                        self.stack[-1][1] += duration
            if count_metric is not None:
                self.calls[count_metric] += 1
            if hook is not None:
                hook(self, frame if frame is not None else
                     (self.stack[-1] if self.stack else None), args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        c = dict(self.counters)
        kept, cand = c.pop("rectangles.greedy_kept"), c.pop("rectangles.greedy_candidates")
        c["rectangles.greedy_kept_per_candidate"] = kept / cand if cand else 0.0
        return {**self.self_time, **self.calls, **c}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
