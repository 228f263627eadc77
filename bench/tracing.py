"""Spans around tvgraph's public functions, recorded from outside the library.

`Tracer.install()` replaces every public function of the six layer modules
(`cli`, `analytics`, `simulate`, `routing`, `models`, `temporal`) at each
reference a caller uses: the module's own global, every other tvgraph module
that imported it (`tvgraph.routing.simulate_soa`, `tvgraph.simulate.
shortest_path`, the `tvgraph.cli` imports), and the package namespace.  A
few public methods are wrapped on their class.  `restore()` puts every
original back.  Per-element accessors (`LatencyPmf.mass`, `EmpiricalPmf.
fraction`, `StackedGraph.successors`) and constructors are not wrapped: they
run in inner loops, where a span would cost more than the call it measures.

A span is [name, parent index, start, end]; spans stay in memory and are
written out when the run ends.  Counts are taken from arguments and return
values, never from inside the library.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
from time import perf_counter

LAYERS = ("cli", "analytics", "simulate", "routing", "models", "temporal")

METHODS = {
    "analytics": {"LatencyPmf": ("mean", "variance")},
    "simulate": {"EmpiricalPmf": ("mean", "variance", "stderr_mean", "nonzero_items",
                                  "total_variation")},
    "routing": {"MettTable": ("to_json_dict",)},
    "models": {"UnderlyingGraph": ("neighbor_map",)},
    "temporal": {"SmashedGraph": ("connected", "components")},
}

TEMPORAL_GROUPS = {
    "io": ("parse_tgs", "format_tgs", "load_tgs", "dump_tgs"),
    "views": ("build_stacked", "smash", "m_smash", "SmashedGraph.connected",
              "SmashedGraph.components"),
    "journeys": ("stacked_reachable", "t_reachable", "t_adjacent", "t_clique",
                 "t_k_connected", "reachable_pairs_fraction"),
}

# Per-layer metrics reported by a traced run, with the function spans named
# in them.  Each is a per-pass mean over the traced passes.
NAMED_SELF = (
    "analytics.mc_cut_latency_pmf",
    "analytics.mc_soa_latency_pmf",
    "simulate.simulate_soa",
    "simulate.simulate_cut",
    "simulate.reachable_pairs_samples",
    "routing.compute_mett",
    "routing.run_adaptive_route",
)
ENGINES = ("simulate.simulate_soa", "simulate.simulate_cut", "simulate.reachable_pairs_samples")
SAMPLERS = ("models.sample_er_tgs", "models.sample_markov_tgs")


def _slot_edges(tgs):
    return sum(len(g.edges) for g in tgs)


def _default_horizon(gu, p):
    # tvgraph.simulate.default_horizon, restated so counting calls no library code.
    return math.ceil(20 * (len(gu.nodes) - 1) / p)


def _replay_slots(metric):
    """Trial-slots of a replay: store-or-advance costs the latency per trial,
    cut-through latency + 1, and an undelivered trial the horizon."""
    shift = 1 if metric == "cut" else 0

    def count(a, emp):
        horizon = a["horizon"]
        if horizon is None:
            horizon = _default_horizon(a["gu"], a["model"].p)
        slots = sum((t + shift) * int(c) for t, c in enumerate(emp.counts))
        return {"simulate.trial_slots": slots + emp.undelivered * horizon,
                "simulate.undelivered": emp.undelivered}

    return count


def _analytic_masses(name):
    """Masses an analytic call evaluates: the support it returns, or the
    terms its CDF sums (t for the stacked CDF, t // m for the coarsened)."""
    def count(a, out):
        if hasattr(out, "masses"):
            n = len(out.masses)
        elif name == "pmf_moments":
            n = 0
        elif name == "stacked_reach_cdf":
            n = a["t"]
        elif name == "m_smashed_reach_cdf":
            n = a["t"] // a["m"] if a["m"] > 1 else 0  # m == 1 delegates to the stacked CDF
        elif isinstance(out, (list, tuple)):
            n = len(out)
        else:
            n = 1
        return {"analytics.masses": n}

    return count


def _counter(layer, name):
    """Counting function (bound arguments, return value) -> {count name: n}, or None."""
    if layer == "analytics" and "." not in name:
        return _analytic_masses(name)
    if name in ("simulate_soa", "simulate_cut") and layer == "simulate":
        return _replay_slots("soa" if name == "simulate_soa" else "cut")
    if name == "reachable_pairs_samples":
        return lambda a, out: {
            "simulate.trial_slots": a["trials"] * max(a["horizon_grid"], default=0)}
    if name in ("sample_er_tgs", "sample_markov_tgs"):
        return lambda a, out: {"models.edge_draws": a["horizon"] * len(a["gu"].edges)}
    if layer == "temporal":
        if name in ("parse_tgs", "load_tgs"):
            return lambda a, out: {"temporal.slot_edges": _slot_edges(out)}
        if name != "stacked_reachable" and "." not in name:
            return lambda a, out: {"temporal.slot_edges": _slot_edges(a["tgs"])}
    return None


class Tracer:
    """Records spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self, tvgraph):
        self.tv = tvgraph
        self.spans = []
        self.stack = []
        self.counts = {}
        self.active = False
        self._saved = []  # (owner, attribute, original)
        self._wrappers = self._build_wrappers()

    def _targets(self):
        """(layer, owner, attribute, function) for every function to wrap."""
        for layer in LAYERS:
            mod = getattr(self.tv, layer)
            names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield layer, mod, name, obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    yield layer, cls, name, vars(cls)[name]

    def _build_wrappers(self):
        wrappers = {}
        for layer, owner, attr, fn in self._targets():
            qualname = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            wrappers[fn] = (owner, attr, self._wrap(fn, f"{layer}.{qualname}",
                                                    _counter(layer, qualname)))
        return wrappers

    def _wrap(self, fn, name, count):
        tracer = self
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.add(count(bound.arguments, out))
            return out

        return traced

    def add(self, counts):
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n

    def install(self):
        """Point every caller's reference to a wrapped function at its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        owners = [self.tv] + [getattr(self.tv, layer) for layer in LAYERS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(value) if inspect.isfunction(value) else None
                if hit is not None:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, hit[2])
        for fn, (owner, attr, wrapper) in self._wrappers.items():
            if not inspect.ismodule(owner):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(metric):
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    return "bytes" if metric.endswith("bytes_out") else "count"


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer, traced_times, untraced_times):
    """Per-pass per-layer metrics from the spans of the traced passes."""
    passes = len(traced_times)
    by_name, by_layer, calls = {}, dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0)
    top = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, parent, start, end = span
        layer = name.split(".", 1)[0]
        by_name[name] = by_name.get(name, 0.0) + own
        by_layer[layer] += own
        calls[layer] += 1
        if parent < 0:
            top += end - start
    counts = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_s"] = by_layer[layer] / passes
    for name in NAMED_SELF:
        out[f"{name}.self_s"] = by_name.get(name, 0.0) / passes
    out["routing.compute_mett.calls"] = sum(
        1 for s in tracer.spans if s[0] == "routing.compute_mett") / passes
    for group, names in TEMPORAL_GROUPS.items():
        out[f"temporal.{group}.self_s"] = sum(by_name.get(f"temporal.{n}", 0.0)
                                              for n in names) / passes
    for key in ("analytics.masses", "simulate.trial_slots", "simulate.undelivered",
                "models.edge_draws", "temporal.slot_edges", "cli.bytes_out"):
        out[key] = counts.get(key, 0) / passes

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out["analytics.masses_per_s"] = rate(counts.get("analytics.masses", 0), by_layer["analytics"])
    out["simulate.trial_slots_per_s"] = rate(
        counts.get("simulate.trial_slots", 0), sum(by_name.get(n, 0.0) for n in ENGINES))
    out["models.draws_per_s"] = rate(
        counts.get("models.edge_draws", 0), sum(by_name.get(n, 0.0) for n in SAMPLERS))
    out["trace.untraced_frac"] = 1.0 - top / sum(traced_times)
    out["trace.overhead_frac"] = (statistics.median(traced_times)
                                  / statistics.median(untraced_times) - 1.0)
    return out
