"""In-memory span tracer that wraps drivegen's public functions from outside.

Wrappers are swapped in at the places where each module binds a function
(``drivegen.pipeline.rollout``, ``drivegen.expert.rollout``, ...), so no file
of the program changes. Every call becomes a span ``[name, start, end,
parent, trace_id]``; the trace id is the scenario id (``setup`` and
``generate`` outside a scenario). Counters are taken from return values.

The benchmark runs ``generate`` with one worker, so every scenario runs in
the traced process; spans of pool workers would not be collected.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

# Public functions on the generate and set-up paths, by the binding that the
# calling module uses: (module attribute path, span name, counter hook name).
_BINDINGS = (
    ("cli.generate_synthetic_corpus", "synth.generate_synthetic_corpus", None),
    ("vocab.synthesize_maneuvers", "vocab.synthesize_maneuvers", None),
    ("vocab.build_vocabulary", "vocab.build_vocabulary", None),
    ("cli.load_scenario", "scenario.load_scenario", None),
    ("cli.load_vocabulary", "vocab.load_vocabulary", None),
    ("cli.run_generation", "pipeline.run_generation", None),
    ("cli.export_dataset", "pipeline.export_dataset", "export"),
    ("pipeline._process_scenario_impl", "pipeline.scenario", None),
    ("pipeline.prepare_candidates", "pipeline.prepare_candidates", None),
    ("pipeline.enumerate_perturbations", "vocab.enumerate_perturbations", "threshold"),
    ("pipeline.grid_sparsify", "vocab.grid_sparsify", "grid"),
    ("pipeline.feasibility_filter", "vocab.feasibility_filter", "feasibility"),
    ("pipeline.rollout", "reactive.rollout", "rollout"),
    ("vocab.rollout", "reactive.rollout", "rollout"),
    ("expert.rollout", "reactive.rollout", "rollout"),
    ("reactive.lqr_track", "control.lqr_track", None),
    ("pipeline.compute_submetrics", "metrics.compute_submetrics", None),
    ("vocab.compute_submetrics", "metrics.compute_submetrics", None),
    ("expert.compute_submetrics", "metrics.compute_submetrics", None),
    ("vocab.check_collision", "metrics.check_collision", None),
    ("metrics.check_collision", "metrics.check_collision", None),
    ("metrics.time_to_collision", "metrics.time_to_collision", None),
    ("geometry.PolylineOps.project", "geometry.PolylineOps.project", None),
    ("geometry.PolylineOps.min_dist2", "geometry.PolylineOps.min_dist2", None),
    ("pipeline.recovery_retrieve", "expert.recovery_retrieve", None),
    ("pipeline.privileged_plan", "expert.privileged_plan", None),
    ("pipeline.expert_filter", "expert.expert_filter", "expert_filter"),
    ("pipeline.sensor_stub", "pipeline.sensor_stub", None),
)

STATUS_PENDING = "pending"  # drivegen.vocab.STATUS_PENDING, the status that survives each screen


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.trace_id = "setup"
        self.counters: Counter = Counter()
        self._gain_cache = None

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = getattr(self, f"_observe_{hook}") if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def open_span(self, name, trace_id):
        """Open a span the benchmark itself times (the CLI call); close with close_span."""
        self.trace_id = trace_id
        span = [name, time.perf_counter(), 0.0, self.stack[-1], trace_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    # -- counters from return values ----------------------------------------

    def _observe_threshold(self, args, kwargs, cands):
        c = self.counters
        c["funnel.vocab_entries"] += len(cands)
        for cand in cands:
            if cand.status == STATUS_PENDING:
                c["funnel.threshold_pass"] += 1
            else:
                c[f"threshold.reject.{cand.reason}"] += 1

    def _observe_grid(self, args, kwargs, cands):
        self.counters["funnel.grid_keep"] += sum(1 for c in cands if c.status == STATUS_PENDING)

    def _observe_feasibility(self, args, kwargs, cand):
        mode = _arg(args, kwargs, 2, "mode", None)
        self.counters[f"feasibility.{mode}.checked"] += 1
        if cand.status.startswith("cleared"):
            self.counters[f"funnel.{mode}_cleared"] += 1
        else:
            self.counters[f"feasibility.{mode}.reject.{cand.reason}"] += 1

    def _observe_rollout(self, args, kwargs, states):
        self.counters[f"rollout.{_arg(args, kwargs, 4, 'mode', 'reactive')}"] += 1

    def _observe_expert_filter(self, args, kwargs, result):
        accepted, reason = result
        self.counters["funnel.attempted"] += 1
        if accepted:
            self.counters["funnel.accepted"] += 1
        else:
            self.counters[f"expert_filter.reject.{reason}"] += 1

    def _observe_export(self, args, kwargs, paths):
        self.counters["export.bytes"] += sum(p.stat().st_size for p in paths)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Swap the wrappers into drivegen's modules; returns the tracer."""
        import importlib

        from drivegen import control

        for path, name, hook in _BINDINGS:
            parts = path.split(".")
            owner = importlib.import_module(f"drivegen.{parts[0]}")
            for attr in parts[1:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, parts[-1])
            wrapped = self.wrap(original, name, hook)
            if path == "pipeline._process_scenario_impl":
                wrapped = self._scenario_wrapper(wrapped)
            setattr(owner, parts[-1], wrapped)

        self._gain_cache = control._tracking_gain.cache_info
        return self

    def _scenario_wrapper(self, traced_impl):
        @functools.wraps(traced_impl)
        def scenario(scenario, *args, **kwargs):
            outer, self.trace_id = self.trace_id, scenario.id
            before = self._gain_cache()
            try:
                return traced_impl(scenario, *args, **kwargs)
            finally:
                after = self._gain_cache()
                self.counters["gain_cache.hits"] += after.hits - before.hits
                self.counters["gain_cache.misses"] += after.misses - before.misses
                self.trace_id = outer

        return scenario

    def write(self, path):
        """Write every span (gzip JSON) and return the summary the runner needs."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump({"fields": ["name", "start", "end", "parent", "trace_id"], "spans": self.spans}, f)
        return {
            "table": span_table(self.spans),
            "scenario_s": [end - start for name, start, end, _, _ in self.spans if name == "pipeline.scenario"],
            "spans": len(self.spans),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Aggregation


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children are not counted twice.
    """
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        kids = children.get(i)
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - (_union_length(kids) if kids else 0.0)
    return table
