"""Per-layer metrics from the span files of traced sweeps.

A span's self time is its duration minus its children's durations and the
summed durations of the calls aggregated onto it. Inside a scenario span
the self times add up to the scenario's duration, so per sweep

    traced wall = sum of self times in scenario spans + harness overhead

where the overhead is the sweep wall time no scenario span covers (pool
start-up and shutdown, reduction, CSV rows). In a pooled sweep the workers'
scenario spans overlap, so the overhead is taken against their union, and a
worker's span write-out (``trace.flush``) is excluded as tracing cost.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict

from tracer import AGG, ATTRS, END, NAME, PARENT, START

# Per-layer metric -> unit. Per scenario unless the name says otherwise;
# see README.md for definitions.
UNITS = {
    "geometry.sample_ms": "ms",
    "geometry.candidates": "count",
    "geometry.associated_per_candidate": "ratio",
    "radio.links_ms": "ms",
    "power.interval_ms": "ms",
    "power.feasible_share": "ratio",
    "allocation.context_ms": "ms",
    "kernels.value_ms": "ms",
    "kernels.value_cells_per_s": "1/s",
    "kernels.stage2_ms": "ms",
    "kernels.stage2_cells_per_s": "1/s",
    "combinatorics.enumerate_ms": "ms",
    "combinatorics.families": "count",
    "allocation.exhaustive_ms": "ms",
    "allocation.patterns_per_s": "1/s",
    "allocation.greedy_ms": "ms",
    "allocation.greedy_match_calls": "count",
    "allocation.greedy_match_us": "us",
    "allocation.grid_ms": "ms",
    "allocation.channel_value_calls": "count",
    "allocation.bookkeeping_ms": "ms",
    "harness.loop_ms": "ms",
    "harness.overhead_ms": "ms",
    "harness.pool_speedup": "ratio",
    "harness.scenario_ms_p50": "ms",
    "harness.scenario_ms_tail": "ms",
    "trace.overhead_ratio": "ratio",
}

# Self-time buckets of the per-scenario time metrics. With the aggregated
# calls (greedy_match in greedy_ms, channel_value as grid_ms,
# enumerate_families) they cover every scenario span.
SELF_BUCKETS = {
    "geometry.sample_ms": ("geometry.generate_scenario",),
    "radio.links_ms": ("radio.scenario_links", "radio.draw_fading"),
    "power.interval_ms": ("power.power_interval",),
    "allocation.context_ms": ("allocation.build_context",),
    "kernels.value_ms": ("kernels.build_value_table",),
    "kernels.stage2_ms": ("kernels.build_stage2_table",),
    "allocation.exhaustive_ms": ("allocation._exhaustive_best",),
    "allocation.greedy_ms": ("allocation._greedy_best",),
    "allocation.bookkeeping_ms": ("allocation.allocate", "allocation._grid_refine"),
    "harness.loop_ms": ("harness.scenario",),
}


class SweepTrace:
    """Totals over the span files of one traced sweep."""

    def __init__(self, trace_dir: str, t0: float, t1: float, points: int):
        self.wall = t1 - t0
        self.points = points
        self.self_s = defaultdict(float)
        self.agg = defaultdict(lambda: [0, 0.0])
        self.attr_sums = defaultdict(float)
        self.scenario_ms: list = []
        self.checks: list = []
        intervals = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
            with open(path) as fh:
                data = json.load(fh)
            self.checks += data["checks"]
            spans = data["spans"]
            child = [0.0] * len(spans)
            for s in spans:
                if s[PARENT] >= 0:
                    child[s[PARENT]] += s[END] - s[START]
            for i, s in enumerate(spans):
                name = s[NAME]
                agg_s = 0.0
                for aname, (n, dt) in (s[AGG] or {}).items():
                    self.agg[aname][0] += n
                    self.agg[aname][1] += dt
                    agg_s += dt
                self.self_s[name] += s[END] - s[START] - child[i] - agg_s
                self.attr_sums[name + "#calls"] += 1
                for key, v in (s[ATTRS] or {}).items():
                    self.attr_sums[f"{name}.{key}"] += v
                if name == "harness.scenario":
                    self.scenario_ms.append((s[END] - s[START]) * 1e3)
                    intervals.append((s[START], s[END]))
            if os.path.exists(path + ".flush"):
                with open(path + ".flush") as fh:
                    intervals.append(tuple(json.load(fh)))
        self.overhead = self.wall - _union_length(intervals, t0, t1)

    @property
    def scenarios(self) -> int:
        return len(self.scenario_ms)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def tail(values):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None under 40 samples."""
    n = len(values)
    if n < 40:
        return None
    v = sorted(values)
    return 100.0 * (n - 10) / n, v[n - 11]


def layer_metrics(traces: list, pool_speedup: float, trace_ratio: float) -> dict:
    """Per-layer metrics pooled over the traced sweeps of one run."""
    self_s = defaultdict(float)
    agg = defaultdict(lambda: [0, 0.0])
    attrs = defaultdict(float)
    scen_ms: list = []
    overhead = 0.0
    points = 0
    for t in traces:
        for k, v in t.self_s.items():
            self_s[k] += v
        for k, (n, dt) in t.agg.items():
            agg[k][0] += n
            agg[k][1] += dt
        for k, v in t.attr_sums.items():
            attrs[k] += v
        scen_ms += t.scenario_ms
        overhead += t.overhead
        points += t.points
    n = len(scen_ms)
    per = 1e3 / n
    m = {}
    for metric, names in SELF_BUCKETS.items():
        m[metric] = sum(self_s[x] for x in names) * per
    m["geometry.candidates"] = attrs["geometry.generate_scenario.candidates"] / n
    m["geometry.associated_per_candidate"] = _ratio(
        attrs["geometry.generate_scenario.associated"], attrs["geometry.generate_scenario.candidates"]
    )
    m["power.feasible_share"] = _ratio(
        attrs["power.power_interval.feasible"], attrs["power.power_interval#calls"]
    )
    m["kernels.value_cells_per_s"] = _ratio(
        attrs["kernels.build_value_table.cells"], self_s["kernels.build_value_table"]
    )
    m["kernels.stage2_cells_per_s"] = _ratio(
        attrs["kernels.build_stage2_table.cells"], self_s["kernels.build_stage2_table"]
    )
    enum_n, enum_s = agg["combinatorics.enumerate_families"]
    m["combinatorics.enumerate_ms"] = enum_s * 1e3 / len(traces)
    m["combinatorics.families"] = enum_n / len(traces)
    m["allocation.patterns_per_s"] = _ratio(
        attrs["allocation._exhaustive_best.patterns"], self_s["allocation._exhaustive_best"]
    )
    gm_n, gm_s = agg["allocation.greedy_match"]
    m["allocation.greedy_ms"] += gm_s * per
    m["allocation.greedy_match_calls"] = gm_n / n
    m["allocation.greedy_match_us"] = _ratio(gm_s * 1e6, gm_n)
    cv_n, cv_s = agg["allocation.channel_value"]
    m["allocation.grid_ms"] = cv_s * per
    m["allocation.channel_value_calls"] = cv_n / n
    m["harness.overhead_ms"] = overhead * 1e3 / points
    m["harness.pool_speedup"] = pool_speedup
    m["harness.scenario_ms_p50"] = statistics.median(scen_ms)
    t = tail(scen_ms)
    if t is not None:
        m["harness.scenario_ms_tail"] = t[1]
    m["trace.overhead_ratio"] = trace_ratio
    return m


def accounting(traces: list) -> str:
    """One line: layer self times plus overhead against the traced wall."""
    layers = sum(sum(v for k, v in t.self_s.items() if k != "harness.block") for t in traces)
    layers += sum(sum(dt for _, dt in t.agg.values()) for t in traces)
    overhead = sum(t.overhead for t in traces)
    wall = sum(t.wall for t in traces)
    return (
        f"accounting: layer self times {layers:.3f} s + harness overhead {overhead:.3f} s "
        f"= {layers + overhead:.3f} s; traced sweep wall {wall:.3f} s "
        f"(a pooled sweep's layers run in parallel, so they may exceed the wall)"
    )
