"""In-memory span tracing of mgshare, installed from outside the package.

`install` wraps public functions of each mgshare module, plus the private
functions that carry the exhaustive, greedy and grid searches and the
harness's block of scenarios, and rebinds every module-level name that
pointed at the original, so calls made through ``from .x import y``
bindings are traced too. The package's source is not touched.

Each wrapped call records a span: name, start, end (``time.perf_counter``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes) and
the index of the span open when it started. A synthetic ``harness.scenario``
span opens at each ``generate_scenario`` call and closes at the next one or
at the end of the block, so every span of one scenario shares that parent.
``greedy_match``, ``EvalContext.channel_value`` and the ``enumerate_families``
generator run thousands of times per scenario; they add a count and a summed
duration to the open span instead of one span per call.

Spans stay in memory. The main process writes them when the sweep has
ended; a pool worker writes its own at the end of each block it evaluates,
and that write is timed as a ``trace.flush`` interval so the analysis can
tell it apart from harness overhead. Each flush also carries the
independent throughput recomputation of every ``allocate`` call the process
made (see checks.recompute_throughput).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from checks import recompute_throughput

perf = time.perf_counter

NAME, START, END, PARENT, ATTRS, AGG = range(6)


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.flushes = 0
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.allocs: list = []

    def ensure_process(self):
        """A forked worker starts with the parent's lists; give it its own."""
        if os.getpid() != self.pid:
            self._reset()

    def open(self, name: str, t: float, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, t, None, parent, attrs, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, t: float) -> None:
        self.spans[idx][END] = t
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span stack out of order: {top} != {idx}")

    def top_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def add(self, name: str, dt: float, n: int = 1) -> None:
        """Aggregate `n` calls lasting `dt` seconds in total onto the open span."""
        span = self.spans[self.stack[-1]]
        agg = span[AGG]
        if agg is None:
            agg = span[AGG] = {}
        c = agg.get(name)
        if c is None:
            agg[name] = [n, dt]
        else:
            c[0] += n
            c[1] += dt

    def flush(self) -> str:
        """Write spans and throughput checks to a fresh file in out_dir."""
        checks = [recompute_throughput(*a) for a in self.allocs]
        self.flushes += 1
        path = os.path.join(
            self.out_dir, f"trace-{os.getpid()}-{self.flushes}-{time.time_ns()}.json"
        )
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans, "checks": checks}, fh)
        self.spans, self.stack, self.allocs = [], [], []
        return path


def _span(tr: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        i = tr.open(name, perf())
        try:
            out = fn(*a, **k)
        finally:
            tr.close(i, perf())
        if attrs is not None:
            tr.spans[i][ATTRS] = attrs(a, out)
        return out

    return wrapper


def _counted(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        t0 = perf()
        try:
            return fn(*a, **k)
        finally:
            tr.add(name, perf() - t0)

    return wrapper


def _counted_generator(tr: Tracer, name: str, fn):
    """Time each step of a generator; count the items it yields."""

    @functools.wraps(fn)
    def wrapper(*a, **k):
        it = fn(*a, **k)
        while True:
            t0 = perf()
            try:
                item = next(it)
            except StopIteration:
                tr.add(name, perf() - t0, 0)
                return
            tr.add(name, perf() - t0)
            yield item

    return wrapper


def _rebind(old, new) -> None:
    """Point every mgshare module-level name bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mgshare" or mod_name.startswith("mgshare.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(out_dir: str) -> Tracer:
    from mgshare import allocation, combinatorics, geometry, harness, kernels, power, radio

    tr = Tracer(out_dir)
    main_pid = os.getpid()

    gen = geometry.generate_scenario

    @functools.wraps(gen)
    def generate_scenario(params, index):
        now = perf()
        if tr.top_name() == "harness.scenario":
            tr.close(tr.stack[-1], now)
        tr.open("harness.scenario", now, {"index": int(index)})
        i = tr.open("geometry.generate_scenario", now)
        try:
            scn = gen(params, index)
        finally:
            tr.close(i, perf())
        tr.spans[i][ATTRS] = {
            "candidates": int(scn.candidate_receiver_count),
            "associated": int(sum(g.num_receivers for g in scn.groups)),
            "G": len(scn.groups),
        }
        return scn

    block_fn = harness._eval_scenarios

    @functools.wraps(block_fn)
    def eval_scenarios(args):
        tr.ensure_process()
        i = tr.open("harness.block", perf())
        try:
            out = block_fn(args)
        finally:
            now = perf()
            if tr.top_name() == "harness.scenario":
                tr.close(tr.stack[-1], now)
            tr.close(i, now)
        if os.getpid() != main_pid:
            t0 = perf()
            path = tr.flush()
            with open(path + ".flush", "w") as fh:
                json.dump([t0, perf()], fh)
        return out

    allocate_fn = allocation.allocate

    @functools.wraps(allocate_fn)
    def allocate(ctx, scheme, fading=None):
        i = tr.open("allocation.allocate", perf())
        try:
            out = allocate_fn(ctx, scheme, fading)
        finally:
            tr.close(i, perf())
        tr.allocs.append((ctx, *out))
        return out

    def power_attrs(a, out):
        return {"feasible": bool(out.feasible)}

    def cells_attrs(a, out):
        # both tables are (C, 2^G): C from the first argument's rows, G from the second's
        return {"cells": int(a[0].shape[0]) << int(a[1].shape[0])}

    def exhaustive_attrs(a, out):
        ctx, fam_masks = a
        n_pats = len(allocation.assignment_patterns(fam_masks.shape[1], ctx.C))
        return {"patterns": int(fam_masks.shape[0]) * n_pats}

    spans = [
        (radio.scenario_links, "radio.scenario_links", None),
        (radio.draw_fading, "radio.draw_fading", None),
        (power.power_interval, "power.power_interval", power_attrs),
        (allocation.build_context, "allocation.build_context", None),
        (kernels.build_value_table, "kernels.build_value_table", cells_attrs),
        (kernels.build_stage2_table, "kernels.build_stage2_table", cells_attrs),
        (allocation._exhaustive_best, "allocation._exhaustive_best", exhaustive_attrs),
        (allocation._greedy_best, "allocation._greedy_best", None),
        (allocation._grid_refine, "allocation._grid_refine", None),
    ]
    for fn, name, attrs in spans:
        _rebind(fn, _span(tr, name, fn, attrs))
    _rebind(gen, generate_scenario)
    _rebind(block_fn, eval_scenarios)
    _rebind(allocate_fn, allocate)
    _rebind(allocation.greedy_match, _counted(tr, "allocation.greedy_match", allocation.greedy_match))
    _rebind(
        combinatorics.enumerate_families,
        _counted_generator(tr, "combinatorics.enumerate_families", combinatorics.enumerate_families),
    )
    allocation.EvalContext.channel_value = _counted(
        tr, "allocation.channel_value", allocation.EvalContext.channel_value
    )
    return tr
