"""Experiment driver: parameter sweeps, Monte Carlo averaging over random
scenarios, key=value configuration, CSV persistence.

A sweep's output is a pure function of (config, master seed). Every sweep point
draws from one shared scenario stream: scenario seeds mix (master seed,
scenario index) through the same splitmix chain the rest of the package
uses, and the sweep index does not enter. Scenario i at one sweep value is
therefore scenario i at every other value, drawn with that point's
parameters from the same random numbers, so neighbouring points are
compared on paired scenarios (common random numbers).

Points whose parameters agree on `geometry.scenario_key`, the fields the
sampler reads, draw bitwise the same scenarios, links and fading. So a
sweep is evaluated in one scenario-major pass, and each point takes scenario
i from the previous point's through `geometry.next_scenario`: an equal key
hands the scenario on, a D step (sweep values ascend) drops the receivers
the wider exclusion disks cover, and any other change of key (an R step, or
a lambda_g step that changes the transmitter count it derives) draws it
anew. Each point builds its own context, or reuses the previous point's
context when its parameters are equal (an n_per_channel sweep). A new
context of the same draw (`geometry.same_draw`, the shared CU and group
lists: a P_G or R_c_min step, or a D step that drops no receiver) is built
from the previous point's and adopts each of its tables whose inputs are
bitwise equal (see `allocation.EvalContext`): such a step that leaves every
feasible power unchanged builds no value table and runs no exhaustive
search again. Such a D or P_G step that moves some feasible powers builds
the value rows of those powers' channels only, and such a D step matches
no family greedily again. Every worker takes one contiguous block of
scenario indices for all points. Results are reduced per point in
scenario-index order no matter how many worker processes computed them,
so the CSV is byte-identical across parallelism levels and equal to what
scoring each point alone would write. Wall-clock columns default to zero
for the same reason; pass timing=True to fill each with its point's
evaluation time summed over the workers (a draw counts toward the point
that made it), and give up byte-stability.

Degenerate scenarios (no multicast group kept any receiver) are counted and
excluded from the averages rather than resampled, so every scheme at a point
is scored on exactly the same scenario set, and so is every sweep point.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import get_type_hints

import numpy as np

from .allocation import SchemeConfig, allocate, build_context
from .geometry import next_scenario, same_draw
from .params import SimParams
from .seeds import child_seed

# Mixing tag that separates the harness's scenario stream from plain
# scenario indexing on the same master seed. Every sweep point uses this one
# stream (at index 0), so all points score the same scenarios.
_SWEEP_STREAM = 81

# The SimParams field each plain sweep variable sets to the sweep value.
_SWEEP_FIELDS = {
    "D": "exclusion_radius_m",
    "R": "cell_radius_m",
    "R_c_min": "cu_min_rate_bps_hz",
    "P_G": "max_mg_power_dbm",
}
SWEEP_VARIABLES = (*_SWEEP_FIELDS, "lambda_g", "n_per_channel")

CSV_HEADER = "sweep_var,sweep_value,scheme,mean_bps_hz,std,degenerate,wall_ms"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Everything one `run` needs; a config key left out keeps its field's default."""

    base: SimParams = field(default_factory=SimParams)
    sweep_variable: str = "D"
    sweep_values: tuple = ()
    schemes: tuple = ()
    n_scenarios: int = 500
    output_path: str = "results.csv"
    parallelism: int = 1

    def points(self) -> list:
        """(sweep value, SimParams, SchemeConfig tuple) for every sweep point,
        after checking the config and each point's parameters and scheme
        sizes, so a bad config fails before the first scenario runs."""
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.sweep_variable!r}; "
                f"choose from {', '.join(SWEEP_VARIABLES)}"
            )
        if not self.sweep_values:
            raise ConfigError("sweep_values must be non-empty")
        if not all(math.isfinite(v) for v in self.sweep_values):
            raise ConfigError("sweep_values must be finite")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ConfigError("sweep_values must be sorted strictly ascending, none repeated")
        if not self.schemes:
            raise ConfigError("schemes must be non-empty")
        try:
            schemes = tuple(map(SchemeConfig.from_token, self.schemes))
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if self.sweep_variable == "n_per_channel" and all(s.fixed_size is None for s in schemes):
            raise ConfigError("sweep n_per_channel needs a fixed(n) scheme: it changes no other")
        if self.n_scenarios < 1:
            raise ConfigError("scenarios must be at least 1")
        if self.parallelism < 1:
            raise ConfigError("parallel must be at least 1")
        if not self.output_path:
            raise ConfigError("out must name a file")
        try:
            self.base.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        points = []
        for value in self.sweep_values:
            try:
                params, point_schemes = apply_sweep(self.base, self.sweep_variable, value, schemes)
                params.validate()
                for scheme in point_schemes:
                    # a scenario never has more active groups than num_groups
                    scheme.check_size(params.num_groups, params.num_channels)
            except ValueError as e:
                raise ConfigError(f"{self.sweep_variable} = {value!r}: {e}") from e
            points.append((value, params, point_schemes))
        return points

    def validate(self) -> None:
        """Raise ConfigError where points() would."""
        self.points()


@dataclass
class ResultRow:
    sweep_value: float
    scheme_name: str
    mean_throughput: float
    std_dev: float
    n_degenerate: int
    wall_ms: float = 0.0


# ---------------------------------------------------------------------------
# configuration text format

# Each harness key, with the ExperimentConfig field it sets and the parser
# of its value. Every other key is a SimParams field, parsed as its type.
_HARNESS_KEYS = {
    "sweep": ("sweep_variable", str),
    "sweep_values": ("sweep_values", lambda text: tuple(float(v) for v in text.split(","))),
    "schemes": ("schemes", lambda text: tuple(s.strip() for s in text.split(",") if s.strip())),
    "scenarios": ("n_scenarios", int),
    "out": ("output_path", str),
    "parallel": ("parallelism", int),
}
_REQUIRED_KEYS = ("sweep", "sweep_values", "schemes")
_SIM_KEYS = get_type_hints(SimParams)

# A comment runs from a "#" at the start of a line or after whitespace to the
# end of the line, so a value such as an output path may contain "#".
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text in the line-oriented key=value format (``#`` at the
    start of a line or after whitespace starts a comment).

    Refuses unknown keys and reports missing required keys by name.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _HARNESS_KEYS and key not in _SIM_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen[key] = value

    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    harness, sim = {}, {}
    for key, value in seen.items():
        if key in _HARNESS_KEYS:
            name, parse = _HARNESS_KEYS[key]
            into = harness
        else:
            name, parse, into = key, _SIM_KEYS[key], sim
        try:
            into[name] = parse(value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from e
    cfg = ExperimentConfig(base=SimParams(**sim), **harness)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# sweeps


def apply_sweep(base: SimParams, variable: str, value: float, schemes: tuple) -> tuple:
    """Parameters and SchemeConfig tuple for one sweep point.

    lambda_g also re-derives the per-cell transmitter count from the density
    (expected points of the field in the cell area, at least one), since the
    density is what the sweep means physically. n_per_channel rewrites the
    size of every fixed(n) scheme and leaves the rest alone.
    """
    if variable in _SWEEP_FIELDS:
        return replace(base, **{_SWEEP_FIELDS[variable]: value}), schemes
    if variable == "lambda_g":
        n = max(1, round(value * math.pi * base.cell_radius_m**2))
        return replace(base, group_density_per_m2=value, num_groups=n), schemes
    if variable == "n_per_channel":
        if not float(value).is_integer():
            raise ConfigError(f"n_per_channel must be a whole number, got {value!r}")
        mode = f"fixed({int(value)})"
        return base, tuple(
            s if s.fixed_size is None else replace(s, selection_mode=mode) for s in schemes
        )
    raise ConfigError(f"unknown sweep variable {variable!r}")


# ---------------------------------------------------------------------------
# scenario evaluation (top level so worker processes can import it)


def _eval_scenarios(args):
    """Evaluate a contiguous block of scenario indices at every sweep point,
    scenario-major.

    Each point is (SimParams, SchemeConfig tuple) and takes scenario i from
    the previous point's (`geometry.next_scenario`), which draws only at the
    first point and where the scenario key changes other than by a larger
    D. Each point then builds its context from its scenario and the
    previous point's context when both hold the same draw
    (`geometry.same_draw`), adopting the tables whose inputs are unchanged,
    or reuses that context when its parameters are equal, and scores its
    schemes. Returns, per point, its results in scenario-index order, each
    None (degenerate) or the tuple of per-scheme throughputs plus the
    winning size vector of the first scheme, and its summed evaluation ms,
    a draw charged to the point that made it.
    """
    # numpy imports numpy.random at its first use, the first draw's seeding;
    # importing it here keeps that out of the first point's evaluation time
    import numpy.random  # noqa: F401

    points, lo, hi = args
    results = [[] for _ in points]
    elapsed = [0.0] * len(points)
    for idx in range(lo, hi):
        t = time.perf_counter()
        scenario = ctx = None
        for i, (params, schemes) in enumerate(points):
            scenario = next_scenario(scenario, params, idx)
            if scenario.degenerate:
                results[i].append(None)
            else:
                if ctx is None or ctx.params != params:
                    if ctx is not None and not same_draw(ctx.scenario, scenario):
                        ctx = None
                    ctx = build_context(scenario, prev=ctx)
                results[i].append(_score(ctx, schemes))
            now = time.perf_counter()
            elapsed[i] += now - t
            t = now
    return [(r, sec * 1000.0) for r, sec in zip(results, elapsed)]


def _score(ctx, schemes) -> tuple:
    """(per-scheme throughputs, winning size vector of the first scheme)."""
    values = []
    vector = ()
    for si, scheme in enumerate(schemes):
        assignment, _, tv = allocate(ctx, scheme)
        values.append(tv)
        if si == 0:
            sizes = [len(s) for s in assignment.channel_to_groups.values() if s]
            sizes += [len(s) for s in assignment.unassigned_subsets]
            vector = tuple(sorted(sizes, reverse=True))
    return tuple(values), vector


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    reports one (a run under taskset or a cgroup CPU set sees its own
    share, not the machine's), else the machine's count, 1 if unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_points(cfg: ExperimentConfig):
    """Validate, then yield (sweep value, scenario results in scenario-index
    order, summed evaluation ms) per sweep point.

    The whole sweep is one scenario-major pass, mapped once: one contiguous
    block of scenario indices per worker, a single block when serial, each
    block covering every point.
    """
    points = cfg.points()
    # A fork-started pool launches all its workers at the first task, so a
    # worker past the scenario count or the CPU count would only idle.
    workers = min(cfg.parallelism, cfg.n_scenarios, _usable_cpus())
    sweep_master = child_seed(cfg.base.master_seed, _SWEEP_STREAM, 0)
    seeded = tuple(
        (replace(params, master_seed=sweep_master), schemes) for _, params, schemes in points
    )
    n = cfg.n_scenarios
    chunk = -(-n // workers)
    blocks = [(seeded, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    # No pool when serial. Leaving the pool's context joins the workers, so
    # their CPU time is reaped before the results are reduced.
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        parts = list((pool.map if pool else map)(_eval_scenarios, blocks))
    for i, (value, _, _) in enumerate(points):
        yield value, [r for part in parts for r in part[i][0]], sum(part[i][1] for part in parts)


def run_experiment(cfg: ExperimentConfig, timing: bool = False) -> list:
    """Sweep, average, and return one ResultRow per (sweep value, scheme)."""
    rows = []
    for value, results, evaluation_ms in _sweep_points(cfg):
        n_degenerate = sum(1 for r in results if r is None)
        valid = [r[0] for r in results if r is not None]
        for si, name in enumerate(cfg.schemes):
            vals = np.array([v[si] for v in valid]) if valid else np.zeros(0)
            rows.append(
                ResultRow(
                    sweep_value=value,
                    scheme_name=name,
                    mean_throughput=float(vals.mean()) if len(vals) else 0.0,
                    std_dev=float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                    n_degenerate=n_degenerate,
                    wall_ms=evaluation_ms if timing else 0.0,
                )
            )
    return rows


def winning_combination_histogram(cfg: ExperimentConfig) -> dict:
    """Per sweep value: how often each size vector won the full search.

    The winner of a scenario is the size vector of the family selected by
    the exhaustive all-modes search (the first configured scheme must be
    that search for the histogram to mean anything; the function forces it).
    Where several size vectors tie exactly at the optimum, the search's
    tie-break names the winner, so such a scenario counts toward one of
    several equally good vectors. The vector counts every selected group,
    muted ones included.
    """
    out = {}
    for value, results, _ in _sweep_points(replace(cfg, schemes=("optimal",))):
        counts: dict[tuple, int] = {}
        for r in results:
            if r is not None:
                counts[r[1]] = counts.get(r[1], 0) + 1
        out[value] = counts
    return out


# ---------------------------------------------------------------------------
# persistence and reporting


def format_rows(variable: str, rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    variable,
                    _sig6(r.sweep_value),
                    r.scheme_name,
                    _sig6(r.mean_throughput),
                    _sig6(r.std_dev),
                    str(r.n_degenerate),
                    _sig6(r.wall_ms),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def write_csv(variable: str, rows, path: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(format_rows(variable, rows))
    except OSError as e:
        raise OSError(f"cannot write results to {path!r}: {e.strerror or e}") from e


def db_gap(mean_a: float, mean_b: float) -> float:
    """10 log10(a/b): positive when a is the larger mean."""
    if mean_a <= 0.0 or mean_b <= 0.0:
        return math.nan
    return 10.0 * math.log10(mean_a / mean_b)


def gap_report(rows) -> str:
    """Scheme-vs-first-scheme dB gaps per sweep value, one line each."""
    by_value: dict[float, list] = {}
    for r in rows:
        by_value.setdefault(r.sweep_value, []).append(r)
    lines = []
    for value, group in by_value.items():
        ref = group[0]
        for other in group[1:]:
            gap = db_gap(ref.mean_throughput, other.mean_throughput)
            lines.append(
                f"{_sig6(value)}: {ref.scheme_name} vs {other.scheme_name}: "
                f"{gap:.3f} dB"
            )
    return "\n".join(lines)
