"""Experiment driver: parameter sweeps, Monte Carlo averaging over random
scenarios, key=value configuration, CSV persistence.

A run is a pure function of (config, master seed). Every sweep point
draws from one shared scenario stream: scenario seeds mix (master seed,
scenario index) through the same splitmix chain the rest of the package
uses, and the sweep index does not enter. Scenario i at one sweep value is
therefore scenario i at every other value, drawn with that point's
parameters from the same random numbers, so neighbouring points are
compared on paired scenarios (common random numbers). Results are reduced
in scenario-index order no matter how many worker processes computed them,
so the CSV is byte-identical across parallelism levels. Wall-clock columns
default to zero for the same reason; pass timing=True to fill them (and
give up byte-stability).

Degenerate scenarios (no multicast group kept any receiver) are counted and
excluded from the averages rather than resampled, so every scheme in a run
is scored on exactly the same scenario set, and so is every sweep point.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .allocation import (
    SchemeConfig,
    allocate,
    build_context,
    check_exhaustive_size,
    check_greedy_size,
)
from .combinatorics import parse_mode
from .geometry import generate_scenario
from .params import SimParams, param_names, parse_param
from .seeds import child_seed

# Mixing tag that separates the harness's scenario stream from plain
# scenario indexing on the same master seed. Every sweep point uses this one
# stream (at index 0), so all points score the same scenarios.
_SWEEP_STREAM = 81

SWEEP_VARIABLES = ("D", "R", "R_c_min", "P_G", "lambda_g", "n_per_channel")

# Named scheme presets accepted in config files. A token may also spell a
# scheme out as mode:method[:policy], e.g. "almost_equal:greedy" or
# "all:exhaustive:grid(3)".
SCHEME_PRESETS = {
    "optimal": ("all", "exhaustive", "max_feasible"),
    "almost_equal": ("almost_equal", "exhaustive", "max_feasible"),
    "equal": ("equal", "exhaustive", "max_feasible"),
    "fixed2": ("fixed(2)", "exhaustive", "max_feasible"),
    "heuristic": ("all", "greedy", "max_feasible"),
    "fixed_heuristic": ("fixed(2)", "greedy", "max_feasible"),
}

CSV_HEADER = "sweep_var,sweep_value,scheme,mean_bps_hz,std,degenerate,wall_ms"


class ConfigError(ValueError):
    pass


def resolve_scheme(token: str) -> SchemeConfig:
    """Turn a config token (preset name or mode:method[:policy]) into a scheme."""
    if token in SCHEME_PRESETS:
        mode, method, policy = SCHEME_PRESETS[token]
    else:
        parts = token.split(":")
        if len(parts) == 2:
            (mode, method), policy = parts, "max_feasible"
        elif len(parts) == 3:
            mode, method, policy = parts
        else:
            raise ConfigError(
                f"unknown scheme {token!r}; use a preset "
                f"({', '.join(sorted(SCHEME_PRESETS))}) or mode:method[:policy]"
            )
    try:
        return SchemeConfig(
            selection_mode=mode, assignment_method=method, power_policy=policy
        )
    except ValueError as e:
        raise ConfigError(f"bad scheme {token!r}: {e}") from e


@dataclass
class ExperimentConfig:
    """Everything one `run` needs; round-trips through the key=value text."""

    base: SimParams = field(default_factory=SimParams)
    sweep_variable: str = "D"
    sweep_values: tuple = ()
    schemes: tuple = ()
    n_scenarios: int = 500
    output_path: str = "results.csv"
    parallelism: int = 1

    def validate(self) -> None:
        """Check the config and every sweep point's parameters and schemes,
        so a bad config fails before the first scenario runs."""
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
        modes = [parse_mode(resolve_scheme(tok).selection_mode)[0] for tok in self.schemes]
        if self.sweep_variable == "n_per_channel" and "fixed" not in modes:
            raise ConfigError("sweep n_per_channel needs a fixed(n) scheme: it changes no other")
        if self.n_scenarios < 1:
            raise ConfigError("scenarios must be at least 1")
        if self.parallelism < 1:
            raise ConfigError("parallel must be at least 1")
        _check_output_path(self.output_path)
        try:
            self.base.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        for value in self.sweep_values:
            try:
                params, tokens = apply_sweep(self.base, self.sweep_variable, value, self.schemes)
                params.validate()
                # a scenario never has more active groups than num_groups
                G, C = params.num_groups, params.num_channels
                for scheme in map(resolve_scheme, tokens):
                    if scheme.assignment_method == "exhaustive":
                        check_exhaustive_size(G, C, scheme.selection_mode)
                    else:
                        check_greedy_size(G, C, scheme.selection_mode)
            except ValueError as e:
                raise ConfigError(f"{self.sweep_variable} = {value!r}: {e}") from e


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

_REQUIRED_KEYS = ("sweep", "sweep_values", "schemes")
_HARNESS_KEYS = _REQUIRED_KEYS + ("scenarios", "out", "parallel")

# A comment runs from a "#" at the start of a line or after whitespace to the
# end of the line, so a value such as an output path may contain "#".
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _check_output_path(path: str) -> None:
    """Refuse an `out` path that is empty or that the config text cannot
    carry: `render_config` writes it bare, so parsing it back would strip
    leading or trailing whitespace, split it at a line break or cut it at a
    comment."""
    if not path:
        raise ConfigError("out must name a file")
    if path != path.strip() or len(path.splitlines()) > 1 or _COMMENT.search(path):
        raise ConfigError(
            f"out = {path!r} cannot be written in a config: it has leading or trailing "
            "whitespace, a line break, or a '#' at its start or after whitespace"
        )


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
        if key not in _HARNESS_KEYS and key not in param_names():
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen[key] = value

    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    overrides = {}
    for key, value in seen.items():
        if key in _HARNESS_KEYS:
            continue
        try:
            overrides[key] = parse_param(key, value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from e
    try:
        values = tuple(float(v) for v in seen["sweep_values"].split(","))
    except ValueError as e:
        raise ConfigError(f"bad sweep_values: {seen['sweep_values']!r}") from e
    counts = {}
    for key, default in (("scenarios", 500), ("parallel", 1)):
        try:
            counts[key] = int(seen.get(key, default))
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {seen[key]!r}") from e
    cfg = ExperimentConfig(
        base=SimParams(**overrides),
        sweep_variable=seen["sweep"],
        sweep_values=values,
        schemes=tuple(s.strip() for s in seen["schemes"].split(",") if s.strip()),
        n_scenarios=counts["scenarios"],
        output_path=seen.get("out", "results.csv"),
        parallelism=counts["parallel"],
    )
    cfg.validate()
    return cfg


def render_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config: parse(render(c)) == c."""
    lines = [
        f"sweep = {cfg.sweep_variable}",
        "sweep_values = " + ", ".join(_fmt(v) for v in cfg.sweep_values),
        "schemes = " + ", ".join(cfg.schemes),
        f"scenarios = {cfg.n_scenarios}",
        f"out = {cfg.output_path}",
        f"parallel = {cfg.parallelism}",
    ]
    defaults = SimParams()
    for f in fields(SimParams):
        v = getattr(cfg.base, f.name)
        if v != getattr(defaults, f.name):
            lines.append(f"{f.name} = {_fmt(v)}")
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


# ---------------------------------------------------------------------------
# sweeps


def apply_sweep(base: SimParams, variable: str, value: float, schemes: tuple) -> tuple:
    """Parameters and scheme tokens for one sweep point.

    lambda_g also re-derives the per-cell transmitter count from the density
    (expected points of the field in the cell area, at least one), since the
    density is what the sweep means physically. n_per_channel rewrites the
    size of every fixed(n) scheme and leaves the rest alone.
    """
    if variable == "D":
        return base.copy_with(exclusion_radius_m=value), schemes
    if variable == "R":
        return base.copy_with(cell_radius_m=value), schemes
    if variable == "R_c_min":
        return base.copy_with(cu_min_rate_bps_hz=value), schemes
    if variable == "P_G":
        return base.copy_with(max_mg_power_dbm=value), schemes
    if variable == "lambda_g":
        n = max(1, round(value * math.pi * base.cell_radius_m**2))
        return base.copy_with(group_density_per_m2=value, num_groups=n), schemes
    if variable == "n_per_channel":
        if not float(value).is_integer():
            raise ConfigError(f"n_per_channel must be a whole number, got {value!r}")
        out = []
        for tok in schemes:
            s = resolve_scheme(tok)
            if parse_mode(s.selection_mode)[0] == "fixed":
                tok = f"fixed({int(value)}):{s.assignment_method}:{s.power_policy}"
            out.append(tok)
        return base, tuple(out)
    raise ConfigError(f"unknown sweep variable {variable!r}")


# ---------------------------------------------------------------------------
# scenario evaluation (top level so worker processes can import it)


def _eval_scenarios(args):
    """Evaluate a contiguous block of scenario indices for one sweep point.

    Returns, per scenario, either None (degenerate) or the tuple of
    per-scheme throughputs plus the winning size vector of the first scheme.
    """
    params, scheme_tokens, sweep_master, lo, hi = args
    schemes = [resolve_scheme(t) for t in scheme_tokens]
    p = params.copy_with(master_seed=sweep_master)
    out = []
    for idx in range(lo, hi):
        scenario = generate_scenario(p, idx)
        if scenario.degenerate:
            out.append(None)
            continue
        ctx = build_context(scenario)
        values = []
        vector = ()
        for si, scheme in enumerate(schemes):
            assignment, _, tv = allocate(ctx, scheme)
            values.append(tv)
            if si == 0:
                sizes = [len(s) for s in assignment.channel_to_groups.values() if s]
                sizes += [len(s) for s in assignment.unassigned_subsets]
                vector = tuple(sorted(sizes, reverse=True))
        out.append((tuple(values), vector))
    return out


def _worker_pool(workers: int):
    """One worker pool for a whole run, or a null context when serial.

    Leaving the context shuts the pool down and joins its workers, so their
    CPU time is reaped before the run returns.
    """
    if workers <= 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=workers)


def _gather_point(cfg, params, schemes, pool, workers):
    """All scenario results for one sweep value, in scenario-index order.

    The scenario stream is the same at every sweep value, so points differ
    only through their parameters. With a pool the scenarios are split into
    one contiguous block per worker.
    """
    sweep_master = child_seed(cfg.base.master_seed, _SWEEP_STREAM, 0)
    n = cfg.n_scenarios
    if pool is None:
        return _eval_scenarios((params, schemes, sweep_master, 0, n))
    chunk = -(-n // workers)
    blocks = [
        (params, schemes, sweep_master, lo, min(lo + chunk, n))
        for lo in range(0, n, chunk)
    ]
    parts = list(pool.map(_eval_scenarios, blocks))
    return [r for part in parts for r in part]


def _sweep_points(cfg: ExperimentConfig):
    """Validate, then yield (sweep value, scenario results, gather ms) per
    sweep point, all points sharing one worker pool."""
    cfg.validate()
    # A fork-started pool launches all its workers at the first task, so a
    # worker past the scenario count or the CPU count would only idle.
    workers = min(cfg.parallelism, cfg.n_scenarios, os.cpu_count() or 1)
    with _worker_pool(workers) as pool:
        for value in cfg.sweep_values:
            params, scheme_tokens = apply_sweep(
                cfg.base, cfg.sweep_variable, value, cfg.schemes
            )
            t0 = time.perf_counter()
            results = _gather_point(cfg, params, scheme_tokens, pool, workers)
            yield value, results, (time.perf_counter() - t0) * 1000.0


def run_experiment(cfg: ExperimentConfig, timing: bool = False) -> list:
    """Sweep, average, and return one ResultRow per (sweep value, scheme)."""
    rows = []
    for value, results, elapsed_ms in _sweep_points(cfg):
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
                    wall_ms=elapsed_ms if timing else 0.0,
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
