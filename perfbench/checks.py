"""Output checks made apart from the program.

Nothing here is compared against a stored copy of earlier output. The CSV
checks test relations the method guarantees (search-space dominance, the
SIR cap's throughput bounds); the throughput check rebuilds each scenario's
score from positions, the fading draw, the assignment and the powers with
its own arithmetic; the candidate check tests the sampler's Poisson mean.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SIR_CAP = 10.0 ** (40.0 / 10.0)  # 40 dB
MIN_LINK_M = 1.0  # path loss is evaluated at 1 m for shorter links
GRID_SLACK = 1e-9  # relative; see the FOUND line on _grid_refine in CHANGES.md
RECOMPUTE_TOL = 1e-9  # relative

# Pairs (a, b) whose CSV means must satisfy a >= b exactly: a's search space
# contains b's, and every scheme scores through the same table.
EXACT_DOMINANCE = (
    ("optimal", "almost_equal"),
    ("almost_equal", "equal"),
    ("equal", "fixed2"),
    ("fixed2", "fixed_heuristic"),
    ("optimal", "heuristic"),
)
GRID = "all:exhaustive:grid(3)"
EXHAUSTIVE = ("optimal", "almost_equal", "equal", "fixed2", GRID)


def _sig6(x: float) -> float:
    """The CSV's 6-significant-digit rounding, which is monotone."""
    return float(f"{x:.6g}")


def check_csv(text: str, sweep: str, values, schemes, n_scenarios: int,
              num_channels: int, num_transmitters: int) -> list[str]:
    """Every failed property of one results CSV, as messages (empty if fine)."""
    errors = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(values) * len(schemes):
        return [f"expected {len(values) * len(schemes)} rows, got {len(rows)}"]
    per_cap = math.log2(1.0 + SIR_CAP)
    upper = _sig6((num_channels + num_transmitters) * per_cap)
    lower = _sig6(num_channels * per_cap)
    for vi, v in enumerate(values):
        block = rows[vi * len(schemes):(vi + 1) * len(schemes)]
        means = {}
        for r, name in zip(block, schemes):
            if r["sweep_var"] != sweep or float(r["sweep_value"]) != _sig6(v) or r["scheme"] != name:
                errors.append(f"row out of order at {sweep}={v}: {r}")
                continue
            m = float(r["mean_bps_hz"])
            deg = int(r["degenerate"])
            means[name] = m
            if not 0 <= deg < n_scenarios:
                errors.append(f"{sweep}={v} {name}: degenerate count {deg} of {n_scenarios}")
            if float(r["std"]) < 0.0 or float(r["wall_ms"]) != 0.0:
                errors.append(f"{sweep}={v} {name}: bad std or wall_ms in {r}")
            if m > upper:
                errors.append(f"{sweep}={v} {name}: mean {m} above (C+G)log2(1+cap) = {upper}")
            if name in EXHAUSTIVE and m < lower:
                errors.append(f"{sweep}={v} {name}: mean {m} below C log2(1+cap) = {lower}")
        for a, b in EXACT_DOMINANCE:
            if a in means and b in means and not means[a] >= means[b]:
                errors.append(f"{sweep}={v}: {a} {means[a]} < {b} {means[b]}")
        if GRID in means and "optimal" in means:
            if means[GRID] < means["optimal"] * (1.0 - GRID_SLACK):
                errors.append(f"{sweep}={v}: grid(3) {means[GRID]} < optimal {means['optimal']}")
    return errors


def _gain(d: float, alpha: float) -> float:
    return max(d, MIN_LINK_M) ** (-alpha)


def _dist(a, b) -> float:
    return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))


def recompute_throughput(ctx, assignment, powers, tv) -> list:
    """[reported, recomputed] throughput of one allocate() result.

    Works from the scenario's positions, the context's fading draw, the
    returned channel map and the returned powers: SIR capped at 40 dB, each
    group earning its worst member's rate, and no rate below the decode
    threshold. Only the instantaneous mode at the default thresholds'
    definitions (dB in the parameters, bandwidth 1 Hz, no CU rate floor) is
    covered, which is what every workload runs.
    """
    scn, fad, p = ctx.scenario, ctx.fading, ctx.params
    if p.bandwidth_hz != 1.0 or p.cu_min_rate_bps_hz != 0.0:
        raise ValueError("recomputation covers bandwidth 1 Hz without a CU rate floor")
    alpha = p.path_loss_exponent
    th_cu = 10.0 ** (p.cu_sir_threshold_db / 10.0)
    th_mg = 10.0 ** (p.mg_sir_threshold_db / 10.0)
    bs = (0.0, 0.0)
    groups = scn.groups
    G = len(groups)
    chan = {g: k for k, gs in assignment.channel_to_groups.items() for g in gs}
    p_cu = np.asarray(powers.cu_power_w, dtype=float)
    p_mg = np.asarray(powers.mg_power_w, dtype=float)
    first = np.concatenate(([0], np.cumsum([len(g.receivers) for g in groups])))
    total = 0.0
    for k, cu in enumerate(scn.cus):
        on = [g for g in range(G) if chan.get(g) == k]
        sig = p_cu[k] * fad.h_cu_bs[k] * _gain(_dist(cu.position, bs), alpha)
        interf = sum(p_mg[g] * fad.h_mg_bs[g, k] * _gain(_dist(groups[g].tx_position, bs), alpha) for g in on)
        sir = SIR_CAP if interf <= 0.0 else min(sig / interf, SIR_CAP)
        if sir >= th_cu:
            total += math.log2(1.0 + sir)
        for g in on:
            worst = math.inf
            for t, rx in enumerate(groups[g].receivers):
                j = int(first[g]) + t
                s = p_mg[g] * fad.h_mg_rx[g, j, k] * _gain(_dist(groups[g].tx_position, rx), alpha)
                i = p_cu[k] * fad.h_cu_rx[k, j] * _gain(_dist(cu.position, rx), alpha)
                for g2 in on:
                    if g2 != g:
                        i += p_mg[g2] * fad.h_mg_rx[g2, j, k] * _gain(_dist(groups[g2].tx_position, rx), alpha)
                worst = min(worst, SIR_CAP if i <= 0.0 else min(s / i, SIR_CAP))
            if worst >= th_mg:
                total += math.log2(1.0 + worst)
    return [float(tv), total]


def recompute_errors(pairs) -> tuple[int, float, list[str]]:
    """(count, largest relative error, messages) over [reported, recomputed] pairs."""
    worst = 0.0
    bad = []
    for reported, recomputed in pairs:
        err = abs(reported - recomputed) / max(abs(recomputed), 1e-300)
        worst = max(worst, err)
        if not err <= RECOMPUTE_TOL:
            bad.append(f"throughput {reported!r} recomputed as {recomputed!r}")
    return len(pairs), worst, bad


def check_candidates(counts, density: float, radius: float) -> list[str]:
    """The mean candidate count lies within 4 standard errors of lambda*pi*R^2."""
    n = len(counts)
    if n < 2:
        return [f"need at least two candidate counts, got {n}"]
    expect = density * math.pi * radius**2
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(n)
    if not abs(mean - expect) <= 4.0 * se:
        return [f"mean candidate count {mean:.1f} over {n} draws is more than "
                f"4 standard errors ({se:.1f}) from {expect:.1f}"]
    return []
