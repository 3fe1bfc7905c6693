"""End-to-end verification of the package's published guarantees.

Every test prints one PASS or FAIL line (visible with -s, or on failure)
and asserts the same condition, so running this module doubles as a
checklist report. The statistical checks drive the real experiment
harness with the worker pool at a hundred plus scenarios per point, so
the whole module takes a few minutes; the unit suites elsewhere stay
fast.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from mgshare.allocation import SchemeConfig, allocate
from mgshare.cli import main as cli_main
from mgshare.combinatorics import (
    distinct_count,
    enumerate_families,
    enumerate_size_vectors,
    reference_count,
    reference_count_by_total,
    search_space_size,
)
from mgshare.geometry import generate_scenario
from mgshare.harness import (
    ExperimentConfig,
    db_gap,
    run_experiment,
    winning_combination_histogram,
)
from mgshare.outage import MCLink, mc_outage, outage_cu, outage_mg
from mgshare.params import SimParams
from mgshare.power import group_power_cap
from oracles import equal_split_bound

N_SCENARIOS = 150
POOL = 8


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = ("PASS " if ok else "FAIL ") + label
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# counting golden values and cross-checks


VECTORS_ALL_7_3 = {
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1),
    (3, 2, 2), (3, 3, 1), (4, 1, 1), (4, 2, 1), (5, 1, 1),
}
VECTORS_BALANCED_7_3 = {(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)}
VECTORS_EQUAL_7_3 = {(1, 1, 1), (2, 2, 2)}


def test_golden_counts():
    by_q = reference_count_by_total(7, 3, "all")
    checks = {
        "total": reference_count(7, 3, "all") == 1841,
        "per_q": [by_q[q] for q in range(3, 8)] == [70, 210, 525, 735, 301],
        "balanced": reference_count(7, 3, "almost_equal") == 875,
        "equal": reference_count(7, 3, "equal") == 280,
        "vectors": set(enumerate_size_vectors(7, 3, "all")) == VECTORS_ALL_7_3
        and set(enumerate_size_vectors(7, 3, "almost_equal")) == VECTORS_BALANCED_7_3
        and set(enumerate_size_vectors(7, 3, "equal")) == VECTORS_EQUAL_7_3,
    }
    bad = [k for k, v in checks.items() if not v]
    _report("selection-count golden values (7 groups, 3 channels)", not bad,
            f"failed: {bad}" if bad else "1841 / 875 / 280, 11+5+2 vectors")


def test_enumeration_crosscheck():
    mismatches = []
    for G in range(1, 9):
        for C in range(1, min(4, G) + 1):
            for mode in ("all", "almost_equal", "equal"):
                fams = set()
                for vec in enumerate_size_vectors(G, C, mode):
                    fams.update(enumerate_families(range(G), vec))
                if distinct_count(G, C, mode) != len(fams):
                    mismatches.append((G, C, mode))
    ok = not mismatches and distinct_count(7, 3, "all") == 1701
    _report("distinct-family counts match brute-force enumeration (G<=8, C<=4)",
            ok, f"mismatches: {mismatches}" if mismatches else "includes 7,3 -> 1701")


def test_search_space_bound():
    pairs = [(G, C) for G in range(1, 9) for C in range(1, min(4, G) + 1)]
    bad = [
        (G, C)
        for G, C in pairs
        if search_space_size(G, C, "all") < equal_split_bound(G, C)
    ]
    _report("search space dominates the equal-split lower bound (G<=8, C<=4)",
            not bad, f"violations: {bad}" if bad else f"all {len(pairs)} pairs")


# ---------------------------------------------------------------------------
# closed forms: exact inversion and Monte Carlo agreement


def test_cap_inversion_roundtrip():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        mg_density = 10.0 ** rng.uniform(-7, -4)
        p_c = 10.0 ** rng.uniform(-2, 1)
        d_cb = rng.uniform(20.0, 450.0)
        threshold = 10.0 ** rng.uniform(-1, 2)
        budget = rng.uniform(0.01, 0.5)
        cap = group_power_cap(mg_density, p_c, d_cb, threshold, budget)
        got = outage_cu(mg_density, cap, p_c, d_cb, threshold)
        worst = max(worst, abs(got - budget) / budget)
    _report("power cap inverts the cellular outage form (100-point grid)",
            worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_closed_forms_vs_monte_carlo():
    n = 20_000
    cu_closed = outage_cu(2e-5, 1.0, 1.0, 200.0, 10.0 ** 0.6)
    cu_mc = mc_outage(
        MCLink(kind="cu", mg_density=2e-5, p_g=1.0, p_c=1.0,
               link_d=200.0, threshold=10.0 ** 0.6),
        n, np.random.default_rng(11),
    )
    mg_closed = outage_mg(2e-5, 2e-5, 1.0, 1.0, 50.0, 25.0, 10.0 ** 2.5)
    mg_mc = mc_outage(
        MCLink(kind="mg", cu_density=2e-5, mg_density=2e-5, p_c=1.0, p_g=1.0,
               guard=50.0, link_d=25.0, threshold=10.0 ** 2.5),
        n, np.random.default_rng(12),
    )
    cu_err = abs(cu_closed - cu_mc.outage)
    mg_err = abs(mg_closed - mg_mc.outage)
    _report("closed-form outage tracks Monte Carlo (20k field+fading draws)",
            cu_err <= 0.05 and mg_err <= 0.10,
            f"cellular |closed-mc|={cu_err:.4f} (<=0.05), "
            f"group |closed-mc|={mg_err:.4f} (<=0.10)")


# ---------------------------------------------------------------------------
# per-scenario scheme dominance


_DOM_TOKENS = ("optimal", "almost_equal", "equal", "fixed2", "heuristic")


def _dominance_one(idx: int):
    p = SimParams()
    scn = generate_scenario(p, idx)
    if scn.degenerate:
        return None
    return {tok: allocate(scn, SchemeConfig.from_token(tok))[2] for tok in _DOM_TOKENS}


def test_scheme_dominance():
    with ProcessPoolExecutor(max_workers=POOL) as ex:
        results = list(ex.map(_dominance_one, range(100)))
    violations = []
    n_done = 0
    for idx, vals in enumerate(results):
        if vals is None:
            continue
        n_done += 1
        eps = 1e-9 * max(1.0, abs(vals["optimal"]))
        chain = (
            vals["optimal"] + eps >= vals["almost_equal"]
            and vals["almost_equal"] + eps >= vals["equal"]
            and vals["equal"] + eps >= vals["fixed2"]
            and vals["optimal"] + eps >= vals["heuristic"]
        )
        if not chain:
            violations.append(idx)
    _report("scheme dominance chain holds in every scenario",
            n_done >= 90 and not violations,
            f"{n_done} scenarios, violations: {violations}")


# ---------------------------------------------------------------------------
# trend shapes from the experiment harness


def _curve(variable, values, n=N_SCENARIOS):
    cfg = ExperimentConfig(
        base=SimParams(), sweep_variable=variable, sweep_values=tuple(values),
        schemes=("optimal",), n_scenarios=n, parallelism=POOL,
    )
    rows = run_experiment(cfg)
    means, ses = [], []
    for r in rows:
        n_valid = n - r.n_degenerate
        means.append(r.mean_throughput)
        ses.append(r.std_dev / math.sqrt(max(n_valid, 1)))
    return means, ses


def _pair_tol(ses, i):
    return math.hypot(ses[i], ses[i + 1])


def _single_interior_peak(means, ses):
    """Rises to an interior argmax then falls, each step within one se."""
    i = int(np.argmax(means))
    if i == 0 or i == len(means) - 1:
        return False, f"peak at boundary index {i}"
    for a in range(i):
        if means[a + 1] - means[a] < -_pair_tol(ses, a):
            return False, f"dip on the rising flank at index {a}"
    for a in range(i, len(means) - 1):
        if means[a + 1] - means[a] > _pair_tol(ses, a):
            return False, f"bump on the falling flank at index {a}"
    return True, (f"peak index {i}, rise {means[i] - means[0]:.1f}, "
                  f"fall {means[i] - means[-1]:.1f}")


def _rising_saturating(means, ses):
    """Nondecreasing within one se per step, with a flattening tail."""
    for a in range(len(means) - 1):
        if means[a + 1] - means[a] < -_pair_tol(ses, a):
            return False, f"decrease at index {a}"
    total = means[-1] - means[0]
    if total <= 2.0 * math.hypot(ses[0], ses[-1]):
        return False, f"no significant rise (total {total:.2f})"
    late = means[-1] - means[len(means) // 2]
    if late > 0.4 * total:
        return False, f"late rise {late:.2f} not saturating vs total {total:.2f}"
    return True, f"total rise {total:.1f}, late rise {late:.1f}"


def test_trend_vs_exclusion_radius():
    means, ses = _curve("D", range(20, 101, 10))
    ok, detail = _single_interior_peak(means, ses)
    _report("throughput vs exclusion radius has a single interior peak",
            ok, detail)


def test_trend_vs_cell_radius():
    means, ses = _curve("R", range(250, 501, 50))
    ok, detail = _single_interior_peak(means, ses)
    _report("throughput vs cell radius has a single interior peak", ok, detail)


def test_trend_vs_power_budget():
    means, ses = _curve("P_G", [-10, -5, 0, 5, 10, 15, 20, 25, 30])
    ok, detail = _rising_saturating(means, ses)
    _report("throughput vs group power budget rises then saturates", ok, detail)


def test_trend_vs_group_density():
    means, ses = _curve("lambda_g", [2e-6, 4e-6, 6e-6, 8e-6, 1e-5])
    ok, detail = _rising_saturating(means, ses)
    _report("throughput vs group density rises then saturates", ok, detail)


# ---------------------------------------------------------------------------
# heuristic quality and winner support at the default operating point


def test_heuristic_gap():
    cfg = ExperimentConfig(
        base=SimParams(), sweep_variable="D", sweep_values=(50.0,),
        schemes=("optimal", "heuristic", "fixed_heuristic"),
        n_scenarios=N_SCENARIOS, parallelism=POOL,
    )
    rows = {r.scheme_name: r.mean_throughput for r in run_experiment(cfg)}
    full_gap = db_gap(rows["optimal"], rows["heuristic"])
    fixed_gap = db_gap(rows["optimal"], rows["fixed_heuristic"])
    _report("greedy assignment stays within the dB budget of the full search",
            full_gap <= 3.0 and fixed_gap <= 3.5,
            f"greedy gap {full_gap:.2f} dB (<=3.0), "
            f"fixed-size greedy gap {fixed_gap:.2f} dB (<=3.5)")


def test_winner_support():
    cfg = ExperimentConfig(
        base=SimParams(), sweep_variable="D", sweep_values=(50.0,),
        schemes=("optimal",), n_scenarios=N_SCENARIOS, parallelism=POOL,
    )
    hist = winning_combination_histogram(cfg)[50.0]
    support = {vec for vec, count in hist.items() if count > 0}
    ok = support <= VECTORS_ALL_7_3 and len(support) <= 5
    _report("winning size vectors concentrate on a small support",
            ok, f"support {sorted(support)}")


# ---------------------------------------------------------------------------
# determinism across parallelism levels


def test_parallel_determinism(tmp_path):
    out1 = tmp_path / "serial.csv"
    out8 = tmp_path / "pool.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "sweep = D\n"
        "sweep_values = 20, 60, 100\n"
        "schemes = optimal, heuristic\n"
        "scenarios = 25\n"
    )
    rc1 = cli_main(["run", "--config", str(config), "--parallel", "1",
                    "--out", str(out1)])
    rc8 = cli_main(["run", "--config", str(config), "--parallel", "8",
                    "--out", str(out8)])
    same = out1.read_bytes() == out8.read_bytes()
    _report("run output is byte-identical at parallelism 1 and 8",
            rc1 == 0 and rc8 == 0 and same,
            f"{out1.stat().st_size} bytes")
