"""Fast self-test of the benchmark: every workload's code path, traced and
untraced, at a few scenarios per sweep point, with all output checks on;
then each check is shown to reject a broken input.

    python3 perfbench/selftest.py

Exits 0 when everything passes. Takes about half a minute on two cores.
Outputs go to .perfbench/selftest/.
"""

from __future__ import annotations

import dataclasses
import sys
from types import SimpleNamespace

import checks
import layers
import run

SMALL = {"paper-d-sweep": 2, "dense-groups": 2, "sparse-power-pooled": 4}


def _fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def test_workloads() -> None:
    out_root = run.ROOT / ".perfbench" / "selftest"
    for name, w in run.WORKLOADS.items():
        small = dataclasses.replace(w, scenarios=SMALL[name])
        for trace in (False, True):
            res, notes, errors = run.run(name, 7, 0.0, trace, w=small, out_root=out_root,
                                         min_trace_samples=0, setup_readings=1)
            if not res["correct"] or res["failed"]:
                _fail(f"{name} trace={trace}: {errors}")
            expect = set(layers.UNITS if trace else run.END_TO_END_UNITS)
            expect.discard("harness.scenario_ms_tail")  # needs 40 scenarios
            missing = expect - set(res["metrics"])
            if missing:
                _fail(f"{name} trace={trace}: missing metrics {sorted(missing)}")
            if res["attempted"] % small.operations:
                _fail(f"{name}: attempted {res['attempted']} is not whole sweeps")
            print(f"ok   {name} trace={trace}: {notes[0]}")


def test_checks_reject_broken_outputs() -> None:
    schemes = ("optimal", "almost_equal", "heuristic", checks.GRID)
    header = "sweep_var,sweep_value,scheme,mean_bps_hz,std,degenerate,wall_ms\n"

    def csv(means):
        return header + "".join(
            f"D,50,{s},{m},1,0,0\n" for s, m in zip(schemes, means)
        )

    args = ("D", (50.0,), schemes, 10, 3, 7)
    if checks.check_csv(csv((45.0, 44.0, 43.0, 45.0)), *args):
        _fail("a valid CSV was rejected")
    broken = {
        "dominance": (45.0, 46.0, 43.0, 45.0),
        "heuristic above optimal": (45.0, 44.0, 45.5, 45.0),
        "grid below optimal": (45.0, 44.0, 43.0, 44.9),
        "below the CU-only floor": (39.0, 38.0, 37.0, 39.0),
        "above the cap": (200.0, 44.0, 43.0, 200.0),
    }
    for what, means in broken.items():
        if not checks.check_csv(csv(means), *args):
            _fail(f"CSV check missed: {what}")
    if not checks.check_csv(csv((45.0, 44.0, 43.0, 45.0)).replace("0\n", "1.5\n", 1), *args):
        _fail("CSV check missed a nonzero wall_ms")
    if checks.recompute_errors([[10.0, 10.0 * (1 + 1e-12)]])[2]:
        _fail("recompute check rejected a 1e-12 difference")
    if not checks.recompute_errors([[10.0, 10.0 * (1 + 1e-8)]])[2]:
        _fail("recompute check missed a 1e-8 difference")
    good = [6283 + d for d in (-80, -20, 0, 30, 70)] * 4
    if checks.check_candidates(good, 8e-3, 500.0):
        _fail("candidate check rejected Poisson-like counts")
    if not checks.check_candidates([c + 200 for c in good], 8e-3, 500.0):
        _fail("candidate check missed a shifted mean")
    print("ok   checks reject broken outputs")


def test_recompute_matches_a_hand_cell() -> None:
    """One CU and one group of one receiver sharing a channel, by hand: the
    CU's SIR hits the 40 dB cap and the group clears its 25 dB threshold."""
    import numpy as np

    scn = SimpleNamespace(
        cus=[SimpleNamespace(position=(10.0, 0.0))],
        groups=[SimpleNamespace(tx_position=(0.0, 57.0), receivers=[(0.0, 60.0)])],
    )
    ones = np.ones((1, 1, 1))
    fad = SimpleNamespace(h_cu_bs=ones[0, 0], h_mg_bs=ones[0], h_cu_rx=ones[0], h_mg_rx=ones)
    p = SimpleNamespace(bandwidth_hz=1.0, cu_min_rate_bps_hz=0.0, path_loss_exponent=4.0,
                        cu_sir_threshold_db=0.0, mg_sir_threshold_db=25.0)
    ctx = SimpleNamespace(scenario=scn, fading=fad, params=p)
    assignment = SimpleNamespace(channel_to_groups={0: frozenset({0})})
    powers = SimpleNamespace(cu_power_w=[1.0], mg_power_w=[0.01])
    sir_cu = min(10.0**-4 / (0.01 * 57.0**-4), 1e4)
    sir_mg = (0.01 * 3.0**-4) / (10.0**2 + 60.0**2) ** -2
    if not (sir_cu == 1e4 and 10**2.5 <= sir_mg < 1e4):
        _fail("hand cell no longer exercises the cap and the threshold")
    want = np.log2(1 + sir_cu) + np.log2(1 + sir_mg)
    got = checks.recompute_throughput(ctx, assignment, powers, want)[1]
    if abs(got - want) > 1e-12 * want:
        _fail(f"hand cell recomputed as {got}, expected {want}")
    print("ok   recompute matches a hand-computed cell")


if __name__ == "__main__":
    test_checks_reject_broken_outputs()
    test_recompute_matches_a_hand_cell()
    test_workloads()
    print("selftest passed")
