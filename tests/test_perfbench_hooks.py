"""The benchmark's tracer wraps package functions by name (perfbench/tracer.py).
A traced three-scenario run must still find every one of them and its
independent throughput recomputation must agree with what allocate reported,
so renaming or deleting a traced function fails here, not only in the
benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SPANS = {
    "allocation.allocate",
    "allocation.build_context",
    "allocation._exhaustive_best",
    "allocation._greedy_best",
    "allocation._grid_refine",
    "geometry.generate_scenario",
    "harness.block",
    "harness.scenario",
    "kernels.build_value_table",
    "kernels.build_stage2_table",
    "power.power_interval",
    "radio.scenario_links",
    "radio.draw_fading",
}
COUNTED = {"allocation.greedy_match", "allocation.channel_value"}

CONFIG = """sweep = D
sweep_values = 50
schemes = optimal, heuristic, all:exhaustive:grid(3)
scenarios = 3
"""


def test_traced_run_reaches_every_hook(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(CONFIG)
    trace_dir = tmp_path / "spans"
    trace_dir.mkdir()  # the tracer writes into it but does not create it
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "child.py"),
            "--config", str(conf),
            "--out", str(tmp_path / "out.csv"),
            "--record", str(tmp_path / "record.json"),
            "--trace", str(trace_dir),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    names, counted, pairs = set(), set(), []
    contexts = 0
    for path in trace_dir.glob("trace-*.json"):
        data = json.loads(path.read_text())
        spans = data["spans"]
        for span in spans:
            names.add(span[0])
            counted |= set(span[5] or ())
        pairs += data["checks"]
        # power.feasible_share counts one power_interval call per (group,
        # channel) pair of each context: G from the scenario's draw, C = 3
        for i, span in enumerate(spans):
            if span[0] != "allocation.build_context":
                continue
            (G,) = [
                s[4]["G"] for s in spans
                if s[0] == "geometry.generate_scenario" and s[3] == span[3]
            ]
            calls = sum(s[0] == "power.power_interval" and s[3] == i for s in spans)
            assert calls == G * 3
            contexts += 1
    assert contexts > 0
    assert names == SPANS
    assert counted == COUNTED
    # the family table is built in numpy; no run reaches the enumerator's hook
    assert "combinatorics.enumerate_families" not in counted

    sys.path.insert(0, str(PERFBENCH))
    try:
        from checks import recompute_errors
    finally:
        sys.path.remove(str(PERFBENCH))
    n, _, bad = recompute_errors(pairs)
    assert n == 9  # three scenarios, three schemes
    assert bad == []
