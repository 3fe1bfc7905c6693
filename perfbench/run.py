"""End-to-end benchmark of mgshare sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round writes a config file for the
workload and runs `mgshare run` on it in a fresh interpreter (child.py), as
a user would: config text in, CSV out. Round r uses master seed
N * 10000 + r, so a run scores new scenarios in every round and the same
seed always gives the same inputs. Rounds start until S seconds of rounds
have passed; every round is one whole sweep.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 runs traced sweeps (tracer.py) and prints the per-layer metrics
(layers.py). Every run checks its outputs (checks.py) and prints, as its
last line, one JSON object with correct, attempted, failed and metrics.
An operation is one scenario scored by every scheme of the workload.

Outputs (configs, CSVs, child records, span files, the result) go to
.perfbench/<workload>-seed<N>-trace<T>/ under the checkout root, which is
emptied at the start of each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_STRIDE = 10_000
SETUP_READINGS = 5  # set-up-only interpreters per run, besides one per round
CANDIDATE_DRAWS = 8  # candidate counts drawn per round for the Poisson check
MIN_TRACE_SAMPLES = 40  # scenario spans a traced run collects at least
RUN_LIMIT_S = 170.0  # a run ends within this many seconds


@dataclass(frozen=True)
class Workload:
    sweep: str
    values: tuple
    schemes: tuple
    scenarios: int
    parallel: int
    params: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.values) * self.scenarios

    def config(self, master_seed: int, parallel: int | None = None) -> str:
        lines = [
            f"sweep = {self.sweep}",
            "sweep_values = " + ", ".join(repr(float(v)) for v in self.values),
            "schemes = " + ", ".join(self.schemes),
            f"scenarios = {self.scenarios}",
            f"parallel = {self.parallel if parallel is None else parallel}",
            f"master_seed = {master_seed}",
        ]
        lines += [f"{k} = {v}" for k, v in self.params.items()]
        return "\n".join(lines) + "\n"


SIX_PRESETS = ("optimal", "almost_equal", "equal", "fixed2", "heuristic", "fixed_heuristic")

WORKLOADS = {
    "paper-d-sweep": Workload(
        sweep="D", values=(20, 30, 40, 50, 60, 70, 80, 90, 100),
        schemes=SIX_PRESETS, scenarios=10, parallel=1,
    ),
    "dense-groups": Workload(
        sweep="D", values=(50,), schemes=("optimal", "heuristic"),
        scenarios=16, parallel=1, params={"num_groups": 9},
    ),
    "sparse-power-pooled": Workload(
        sweep="P_G", values=(-10, 0, 10, 20, 30),
        schemes=("fixed2", "fixed_heuristic", "optimal", "all:exhaustive:grid(3)"),
        scenarios=40, parallel=2, params={"num_groups": 5},
    ),
}

END_TO_END_UNITS = {"scenarios_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ChildFailed(RuntimeError):
    pass


class Bench:
    """Runs child sweeps for one benchmark run and keeps their outputs."""

    def __init__(self, out_dir: Path, deadline: float, operations: int):
        self.out_dir = out_dir
        self.deadline = deadline
        self.operations = operations  # scenarios one sweep scores
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def sweep(self, conf: str, trace=False, setup_only=False, candidates=0):
        """(record, csv text, trace dir or None) of one child interpreter.

        Every sweep that is not set-up-only attempts `operations` scenarios;
        if it fails, they all count as failed.
        """
        self.count += 1
        ops = 0 if setup_only else self.operations
        self.attempted += ops
        try:
            return self._sweep(conf, trace, setup_only, candidates)
        except ChildFailed:
            self.failed += ops
            raise

    def _sweep(self, conf, trace, setup_only, candidates):
        tag = f"{self.count:03d}"
        conf_path = self.out_dir / f"{tag}.conf"
        conf_path.write_text(conf)
        csv_path = self.out_dir / f"{tag}.csv"
        rec_path = self.out_dir / f"{tag}.record.json"
        trace_dir = None
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(conf_path),
               "--out", str(csv_path), "--record", str(rec_path)]
        if trace:
            trace_dir = self.out_dir / f"{tag}.trace"
            trace_dir.mkdir()
            cmd += ["--trace", str(trace_dir)]
        if setup_only:
            cmd.append("--setup-only")
        if candidates:
            cmd += ["--candidates", str(candidates)]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed("out of time before starting a sweep")
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"sweep {tag} timed out")
        if proc.returncode != 0:
            raise ChildFailed(f"sweep {tag} exited {proc.returncode}: {err.strip()[-2000:]}")
        rec = json.loads(rec_path.read_text())
        rec["setup_s"] = rec["setup_end"] - t_spawn
        text = None if setup_only else csv_path.read_text()
        return rec, text, trace_dir


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(name: str, seed: int, seconds: float, trace: bool, w: Workload | None = None,
        out_root: Path | None = None, min_trace_samples: int = MIN_TRACE_SAMPLES,
        setup_readings: int = SETUP_READINGS) -> dict:
    """One benchmark run: (result object printed as the last line, notes,
    failed checks).

    `w` replaces the named workload's inputs (the self-test shrinks them).
    """
    start = time.perf_counter()
    w = w or WORKLOADS[name]
    out_dir = (out_root or ROOT / ".perfbench") / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(out_dir, start + RUN_LIMIT_S, w.operations)
    errors: list[str] = []
    notes: list[str] = []

    def check(rec: dict, text: str, what: str) -> None:
        for e in checks.check_csv(text, w.sweep, w.values, w.schemes, w.scenarios,
                                  rec["channels"], rec["transmitters"]):
            errors.append(f"{what}: {e}")

    def wall(rec) -> float:
        return rec["t1"] - rec["t0"]

    setups, walls, cpus, rss, cands = [], [], [], [], []
    density = radius = None
    traces: list = []
    other = 2 if w.parallel == 1 else 1
    # summed walls of the paired sweeps behind the two ratio metrics
    paired = {"traced": 0.0, "untraced": 0.0, "serial": 0.0, "pooled": 0.0}
    rounds = 0
    try:
        for _ in range(setup_readings):
            rec, _, _ = bench.sweep(w.config(seed * SEED_STRIDE), setup_only=True)
            setups.append(rec["setup_s"])
        t_rounds = time.perf_counter()
        while rounds == 0 or time.perf_counter() - t_rounds < seconds or (
            trace and sum(t.scenarios for t in traces) < min_trace_samples
        ):
            master = seed * SEED_STRIDE + rounds
            conf = w.config(master)
            if trace and rounds % 2:
                # the untraced sweep on the same inputs goes before the traced
                # one on odd rounds and after it on even rounds
                base = bench.sweep(conf)
            rec, text, tdir = bench.sweep(conf, trace=trace, candidates=CANDIDATE_DRAWS)
            if not trace:
                base = (rec, text)
            elif rounds % 2 == 0:
                base = bench.sweep(conf)
            check(rec, text, f"round {rounds}")
            setups.append(rec["setup_s"])
            cands += rec["candidates"]
            density, radius = rec["density"], rec["radius"]
            if rounds == 0:
                notes.append(f"round 0 csv sha256 {sha256(text)} (master_seed {master})")
            if trace:
                traces.append(layers.SweepTrace(str(tdir), rec["t0"], rec["t1"], rec["points"]))
                n, worst, bad = checks.recompute_errors(traces[-1].checks)
                errors += [f"round {rounds}: {b}" for b in bad[:5]]
                if n == 0:
                    errors.append(f"round {rounds}: no allocate() results were recomputed")
                if text != base[1]:
                    errors.append(f"round {rounds}: traced CSV differs from the untraced CSV")
                paired["traced"] += wall(rec)
                paired["untraced"] += wall(base[0])
            else:
                walls.append(wall(rec))
                cpus.append(rec["cpu_s"])
                rss.append(rec["peak_rss_mb"])
            if trace or (rounds == 0 and w.parallel > 1):
                # the same inputs at the other pool setting: identical bytes
                alt = bench.sweep(w.config(master, parallel=other))
                if alt[1] != base[1]:
                    errors.append(f"round {rounds}: parallel={other} CSV differs "
                                  f"from parallel={w.parallel} CSV")
                serial, pooled = (base[0], alt[0]) if w.parallel == 1 else (alt[0], base[0])
                paired["serial"] += wall(serial)
                paired["pooled"] += wall(pooled)
            rounds += 1
    except ChildFailed as e:
        errors.append(str(e))
    errors += checks.check_candidates(cands, density, radius) if cands else []

    if trace:
        metrics = {}
        if traces:
            notes.append(layers.accounting(traces))
            n, worst, _ = checks.recompute_errors([c for t in traces for c in t.checks])
            notes.append(f"recomputed {n} throughputs, largest relative error {worst:.2e}")
            scen = [x for t in traces for x in t.scenario_ms]
            tl = layers.tail(scen)
            notes.append(f"{len(scen)} traced scenarios" + (
                f"; tail is p{tl[0]:.1f}" if tl else "; too few for a tail"))
            metrics = layers.layer_metrics(
                traces, paired["serial"] / paired["pooled"], paired["traced"] / paired["untraced"]
            )
        units = layers.UNITS
    else:
        metrics = {}
        if walls:
            metrics = {
                "scenarios_per_s": w.operations * len(walls) / sum(walls),
                "cpu_s": statistics.mean(cpus),
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(setups),
            }
            notes.append(
                f"{len(walls)} rounds; per-round scenarios/s "
                + ", ".join(f"{w.operations / x:.2f}" for x in walls)
            )
        units = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "notes": notes, "errors": errors}, indent=1)
    )
    return result, notes, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mgshare" / "__init__.py").is_file():
        print(f"no mgshare package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    res, notes, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    for line in errors:
        print(f"CHECK FAILED: {line}")
    for k, v in res["metrics"].items():
        print(f"{k:36s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
