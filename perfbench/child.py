"""One `mgshare run` in a fresh interpreter, timed from inside.

    python3 perfbench/child.py --config sweep.conf --out results.csv \
        --record record.json [--trace DIR] [--setup-only] [--candidates N]

Runs ``mgshare.cli.main(["run", "--config", ..., "--out", ...])`` exactly as
the console script does, against the package under ``src/`` of the checkout
this file sits in. The only addition is a timer around the
``run_experiment`` call the CLI makes: its entry marks the end of set-up
(interpreter start, imports, config parse and validation) and its span is
the sweep. The record holds the perf_counter readings, the CPU seconds of
this process and its reaped pool workers over the sweep, and the peak
resident set of this process and of any worker.

--trace installs tracer.py before the run and writes spans to DIR.
--setup-only stops at the first scenario. --candidates N afterwards draws
N scenarios from the run's master seed (outside the timed sweep) and
records their candidate receiver counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(Exception):
    pass


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def import_package():
    """Import mgshare from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "mgshare" / "__init__.py").is_file():
        raise SystemExit(f"no mgshare package under {src}")
    sys.path.insert(0, str(src))
    import mgshare

    if Path(mgshare.__file__).resolve().parent != src / "mgshare":
        raise SystemExit(f"imported mgshare from {mgshare.__file__}, not {src}")
    return mgshare


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--candidates", type=int, default=0)
    args = ap.parse_args(argv)

    import_package()
    from mgshare import cli

    rec: dict = {}
    run_experiment = cli.run_experiment

    def timed_run_experiment(cfg, timing=False):
        rec["setup_end"] = time.perf_counter()
        if args.setup_only:
            raise SetupDone
        cpu0 = _cpu_s()
        rec["t0"] = time.perf_counter()
        rows = run_experiment(cfg, timing)
        rec["t1"] = time.perf_counter()
        rec["cpu_s"] = _cpu_s() - cpu0
        rec["points"] = len(cfg.sweep_values)
        rec["scenarios"] = cfg.n_scenarios
        rec["channels"] = cfg.base.num_channels
        rec["transmitters"] = cfg.base.num_groups
        rec["base"] = cfg.base
        return rows

    cli.run_experiment = timed_run_experiment
    tr = None
    if args.trace:
        import tracer

        tr = tracer.install(args.trace)
    try:
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    except SetupDone:
        rc = 0
    if tr is not None:
        tr.flush()
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    rec["peak_rss_mb"] = kb / 1024.0
    base = rec.pop("base", None)
    if args.candidates and base is not None:
        from mgshare.geometry import generate_scenario

        rec["candidates"] = [
            generate_scenario(base, i).candidate_receiver_count for i in range(args.candidates)
        ]
        rec["density"] = base.receiver_density_per_m2
        rec["radius"] = base.cell_radius_m
    with open(args.record, "w") as fh:
        json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
