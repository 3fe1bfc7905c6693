"""Command line interface.

Subcommands:
  run              sweep experiment from a config file, results to CSV
  count            search-space counting for a (groups, channels, mode) triple
  validate-lemmas  closed forms vs independent numeric oracles, pass/fail table
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .combinatorics import (
    distinct_count,
    enumerate_size_vectors,
    reference_count,
    reference_count_by_total,
    search_space_size,
)
from .harness import gap_report, parse_config, run_experiment, write_csv
from .outage import MCLink, mc_outage, outage_cu, outage_mg
from .params import db_to_linear
from .power import cap_root_residual, floor_root_comparison
from .seeds import rng_for


def _error(e: Exception | str) -> int:
    """Report bad input on stderr, as argparse reports bad arguments."""
    print(f"mgshare: error: {e}", file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unwritable(path: str) -> str | None:
    """Why results cannot be written to path, or None if its directory
    exists and is writable (and path itself is not a directory)."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return f"no such directory {directory!r}"
    if os.path.isdir(path):
        return "it is a directory"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory!r} is not writable"
    return None


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        return _error(f"cannot read config {args.config!r}: {e.strerror}")
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.base = replace(cfg.base, master_seed=args.seed)
        if args.scenarios is not None:
            cfg.n_scenarios = args.scenarios
        if args.parallel is not None:
            cfg.parallelism = args.parallel
        if args.out is not None:
            cfg.output_path = args.out
        cfg.validate()
    except ValueError as e:
        return _error(e)
    problem = _unwritable(cfg.output_path)
    if problem:
        return _error(f"cannot write results to {cfg.output_path!r}: {problem}")
    rows = run_experiment(cfg, timing=args.timing)
    try:
        write_csv(cfg.sweep_variable, rows, cfg.output_path)
    except OSError as e:
        return _error(e)
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    # a point whose every scenario is degenerate writes means of 0, not a failure
    for value in dict.fromkeys(r.sweep_value for r in rows if r.n_degenerate == cfg.n_scenarios):
        print(
            f"mgshare: warning: {cfg.sweep_variable} = {value!r}: all {cfg.n_scenarios} "
            "scenarios are degenerate (no group kept a receiver), so its means are 0",
            file=sys.stderr,
        )
    report = gap_report(rows)
    if report:
        print(report)
    return 0


def _cmd_count(args) -> int:
    G, C, mode = args.groups, args.channels, args.mode
    try:
        vectors = enumerate_size_vectors(G, C, mode)
    except ValueError as e:
        return _error(e)
    print(f"G={G} C={C} mode={mode}")
    print(f"size vectors: {len(vectors)}")
    for v in vectors:
        print(f"  {list(v)}")
    by_q = reference_count_by_total(G, C, mode)
    print(f"selection count (ordered-pick rule): {reference_count(G, C, mode)}")
    for q in sorted(by_q):
        print(f"  total size {q}: {by_q[q]}")
    print(f"distinct families: {distinct_count(G, C, mode)}")
    print(f"search space with channel matching: {search_space_size(G, C, mode)}")
    return 0


def _check(name: str, value: float, bound: float, detail: str) -> bool:
    ok = value <= bound
    print(f"{'PASS' if ok else 'FAIL'}  {name:42s} {detail}")
    return ok


def _cmd_validate(args) -> int:
    trials = args.trials
    ok = True

    gamma_25db = db_to_linear(25.0)
    gamma_6db = db_to_linear(6.0)

    closed = outage_cu(2e-5, 1.0, 1.0, 200.0, gamma_6db)
    est = mc_outage(
        MCLink(kind="cu", mg_density=2e-5, p_g=1.0, p_c=1.0, link_d=200.0,
               threshold=gamma_6db, sim_radius=3000.0),
        trials, rng_for(778, 2),
    )
    err = abs(closed - est.outage)
    ok &= _check("cu outage closed form vs monte carlo", err, 0.05,
                 f"|{closed:.4f} - {est.outage:.4f}| = {err:.4f} <= 0.05")

    closed = outage_mg(2e-5, 2e-5, 1.0, 1.0, 50.0, 25.0, gamma_25db)
    est = mc_outage(
        MCLink(kind="mg", cu_density=2e-5, mg_density=2e-5, p_c=1.0, p_g=1.0,
               guard=50.0, link_d=25.0, threshold=gamma_25db, sim_radius=3000.0),
        trials, rng_for(777, 1),
    )
    err = abs(closed - est.outage)
    ok &= _check("group outage closed form vs monte carlo", err, 0.10,
                 f"|{closed:.4f} - {est.outage:.4f}| = {err:.4f} <= 0.10")

    rng = rng_for(4100)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, cap_root_residual(
            mg_density=float(rng.uniform(1e-7, 1e-4)),
            p_c=float(rng.uniform(0.05, 2.0)),
            d_cb=float(rng.uniform(20.0, 450.0)),
            threshold=float(10.0 ** rng.uniform(-0.5, 2.0)),
            outage_budget=float(rng.uniform(0.02, 0.5)),
        ))
    ok &= _check("power cap inverts cu outage exactly", worst, 1e-9,
                 f"max rel residual over 100 points = {worst:.2e} <= 1e-9")

    rng = rng_for(4200)
    sides = 0
    total = 0
    for _ in range(50):
        lam = float(rng.uniform(1e-7, 1e-6))
        d = float(rng.uniform(5.0, 30.0))
        budget = float(rng.uniform(0.05, 0.3))
        closed_floor, root = floor_root_comparison(
            lam, lam, 1.0, 50.0, d, gamma_25db, budget
        )
        if root is None or not np.isfinite(closed_floor):
            continue
        total += 1
        at_floor = outage_mg(lam, lam, 1.0, closed_floor, 50.0, d, gamma_25db)
        if (closed_floor >= root) == (at_floor <= budget + 1e-9):
            sides += 1
    bad = total - sides
    ok &= _check("power floor lands on the budget's side", float(bad), 0.0,
                 f"{sides}/{total} points consistent")

    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgshare",
        description="Multicast channel sharing simulator and search harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep experiment from a config file")
    p_run.add_argument("--config", required=True, help="key=value config path")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out", help="override the output CSV path")
    p_run.add_argument("--parallel", type=int,
                       help="worker process count (capped at scenarios and CPUs)")
    p_run.add_argument("--scenarios", type=int, help="override scenario count")
    p_run.add_argument("--timing", action="store_true",
                       help="fill wall_ms (breaks byte-for-byte determinism)")
    p_run.set_defaults(fn=_cmd_run)

    p_count = sub.add_parser("count", help="search-space sizes for (G, C, mode)")
    p_count.add_argument("groups", type=int)
    p_count.add_argument("channels", type=int)
    p_count.add_argument("--mode", default="all",
                         help="all | almost_equal | equal | fixed(n)")
    p_count.set_defaults(fn=_cmd_count)

    p_val = sub.add_parser(
        "validate-lemmas",
        help="check closed forms against independent numeric oracles",
    )
    p_val.add_argument("--trials", type=_positive_int, default=20000,
                       help="Monte Carlo realizations per check")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
