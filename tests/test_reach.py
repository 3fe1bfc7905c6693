"""Every function and method of the package is reached by a command.

Each `mgshare` subcommand runs in this process under a call-only trace: the
three kinds of sweep (one that draws per point, one whose points share a
draw, and an n_per_channel sweep), `count`, `validate-lemmas` and a refused
config. A module-level function or method that none of them enters is
either listed in UNREACHED, with the code that keeps it, or deleted.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import mgshare
from mgshare import cli
from mgshare.cli import main as cli_main

# Entered by no command, each kept for the code named.
UNREACHED = {
    "combinatorics.enumerate_families": "the acceptance gates cross-check the family counts with it",
    "harness.winning_combination_histogram": "the acceptance gates read the winner support from it",
    "params.SimParams.path_loss_exponent": "perfbench recomputes throughput from it",
    "params.SimParams.bandwidth_hz": "perfbench recomputes throughput from it",
}

PACKAGE = Path(mgshare.__file__).parent

RUNS = [
    # every preset plus the grid ascent and a greedy mode of its own; D moves the draw
    "sweep = D\nsweep_values = 30, 60\nscenarios = 2\nschemes = optimal, almost_equal, equal, "
    "fixed2, heuristic, fixed_heuristic, all:exhaustive:grid(2), almost_equal:greedy\n",
    # P_G points share a draw, and fixed2 admits no family of 5 groups: CU-only
    "sweep = P_G\nsweep_values = 10, 20\nscenarios = 2\nschemes = fixed2, optimal\nnum_groups = 5\n",
    "sweep = n_per_channel\nsweep_values = 1, 2\nscenarios = 2\nschemes = fixed_heuristic\n",
]
# fixed2 admits no family of 7 groups on 10^7 channels, and its CU-only value
# table would hold 1.28e9 cells
REFUSED = "sweep = D\nsweep_values = 50\nschemes = fixed2\nnum_channels = 10000000\n"


def _modules() -> dict:
    return {
        info.name: importlib.import_module(f"mgshare.{info.name}")
        for info in pkgutil.iter_modules(mgshare.__path__)
    }


def _package_functions() -> dict:
    """Code object -> "module.name" or "module.Class.name" of every function
    and method defined in the package, properties and cached functions
    included."""
    out = {}
    for module_name, module in _modules().items():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", m) for attr, m in vars(obj).items()]
            for qualname, member in members:
                for attr in ("fget", "func", "__func__", "__wrapped__"):
                    member = getattr(member, attr, member)
                code = getattr(member, "__code__", None)
                if code is not None and Path(code.co_filename).parent == PACKAGE:
                    out[code] = f"{module_name}.{qualname}"
    return out


def _run_commands(tmp_path, capsys, monkeypatch) -> None:
    for i, text in enumerate(RUNS):
        conf = tmp_path / f"{i}.conf"
        conf.write_text(text)
        assert cli_main(["run", "--config", str(conf), "--out", str(tmp_path / f"{i}.csv")]) == 0
    assert cli_main(["count", "7", "3"]) == 0
    assert cli_main(["validate-lemmas", "--trials", "200"]) == 0
    conf = tmp_path / "refused.conf"
    conf.write_text(REFUSED)
    with monkeypatch.context() as m:
        # were the config not refused, its sweep would not start
        m.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
        assert cli_main(["run", "--config", str(conf)]) == 2
    capsys.readouterr()


def test_every_function_is_reached_by_a_command(tmp_path, capsys, monkeypatch):
    functions = _package_functions()
    # a cached function's body runs only on a miss, so start every cache empty
    for module in _modules().values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)  # no local trace: calls only

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _run_commands(tmp_path, capsys, monkeypatch)
    finally:
        sys.settrace(previous)
    never = sorted(name for code, name in functions.items() if code not in entered)
    assert never == sorted(UNREACHED)
