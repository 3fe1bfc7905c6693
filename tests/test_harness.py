"""Config parsing, sweep plumbing, CSV output, and run determinism."""

import math
import multiprocessing
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare import cli, harness
from mgshare.allocation import SchemeConfig, build_context
from mgshare.cli import main as cli_main
from mgshare.geometry import generate_scenario
from mgshare.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    apply_sweep,
    db_gap,
    format_rows,
    gap_report,
    parse_config,
    run_experiment,
    winning_combination_histogram,
    write_csv,
)
from mgshare.params import SimParams

MINIMAL = """
# comment line
sweep = D
sweep_values = 30, 50
schemes = optimal, heuristic
scenarios = 4
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.sweep_variable == "D"
    assert cfg.sweep_values == (30.0, 50.0)
    assert cfg.schemes == ("optimal", "heuristic")
    assert cfg.n_scenarios == 4
    assert cfg.parallelism == 1
    assert cfg.base == SimParams()
    assert cfg.base.num_channels == 3 and cfg.base.num_groups == 7
    assert cfg.base.path_loss_exponent == 4.0
    assert cfg.base.max_cu_power_dbm == 30.0 and cfg.base.mg_sir_threshold_db == 25.0


def test_parse_sets_each_key_from_its_field():
    """Each harness key sets its ExperimentConfig field, and each SimParams
    field is a key parsed as the type the field declares."""
    cfg = parse_config(
        "sweep = P_G\nsweep_values = -10, 20\nschemes = optimal, , fixed2\nscenarios = 7\n"
        "out = runs/x.csv\nparallel = 3\ncell_radius_m = 450\nmaster_seed = 99\n"
    )
    assert cfg == ExperimentConfig(
        base=SimParams(cell_radius_m=450.0, master_seed=99),
        sweep_variable="P_G",
        sweep_values=(-10.0, 20.0),
        schemes=("optimal", "fixed2"),
        n_scenarios=7,
        output_path="runs/x.csv",
        parallelism=3,
    )
    defaults = SimParams()
    for f in fields(SimParams):
        default = getattr(defaults, f.name)
        value = getattr(parse_config(MINIMAL + f"{f.name} = {default!r}\n").base, f.name)
        assert value == default and type(value) is type(default), f.name
        if isinstance(default, int):
            with pytest.raises(ConfigError, match=f"bad value for '{f.name}': '{default}.0'"):
                parse_config(MINIMAL + f"{f.name} = {default}.0\n")


def test_parse_errors_are_named():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(MINIMAL + "bogus = 1\n")
    # a retired key is refused rather than silently ignored
    with pytest.raises(ConfigError, match="unknown key 'num_scenarios'"):
        parse_config(MINIMAL + "num_scenarios = 1000\n")
    with pytest.raises(ConfigError, match="sweep, sweep_values, schemes"):
        parse_config("")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "sweep = R\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(MINIMAL + "cell_radius_m = big\n")
    # the harness's own counts are named too, not reported as int() errors
    with pytest.raises(ConfigError, match=re.escape("bad value for 'scenarios': 'many'")):
        parse_config(MINIMAL.replace("scenarios = 4", "scenarios = many"))
    with pytest.raises(ConfigError, match=re.escape("bad value for 'parallel': '2.5'")):
        parse_config(MINIMAL + "parallel = 2.5\n")
    with pytest.raises(ConfigError, match="sorted"):
        parse_config("sweep = D\nsweep_values = 50, 30\nschemes = optimal\n")
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config("sweep = D\nsweep_values = 30\nschemes = optimal:extra:bits:more\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("sweep D\n")


def test_comment_starts_at_line_start_or_after_whitespace():
    cfg = parse_config(
        "sweep = D   # exclusion radius\n"
        "sweep_values = 30, 50\t# metres\n"
        "schemes = optimal\n"
        "out = runs/a#b.csv # kept up to the space\n"
    )
    assert cfg.sweep_variable == "D" and cfg.sweep_values == (30.0, 50.0)
    assert cfg.output_path == "runs/a#b.csv"


def test_output_path_must_name_a_file(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="out must name a file"):
        _tiny_config(output_path="").validate()
    # the comment that empties it is caught when the file is parsed
    with pytest.raises(ConfigError, match="out must name a file"):
        parse_config(MINIMAL + "out = #x.csv\n")
    # any other path is written as given, whitespace and "#" included
    conf = tmp_path / "one.conf"
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nscenarios = 1\n")
    monkeypatch.chdir(tmp_path)
    for path in ("a #b.csv", " lead.csv"):
        assert cli_main(["run", "--config", str(conf), "--out", path]) == 0
        assert (tmp_path / path).read_text().startswith(CSV_HEADER + "\n")


def test_apply_sweep_variables():
    base = SimParams()
    optimal, fixed2 = SchemeConfig("all", "exhaustive"), SchemeConfig("fixed(2)", "exhaustive")
    schemes = (optimal, fixed2)
    p, s = apply_sweep(base, "D", 75.0, schemes)
    assert p.exclusion_radius_m == 75.0 and s == schemes
    p, _ = apply_sweep(base, "R", 300.0, schemes)
    assert p.cell_radius_m == 300.0
    p, _ = apply_sweep(base, "R_c_min", 1.5, schemes)
    assert p.cu_min_rate_bps_hz == 1.5
    p, _ = apply_sweep(base, "P_G", 21.0, schemes)
    assert p.max_mg_power_dbm == 21.0
    p, _ = apply_sweep(base, "lambda_g", 1e-5, schemes)
    assert p.group_density_per_m2 == 1e-5
    assert p.num_groups == round(1e-5 * math.pi * 500.0**2)
    p, s = apply_sweep(base, "n_per_channel", 3, schemes)
    assert p == base
    assert s == (optimal, SchemeConfig("fixed(3)", "exhaustive", "max_feasible"))
    # spelled-out schemes keep their method and policy; other modes pass through
    tokens = ("fixed(2):greedy:grid(2)", "fixed_heuristic", "all:greedy")
    _, s = apply_sweep(base, "n_per_channel", 4, tuple(map(SchemeConfig.from_token, tokens)))
    assert s == (
        SchemeConfig("fixed(4)", "greedy", "grid(2)"),
        SchemeConfig("fixed(4)", "greedy", "max_feasible"),
        SchemeConfig("all", "greedy"),
    )


def _validates(**kw) -> bool:
    kw.setdefault("schemes", ("optimal",))
    try:
        ExperimentConfig(**kw).validate()
    except ConfigError:
        return False
    return True


def test_config_validate_rejects_bad_shapes():
    bad = [
        dict(sweep_variable="Q", sweep_values=(1,)),
        dict(sweep_values=()),
        dict(sweep_values=(1,), schemes=()),
        dict(sweep_values=(1,), n_scenarios=0),
        # sweep points are checked too, before any scenario runs
        dict(sweep_values=(50.0, 600.0)),  # D = 600 m covers the 500 m cell
        dict(sweep_values=(math.nan,)),
        dict(sweep_values=(50.0, math.inf)),
        dict(base=SimParams(exclusion_radius_m=math.nan), sweep_variable="P_G", sweep_values=(20.0,)),
        # 1.5e-5 per m^2 derives 12 transmitters, past the exhaustive limit
        dict(sweep_variable="lambda_g", sweep_values=(1e-5, 1.5e-5)),
        dict(base=SimParams(num_channels=6), sweep_values=(50.0,)),
        # five groups on 30 channels: 20,641,771 matchings per family
        dict(base=SimParams(num_channels=30, num_groups=5), sweep_values=(50.0,)),
        dict(base=SimParams(num_channels=7, num_groups=4), sweep_values=(50.0,)),
        # n_per_channel is a subset size, so 2.5 is refused, not truncated
        dict(sweep_variable="n_per_channel", sweep_values=(2.0, 2.5), schemes=("fixed2",)),
        # a repeated value writes the same rows twice
        dict(sweep_values=(50.0, 50.0)),
        # n_per_channel rewrites only fixed(n) schemes: without one every point is the same
        dict(sweep_variable="n_per_channel", sweep_values=(2.0, 3.0), schemes=("optimal", "heuristic")),
    ]
    assert [kw for kw in bad if _validates(**kw)] == []
    # the greedy search takes 12 transmitters on 3 channels, past the exhaustive limit
    assert _validates(sweep_variable="lambda_g", sweep_values=(1.5e-5,), schemes=("heuristic",))
    # six channels but four groups: 1,045 matchings, fewer than 5 on 5 channels
    assert _validates(base=SimParams(num_channels=6, num_groups=4), sweep_values=(50.0,))
    assert _validates(sweep_variable="n_per_channel", sweep_values=(2.0, 3.0), schemes=("fixed2",))
    assert _validates(
        sweep_variable="n_per_channel", sweep_values=(2.0, 3.0), schemes=("optimal", "fixed2")
    )
    # fixed(n) needs n * min(C, G) groups: with no family these run CU-only,
    # so neither guard counts a search that never runs
    assert _validates(
        base=SimParams(num_channels=30, num_groups=7), sweep_values=(50.0,), schemes=("fixed(7):greedy",)
    )
    assert _validates(
        base=SimParams(num_channels=30, num_groups=5), sweep_values=(50.0,), schemes=("fixed2",)
    )
    # the path loss exponent is a model constant and rates are in bit/s/Hz:
    # neither is a setting
    with pytest.raises(ConfigError, match="unknown key 'path_loss_exponent'"):
        parse_config(MINIMAL + "path_loss_exponent = 4\n")
    with pytest.raises(ConfigError, match="unknown key 'bandwidth_hz'"):
        parse_config(MINIMAL + "bandwidth_hz = 2\n")


def test_sim_params_validate_refuses_range_gaps():
    bad = [
        # each of these used to pass and then raise inside the first scenario
        dict(receiver_density_per_m2=-1e-3),
        dict(cu_min_rate_bps_hz=5000.0),  # 2^5000 - 1 overflows
        dict(exclusion_radius_m=0.0),  # the power floor needs a positive guard
        dict(exclusion_radius_m=0.5),
        dict(max_mg_power_dbm=4000.0),
        dict(cu_density_per_m2=-1e-6),
        dict(group_density_per_m2=-1e-6),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            SimParams(**kw).validate()
    SimParams(exclusion_radius_m=1.0, receiver_density_per_m2=0.0).validate()


_DB = st.floats(-40.0, 60.0)
_SIM_RANGES = dict(
    cell_radius_m=st.floats(20.0, 800.0),
    exclusion_radius_m=st.floats(1.0, 200.0),
    num_channels=st.integers(1, 4),
    num_groups=st.integers(0, 7),
    receiver_density_per_m2=st.floats(0.0, 1e-2),
    assoc_min_rx_power_dbm=st.floats(-60.0, 10.0),
    assoc_ref_power_dbm=st.floats(-10.0, 60.0),
    max_cu_power_dbm=_DB,
    max_mg_power_dbm=_DB,
    cu_sir_threshold_db=_DB,
    mg_sir_threshold_db=_DB,
    cu_min_rate_bps_hz=st.floats(0.0, 10.0),
    cu_outage_budget=st.floats(1e-3, 0.999),
    mg_outage_budget=st.floats(1e-3, 0.999),
    cu_density_per_m2=st.floats(0.0, 1e-3),
    group_density_per_m2=st.floats(0.0, 1e-3),
    master_seed=st.integers(0, 2**64 - 1),
)
# each case pushes one field to an edge or out of range
_SIM_EDGES = [
    ("cell_radius_m", 0.0), ("exclusion_radius_m", 0.0), ("exclusion_radius_m", 1e-300),
    ("exclusion_radius_m", 0.999), ("num_channels", 0), ("num_groups", -1),
    ("receiver_density_per_m2", -1e-3), ("cu_density_per_m2", -1e-6),
    ("group_density_per_m2", -1e-6), ("max_cu_power_dbm", 4000.0), ("max_mg_power_dbm", 4000.0),
    ("assoc_ref_power_dbm", 4000.0), ("assoc_min_rx_power_dbm", -4000.0),
    ("mg_sir_threshold_db", 4000.0), ("cu_min_rate_bps_hz", 3000.0),
    ("cu_outage_budget", 1.0), ("mg_outage_budget", 0.0), ("receiver_density_per_m2", 1e14),
]


_IN_RANGE = st.builds(SimParams, **_SIM_RANGES)


@pytest.mark.parametrize("edge", [None] + _SIM_EDGES, ids=str)
@settings(max_examples=10, deadline=None)
@given(params=_IN_RANGE)
def test_valid_sim_params_generate_and_build(params, edge):
    """Whatever validate() accepts samples a scenario and builds its context."""
    if edge is not None:
        params = replace(params, **{edge[0]: edge[1]})
    try:
        params.validate()
    except ValueError:
        return
    scenario = generate_scenario(params, 0)
    if not scenario.degenerate:
        build_context(scenario)


def _tiny_config(**kw):
    kw.setdefault("base", SimParams())
    kw.setdefault("sweep_variable", "D")
    kw.setdefault("sweep_values", (40.0,))
    kw.setdefault("schemes", ("optimal", "almost_equal", "equal"))
    kw.setdefault("n_scenarios", 6)
    return ExperimentConfig(**kw)


def test_run_experiment_rows_and_dominance():
    rows = run_experiment(_tiny_config())
    assert len(rows) == 3
    by_name = {r.scheme_name: r for r in rows}
    assert by_name["optimal"].mean_throughput >= by_name["almost_equal"].mean_throughput
    assert by_name["almost_equal"].mean_throughput >= by_name["equal"].mean_throughput
    for r in rows:
        assert r.mean_throughput >= 0.0
        assert 0 <= r.n_degenerate <= 6
        assert r.wall_ms == 0.0


# two values per sweep variable, valid at the default base parameters (an
# n_per_channel sweep also needs a fixed(n) scheme)
_SWEEPS = {
    "D": (30.0, 60.0),
    "R": (300.0, 500.0),
    "R_c_min": (0.0, 1.5),
    "P_G": (10.0, 20.0),
    "lambda_g": (5e-6, 1e-5),
    "n_per_channel": (1.0, 2.0),
}


def test_run_is_deterministic_and_parallel_invariant():
    # every sweep variable, those whose points share a draw included
    for variable, values in _SWEEPS.items():
        cfg1 = _tiny_config(
            sweep_variable=variable, sweep_values=values,
            schemes=("fixed2", "heuristic"), n_scenarios=3,
        )
        cfg2 = replace(cfg1, parallelism=2)
        a = format_rows(variable, run_experiment(cfg1))
        b = format_rows(variable, run_experiment(cfg1))
        c = format_rows(variable, run_experiment(cfg2))
        assert a == b == c, variable


def test_one_worker_pool_per_run(monkeypatch):
    """A pooled sweep opens one pool for all its points, has joined every
    worker by the time it returns, and writes the serial run's bytes."""
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            opened.append(self)
            super().__init__(*a, **kw)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # the pool is capped at the CPUs
    cfg = _tiny_config(sweep_values=(20.0, 50.0, 80.0), schemes=("optimal",), n_scenarios=4)
    serial = format_rows("D", run_experiment(cfg))
    assert not opened
    pooled = format_rows("D", run_experiment(replace(cfg, parallelism=2)))
    assert len(opened) == 1
    assert not multiprocessing.active_children()
    assert pooled == serial
    # the winner histogram walks the same sweep-point loop
    hist = winning_combination_histogram(replace(cfg, parallelism=2))
    assert len(opened) == 2
    assert not multiprocessing.active_children()
    assert hist == winning_combination_histogram(cfg)


def test_worker_count_is_capped_at_scenarios_and_cpus(monkeypatch):
    """`parallel` sizes the pool and the blocks at most at the scenario count
    and the CPU count, and a count of one runs serially. The fake executor
    maps in the test's own process, so no worker process starts."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers, self.blocks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            self.blocks += [(lo, hi) for *_, lo, hi in blocks]
            return map(fn, blocks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    cfg = _tiny_config(sweep_values=(50.0,), schemes=("optimal",), n_scenarios=3)
    serial = format_rows("D", run_experiment(cfg))
    for parallel, cpus, workers in [
        (8, 64, 3),  # capped at the 3 scenarios
        (8, 2, 2),  # capped at the CPU count
        (10**9, 2, 2),
        (2, 1, 1),
        (3, None, 1),  # an unknown CPU count runs serially
    ]:
        pools.clear()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert format_rows("D", run_experiment(replace(cfg, parallelism=parallel))) == serial
        if workers == 1:
            assert pools == []
        else:
            assert [p.max_workers for p in pools] == [workers]
            assert len(pools[0].blocks) == workers
            assert pools[0].blocks[0][0] == 0 and pools[0].blocks[-1][1] == 3


def test_sweep_points_share_one_scenario_stream():
    # A sweep value must reproduce its rows exactly at any position in the
    # sweep, whether its scenarios were drawn for it or shared with other
    # points: every point scores the same scenarios, so only the parameters
    # tell points apart.
    for variable, values in _SWEEPS.items():
        cfg = _tiny_config(
            sweep_variable=variable, sweep_values=values,
            schemes=("optimal", "fixed_heuristic"), n_scenarios=3,
        )
        rows = run_experiment(cfg)
        for i, value in enumerate(values):
            alone = run_experiment(replace(cfg, sweep_values=(value,)))
            assert rows[2 * i:2 * i + 2] == alone, (variable, value)
        assert any(r.mean_throughput > 0.0 for r in rows)


@pytest.mark.parametrize(
    "variable, draws, contexts",
    [
        # the power and the rate floor leave the draw: one per scenario, a context per point
        ("P_G", 1, 2),
        ("R_c_min", 1, 2),
        # n_per_channel leaves every parameter: one context per scenario
        ("n_per_channel", 1, 1),
        # the others move the draw: one per scenario and point
        ("D", 2, 2),
        ("R", 2, 2),
        ("lambda_g", 2, 2),
    ],
)
def test_points_sharing_a_scenario_key_draw_each_scenario_once(
    monkeypatch, variable, draws, contexts
):
    calls = {"draw": 0, "context": 0}

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)

        return wrapper

    monkeypatch.setattr(harness, "generate_scenario", counted("draw", harness.generate_scenario))
    monkeypatch.setattr(harness, "build_context", counted("context", harness.build_context))
    n = 4
    cfg = _tiny_config(
        sweep_variable=variable, sweep_values=_SWEEPS[variable], schemes=("fixed2",), n_scenarios=n
    )
    assert all(r.n_degenerate == 0 for r in run_experiment(cfg))
    assert (calls["draw"], calls["context"]) == (draws * n, contexts * n)


def test_timing_flag_fills_wall_ms():
    """Every point's wall_ms is its own summed evaluation time, above 0
    serial or pooled, for points that share a draw and for points that do
    not."""
    cfg = _tiny_config(
        sweep_variable="P_G", sweep_values=(-10.0, 30.0), schemes=("optimal",), n_scenarios=3
    )
    for parallel in (1, 2):
        rows = run_experiment(replace(cfg, parallelism=parallel), timing=True)
        assert len(rows) == 2
        assert all(r.wall_ms > 0.0 for r in rows)
    # D points draw their own scenarios
    rows = run_experiment(_tiny_config(schemes=("optimal",), n_scenarios=2), timing=True)
    assert all(r.wall_ms > 0.0 for r in rows)


def test_csv_format(tmp_path):
    rows = run_experiment(_tiny_config(schemes=("optimal",), n_scenarios=2))
    text = format_rows("D", rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("D,40,optimal,")
    mean_field = lines[1].split(",")[3]
    assert len(mean_field.replace(".", "").replace("-", "").lstrip("0")) <= 7
    out = tmp_path / "r.csv"
    write_csv("D", rows, str(out))
    assert out.read_text() == text
    with pytest.raises(OSError, match="no/such"):
        write_csv("D", rows, str(tmp_path / "no" / "such" / "r.csv"))


def test_degenerate_scenarios_counted_not_resampled():
    base = SimParams(receiver_density_per_m2=1e-12)
    rows = run_experiment(_tiny_config(base=base, schemes=("optimal",), n_scenarios=4))
    assert rows[0].n_degenerate == 4
    assert rows[0].mean_throughput == 0.0 and rows[0].std_dev == 0.0


def test_histogram_counts_partition_valid_scenarios():
    cfg = _tiny_config(schemes=("optimal",), n_scenarios=8)
    hist = winning_combination_histogram(cfg)
    assert set(hist) == {40.0}
    counts = hist[40.0]
    rows = run_experiment(cfg)
    assert sum(counts.values()) == 8 - rows[0].n_degenerate
    for vector in counts:
        assert vector == tuple(sorted(vector, reverse=True))
        assert sum(vector) <= cfg.base.num_groups


def test_histogram_all_ones_when_groups_match_channels():
    cfg = _tiny_config(base=SimParams(num_groups=3), schemes=("optimal",), n_scenarios=8)
    for counts in winning_combination_histogram(cfg).values():
        for vector in counts:
            assert all(x == 1 for x in vector)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "2", "3"], "cannot form 3 non-empty subsets from 2 groups"),
        (["count", "7", "3", "--mode", "bogus"], "unknown selection mode 'bogus'"),
        (["run", "--config", "{conf}"], "exhaustive search refused for G=11"),
    ],
)
def test_cli_reports_bad_input_without_traceback(tmp_path, capsys, argv, message):
    conf = tmp_path / "bad.conf"
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nnum_groups = 11\n")
    assert cli_main([a.format(conf=conf) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("mgshare: error: ") and message in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "text",
    [
        "sweep = D\nsweep_values = 50\nnum_groups = 40\n",
        # the second point derives 79 transmitters
        "sweep = lambda_g\nsweep_values = 1e-5, 1e-4\n",
        # one greedy_match call would hold 768,212 table rows of 129 entries
        "sweep = D\nsweep_values = 50\nnum_channels = 30\n",
        # refused from G alone: 2^1000000 is not built, nor printed in full
        "sweep = D\nsweep_values = 50\nnum_groups = 1000000\n",
    ],
)
def test_cli_run_refuses_oversized_greedy_configs(tmp_path, capsys, monkeypatch, text):
    conf = tmp_path / "big.conf"
    conf.write_text(text + "schemes = heuristic\nscenarios = 2\n")
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
    assert cli_main(["run", "--config", str(conf)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("mgshare: error: ") and "greedy search refused" in err
    # 2,532,530 families of 3 subsets: the `all` table of 12 groups on 3 channels
    assert "past the limit of 7597590" in err
    assert "Traceback" not in err and out == ""


def test_cli_run_refuses_a_cu_only_value_table_past_the_cell_limit(tmp_path, capsys, monkeypatch):
    """fixed2 admits no family of 7 groups on 10^7 channels, so it runs
    CU-only, and its first scenario would build a value table of 1.28e9
    cells."""
    conf = tmp_path / "wide.conf"
    conf.write_text(
        "sweep = D\nsweep_values = 50\nschemes = fixed2\nnum_channels = 10000000\nnum_groups = 7\n"
    )
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
    assert cli_main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mgshare: error: D = 50.0: CU-only run refused for G=7, C=10000000")
    assert "10000000 x 2^7 cells, past the limit of 7597590" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # the 500 m point runs before the second point's Poisson draw would fail
        ("sweep = R\nsweep_values = 500, 1e11\n", "R = 100000000000.0: "),
        ("sweep = D\nsweep_values = 50\nreceiver_density_per_m2 = 1e14\n", "error: receiver_density"),
    ],
)
def test_cli_run_refuses_a_huge_candidate_count(tmp_path, capsys, text, message):
    conf = tmp_path / "huge.conf"
    conf.write_text(text + "schemes = optimal\nscenarios = 1\n")
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("mgshare: error: ") and message in err
    assert "candidate receivers, past the limit of 100,000,000" in err
    assert "Traceback" not in err and out_text == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        # the benchmark's three workloads
        "sweep = D\nsweep_values = 20, 30, 40, 50, 60, 70, 80, 90, 100\n"
        "schemes = optimal, almost_equal, equal, fixed2, heuristic, fixed_heuristic\n",
        "sweep = D\nsweep_values = 50\nschemes = optimal, heuristic\nnum_groups = 9\n",
        "sweep = P_G\nsweep_values = -10, 0, 10, 20, 30\nparallel = 2\nnum_groups = 5\n"
        "schemes = fixed2, fixed_heuristic, optimal, all:exhaustive:grid(3)\n",
        # the largest greedy size measured
        "sweep = D\nsweep_values = 50\nschemes = all:greedy\nnum_groups = 12\n",
    ],
)
def test_greedy_limit_admits_the_measured_sizes(text):
    parse_config(text).validate()


def test_cli_run_warns_on_a_wholly_degenerate_point(tmp_path, capsys):
    """A point where no scenario kept a receiver is named on stderr; the CSV
    and the exit code are those of any other run."""
    conf = tmp_path / "deg.conf"
    conf.write_text("sweep = D\nsweep_values = 20, 50\nschemes = optimal\nscenarios = 3\n"
                    "assoc_min_rx_power_dbm = 200\n")
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert out.read_text() == CSV_HEADER + "\nD,20,optimal,0,0,3,0\nD,50,optimal,0,0,3,0\n"
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"mgshare: warning: D = {v}: all 3 scenarios are degenerate "
        "(no group kept a receiver), so its means are 0"
        for v in ("20.0", "50.0")
    ]
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nscenarios = 2\n")
    assert cli_main(["run", "--config", str(conf), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_run_reports_a_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    assert cli_main(["run", "--config", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert err == f"mgshare: error: cannot read config {str(missing)!r}: No such file or directory\n"
    assert out == ""


def test_cli_run_override_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "ok.conf"
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nscenarios = 2\n")
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
    assert cli_main(["run", "--config", str(conf), "--parallel", "0"]) == 2
    assert capsys.readouterr().err == "mgshare: error: parallel must be at least 1\n"


def test_cli_run_checks_the_output_directory_before_the_sweep(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "ok.conf"
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nscenarios = 2\n")
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sweep started"))
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mgshare: error: cannot write results to {str(out)!r}: "
        f"no such directory {str(out.parent)!r}\n"
    )
    assert cli_main(["run", "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"mgshare: error: cannot write results to {str(tmp_path)!r}: it is a directory\n"
    )


def test_cli_run_reports_a_failed_write(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "ok.conf"
    conf.write_text("sweep = D\nsweep_values = 50\nschemes = optimal\nscenarios = 1\n")
    monkeypatch.setattr(cli, "_unwritable", lambda path: None)  # the directory goes away
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["run", "--config", str(conf), "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err == f"mgshare: error: cannot write results to {str(out)!r}: No such file or directory\n"
    assert out_text == ""


@pytest.mark.parametrize("trials", ["0", "-3", "many"])
def test_cli_validate_refuses_a_bad_trial_count(capsys, monkeypatch, trials):
    monkeypatch.setattr(cli, "mc_outage", lambda *a, **k: pytest.fail("checks started"))
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["validate-lemmas", "--trials", trials])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --trials" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "mode, counts",
    [
        ("all", [1841, 70, 210, 525, 735, 301, 1701, 11046]),
        ("almost_equal", [875, 70, 210, 315, 210, 70, 770, 5250]),
        ("equal", [280, 70, 210, 140, 1680]),
    ],
)
def test_cli_count_prints_the_search_space(capsys, mode, counts):
    assert cli_main(["count", "7", "3", "--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"G=7 C=3 mode={mode}"
    # the selection count, one line per total size, the families, the search space
    tail = lines[-len(counts):]
    assert [int(line.rsplit(": ", 1)[1]) for line in tail] == counts
    assert tail[0].startswith("selection count") and tail[-2].startswith("distinct families")


def test_cli_validate_passes_its_checks(capsys):
    assert cli_main(["validate-lemmas", "--trials", "2000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "all checks passed"
    assert len(out) == 5 and all(line.startswith("PASS  ") for line in out[:-1])


def test_db_gap_and_report():
    assert db_gap(2.0, 1.0) == pytest.approx(10.0 * math.log10(2.0))
    assert db_gap(1.0, 1.0) == 0.0
    assert math.isnan(db_gap(0.0, 1.0))
    rows = run_experiment(_tiny_config(schemes=("optimal", "heuristic"), n_scenarios=3))
    report = gap_report(rows)
    assert "optimal vs heuristic" in report and "dB" in report
