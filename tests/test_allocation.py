"""Allocation layer: greedy matching pinned to its worked examples,
exhaustive search against a brute-force radio-layer oracle, and the exact
dominance relations the schemes must satisfy scenario by scenario."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare.allocation import (
    SCHEME_PRESETS,
    Assignment,
    EvalContext,
    SchemeConfig,
    allocate,
    assignment_patterns,
    build_context,
    greedy_match,
    matching_count,
    _admits_family,
    _exhaustive_best,
    _family_mask_array,
    _greedy_best,
)
from mgshare.combinatorics import distinct_count, enumerate_families, enumerate_size_vectors
from mgshare.geometry import generate_scenario
from mgshare.params import SimParams
from mgshare.seeds import child_seed
from oracles import (
    as_array,
    assignment_pairs,
    evaluate,
    exhaustive_best_table,
    greedy_best_loop,
    greedy_match_loop,
    greedy_rows_loop,
    silenced_throughput,
    stage2_matrix_direct,
    sum_throughput,
)


# ---------------------------------------------------------------------------
# greedy matching on synthetic matrices


def _match(m, row_ok):
    """greedy_match on the one family made of all of m's columns, as
    (slot, channel) pairs sorted by slot."""
    row = greedy_match(m, row_ok, np.arange(m.shape[1])[None, :])[0]
    return tuple((s, int(k)) for s, k in enumerate(row) if k >= 0)


def test_greedy_match_basic():
    # global minimum first: entry (0, 0) is smallest, then (1, 1) remains
    m = np.array([[1.0, 5.0], [4.0, 2.0]])
    assert _match(m, [True, True]) == ((0, 0), (1, 1))


def test_greedy_match_takes_global_minimum_not_row_order():
    # subset 0 prefers channel 0 (1 < 1.5) even though channel 1's column
    # would leave a cheap seat; subset 1 then pays the 9
    m = np.array([[1.0, 2.0], [1.5, 9.0]])
    assert _match(m, [True, True]) == ((0, 0), (1, 1))


def test_greedy_match_tie_breaks_low_channel_then_low_subset():
    m = np.full((2, 2), 3.0)
    assert _match(m, [True, True]) == ((0, 0), (1, 1))
    m2 = np.array([[7.0, 3.0], [3.0, 7.0]])
    # two 3.0 entries tie; the lower channel index wins the first pick
    assert _match(m2, [True, True]) == ((0, 1), (1, 0))
    # ties that compete for one channel or one subset decide the matching
    assert _match(np.array([[3.0, 3.0], [9.0, 9.0]]), [True, True]) == ((0, 0), (1, 1))
    assert _match(np.array([[3.0, 9.0], [3.0, 9.0]]), [True, True]) == ((0, 0), (1, 1))


def test_greedy_match_respects_closed_rows_and_leftovers():
    m = np.array([[1.0, 2.0, 0.5], [9.0, 8.0, 7.0]])
    pairs = _match(m, [False, True])
    assert len(pairs) == 1 and pairs[0][1] == 1
    assert pairs[0][0] == 2  # cheapest column of the only open row


# ---------------------------------------------------------------------------
# pattern and family enumeration


def test_assignment_patterns_count_and_order():
    pats = assignment_patterns(3, 3)
    assert pats.shape == (34, 3)    # 6 complete + 18 one-drop + 9 two-drop + 1
    assert not pats.flags.writeable
    assert pats[0].tolist() == [0, 1, 2]
    assert pats[5].tolist() == [2, 1, 0]
    assert pats[6].tolist() == [-1, 0, 1]  # slot 0 dropped first
    assert pats[-1].tolist() == [-1, -1, -1]
    sizes = (pats >= 0).sum(axis=1).tolist()
    assert sizes == sorted(sizes, reverse=True)
    for S in range(6):
        for C in range(1, 8):
            rows = assignment_patterns(S, C)
            # the exhaustive guard counts patterns in closed form
            assert matching_count(S, C) == len(rows)
            # the rows are the (slot, channel) pair patterns, in their order
            assert [
                tuple((s, k) for s, k in enumerate(row) if k >= 0) for row in rows.tolist()
            ] == list(assignment_pairs(S, C))


def test_assignment_patterns_fewer_subsets_than_channels():
    pats = assignment_patterns(2, 3)
    assert len(pats) == 6 + 2 * 3 + 1
    for row in pats:
        used = row[row >= 0]
        assert len(set(used.tolist())) == len(used)


MODES = ("all", "almost_equal", "equal", "fixed(1)", "fixed(2)", "fixed(3)")


@pytest.mark.parametrize("G", range(1, 11))
def test_family_mask_array_equals_enumerate_families(G):
    for C in range(1, min(G, 5) + 1):
        for mode in MODES:
            expected = [
                [sum(1 << g for g in blk) for blk in fam]
                for sizes in enumerate_size_vectors(G, C, mode)
                for fam in enumerate_families(range(G), sizes)
            ]
            arr = _family_mask_array(G, C, mode)
            assert arr.dtype == np.int64 and arr.shape == (len(expected), C)
            assert arr.tolist() == expected, (C, mode)
            assert len(arr) == distinct_count(G, C, mode)
            assert not arr.flags.writeable


def test_family_mask_arrays_are_disjoint_and_complete():
    arr = _family_mask_array(7, 3, "almost_equal")
    assert arr.shape[1] == 3
    for row in arr:
        combined = 0
        for m in row:
            assert combined & int(m) == 0
            combined |= int(m)
        sizes = sorted(bin(int(m)).count("1") for m in row)
        assert sizes[-1] - sizes[0] <= 1


# ---------------------------------------------------------------------------
# Assignment container


def test_assignment_rejects_overlap():
    with pytest.raises(ValueError):
        Assignment(channel_to_groups={0: frozenset({1, 2}), 1: frozenset({2})})


def test_assignment_array_round_trip():
    a = Assignment(channel_to_groups={0: frozenset({1}), 1: frozenset(), 2: frozenset({0, 3})})
    assert list(as_array(a, 4)) == [2, 0, -1, 2]
    assert a.assigned_groups == {0, 1, 3}


def test_scheme_config_validation():
    assert [f.name for f in fields(SchemeConfig)] == [
        "selection_mode", "assignment_method", "power_policy"
    ]
    SchemeConfig("all", "greedy", "grid(4)")
    with pytest.raises(ValueError):
        SchemeConfig(selection_mode="bogus")
    with pytest.raises(ValueError):
        SchemeConfig(assignment_method="simulated_annealing")
    with pytest.raises(ValueError):
        SchemeConfig(power_policy="grid(0)")


def test_scheme_from_token_presets_and_explicit():
    assert SchemeConfig.from_token("optimal") == SchemeConfig("all", "exhaustive")
    assert SchemeConfig.from_token("fixed_heuristic") == SchemeConfig("fixed(2)", "greedy")
    # every preset takes the default power policy
    assert {SchemeConfig.from_token(t).power_policy for t in SCHEME_PRESETS} == {"max_feasible"}
    # two parts take the default policy, three name it
    assert SchemeConfig.from_token("almost_equal:greedy") == SchemeConfig(
        "almost_equal", "greedy", "max_feasible"
    )
    s = SchemeConfig.from_token("all:exhaustive:grid(3)")
    assert s == SchemeConfig("all", "exhaustive", "grid(3)")
    assert s.grid_points == 3 and s.fixed_size is None
    assert SchemeConfig.from_token("fixed(3):greedy").fixed_size == 3
    assert SchemeConfig().grid_points is None
    for token in ("nope", "all", "all:exhaustive:grid(3):more"):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeConfig.from_token(token)
    with pytest.raises(ValueError, match="bad scheme 'all:annealing'"):
        SchemeConfig.from_token("all:annealing")
    with pytest.raises(FrozenInstanceError):
        s.selection_mode = "equal"
    # each method keeps its own size guard: 11 groups pass only the greedy one
    with pytest.raises(ValueError, match="exhaustive search refused for G=11"):
        SchemeConfig.from_token("optimal").check_size(11, 3)
    SchemeConfig.from_token("heuristic").check_size(11, 3)


# ---------------------------------------------------------------------------
# scenario fixtures


def _groups(mask, G):
    return frozenset(g for g in range(G) if int(mask) >> g & 1)


def _scenario(max_groups=7, min_groups=1, start=0, params=None):
    p = params or SimParams()
    for idx in range(start, start + 400):
        s = generate_scenario(p, idx)
        if not s.degenerate and min_groups <= len(s.groups) <= max_groups:
            return s
    raise RuntimeError("no scenario matched the group-count window")


# ---------------------------------------------------------------------------
# exhaustive search vs brute force through the radio layer


def test_exhaustive_assign_matches_radio_brute_force():
    """optimal is the best of every (family, channel matching) candidate
    the "all" mode admits, each scored by the radio-layer oracle; candidates
    that put every group on the same channel are scored once."""
    s = _scenario(max_groups=5, min_groups=3)
    ctx = build_context(s)
    assignment, _, tv = allocate(ctx, SchemeConfig())
    arrays = set()
    for masks in _family_mask_array(ctx.G, min(ctx.C, ctx.G), "all"):
        for row in assignment_patterns(len(masks), ctx.C).tolist():
            arr = [-1] * ctx.G
            for slot, k in enumerate(row):
                for g in range(ctx.G):
                    if k >= 0 and int(masks[slot]) >> g & 1:
                        arr[g] = k
            arrays.add(tuple(arr))
    best = max(silenced_throughput(ctx, np.array(a)) for a in arrays)
    assert tv == pytest.approx(best, rel=1e-12)
    assert evaluate(ctx, assignment) == pytest.approx(tv, rel=1e-12)


def test_exhaustive_guard_names_its_limits():
    s = _scenario(min_groups=11, max_groups=11, params=SimParams(num_groups=11))
    with pytest.raises(ValueError, match="at most 10 groups and 1546 matchings"):
        allocate(s, SchemeConfig())
    allocate(s, SchemeConfig(selection_mode="fixed(2)", assignment_method="greedy"))
    # five groups on 30 channels: 20,641,771 matchings per family
    s = _scenario(min_groups=5, max_groups=5, params=SimParams(num_channels=30, num_groups=5))
    with pytest.raises(ValueError, match="G=5, C=30 \\(20641771 channel matchings\\)"):
        allocate(s, SchemeConfig())
    # six channels pass with four groups: 1,045 matchings
    s = _scenario(min_groups=4, max_groups=4, params=SimParams(num_channels=6, num_groups=4))
    ctx = build_context(s)
    a, _, tv = allocate(ctx, SchemeConfig())
    assert tv >= ctx.baseline
    assert evaluate(ctx, a) == pytest.approx(tv, rel=1e-12)


def test_greedy_guard_names_its_limit():
    # seven groups on 30 channels: 768,212 table rows of 129 entries
    s = _scenario(min_groups=7, max_groups=7, params=SimParams(num_channels=30))
    with pytest.raises(ValueError, match="G=7, C=30, mode all: .* past the limit of 7597590"):
        allocate(s, SchemeConfig(assignment_method="greedy"))


@pytest.mark.parametrize(
    "scheme, params",
    [
        # fixed(7) needs 7 * min(30, G) groups; the greedy tables would hold 99,099,348 cells
        (SchemeConfig("fixed(7)", "greedy"), SimParams(num_channels=30)),
        # fixed(2) needs 2 * min(30, G) groups; 20,641,771 matchings per family
        (SchemeConfig("fixed(2)"), SimParams(num_channels=30, num_groups=5)),
    ],
    ids=["fixed7-greedy", "fixed2-exhaustive"],
)
def test_guards_pass_modes_that_admit_no_family(scheme, params):
    G = params.num_groups
    s = _scenario(min_groups=G, max_groups=G, params=params)
    ctx = build_context(s)
    assignment, powers, tv = allocate(ctx, scheme)
    assert tv == ctx.baseline
    assert not powers.mg_power_w.any()
    assert assignment.assigned_groups == frozenset() and assignment.unassigned_subsets == ()


def test_admits_family_equals_a_nonempty_family_table():
    for G in range(0, 9):
        for C in range(1, 7):
            for mode in ("all", "almost_equal", "equal", "fixed(1)", "fixed(2)", "fixed(3)"):
                table = _family_mask_array(G, min(C, G), mode) if G else ()
                assert _admits_family(G, C, mode) == (len(table) > 0), (G, C, mode)


# ---------------------------------------------------------------------------
# scheme dominance, exact per scenario


def _all_scheme_values(s):
    ctx = build_context(s)
    out = {}
    for mode in ("all", "almost_equal", "equal", "fixed(2)"):
        _, _, tv = allocate(ctx, SchemeConfig(selection_mode=mode))
        out[mode] = tv
    _, _, out["greedy"] = allocate(ctx, SchemeConfig(assignment_method="greedy"))
    return out


def test_dominance_chain_is_exact():
    """Every pair of nested search spaces is scored through one shared value
    table, so the dominance inequalities must hold in exact float compare,
    no tolerance."""
    checked = 0
    p = SimParams()
    for idx in range(200):
        s = generate_scenario(p, idx)
        if s.degenerate or len(s.groups) > 7:
            continue
        v = _all_scheme_values(s)
        assert v["all"] >= v["almost_equal"] >= v["equal"]
        if len(s.groups) >= 2 * s.params.num_channels:
            assert v["equal"] >= v["fixed(2)"]
        assert v["all"] >= v["greedy"]
        checked += 1
        if checked >= 12:
            break
    assert checked >= 12


def test_greedy_best_uses_same_table_as_exhaustive():
    s = _scenario(max_groups=6, min_groups=3)
    ctx = build_context(s)
    a, _, tv = allocate(ctx, SchemeConfig(assignment_method="greedy"))
    expect = ctx.baseline
    for k, gs in a.channel_to_groups.items():
        if gs:
            m = sum(1 << g for g in gs)
            expect += float(ctx.value[k, m]) - float(ctx.value[k, 0])
    assert tv == pytest.approx(expect, rel=1e-15)


# ---------------------------------------------------------------------------
# greedy search against the stage-2 matrix and matcher oracles


def test_greedy_assign_agrees_with_stage2_table():
    """allocate's greedy assignment is the greedy matching of its family on
    the stage-2 matrix recomputed from scratch, by the oracle's own matcher."""
    s = _scenario(max_groups=6, min_groups=3)
    ctx = build_context(s)
    a, _, _ = allocate(ctx, SchemeConfig("almost_equal", "greedy"))
    fams = _family_mask_array(ctx.G, min(ctx.C, ctx.G), "almost_equal")
    fi, row, _ = _greedy_best(ctx, fams)
    masks = [int(m) for m in fams[fi]]

    direct = stage2_matrix_direct(ctx, masks)
    assert direct == pytest.approx(ctx.stage2[:, masks], rel=1e-12)
    assert greedy_match_loop(direct.tolist(), ctx.avail.tolist()) == row.tolist()

    expect = {k: frozenset() for k in range(ctx.C)}
    for slot, k in enumerate(row.tolist()):
        if k >= 0:
            expect[k] = _groups(masks[slot], ctx.G)
    assert a.channel_to_groups == expect


def _scenarios_with(num_groups, count, num_channels=3):
    p = SimParams(num_groups=num_groups, num_channels=num_channels)
    out = []
    for idx in range(200):
        s = generate_scenario(p, idx)
        if not s.degenerate and len(s.groups) == num_groups:
            out.append(s)
            if len(out) == count:
                return out
    raise RuntimeError("not enough scenarios with every transmitter active")


def _sizes(*cases):
    """(num_groups, num_channels) parameters; three channels keep the plain
    group-count id."""
    return [pytest.param(G, C, id=str(G) if C == 3 else f"{G}-C{C}") for G, C in cases]


@pytest.mark.parametrize(
    "num_groups, num_channels",
    _sizes((7, 3), (9, 3), (5, 1), (7, 1), (5, 2), (7, 2), (5, 4), (7, 4), (5, 5), (7, 5)),
)
def test_batched_greedy_equals_per_family_oracle(num_groups, num_channels):
    """All-family matching picks the same (family, row, value) as running
    greedy_match family by family, exactly, closed channels included."""
    open_counts = []
    for s in _scenarios_with(num_groups, 5, num_channels):
        ctx = build_context(s)
        fams = _family_mask_array(ctx.G, min(ctx.C, ctx.G), "all")
        family_rows = greedy_rows_loop(ctx, fams)
        assert greedy_match(ctx.stage2, ctx.avail, fams).tolist() == family_rows
        fi, row, tv = _greedy_best(ctx, fams)
        assert (fi, row.tolist(), tv) == greedy_best_loop(ctx, fams, family_rows)
        open_counts.append(int(ctx.avail.sum()))
    S = min(num_channels, num_groups)
    assert min(open_counts) < S  # a closed channel, so fewer open channels than subsets


@pytest.mark.parametrize(
    "num_groups, num_channels",
    _sizes(
        (5, 3), (7, 3), (9, 3), (5, 1), (9, 1), (5, 2), (9, 2), (5, 4), (7, 4), (5, 5), (7, 5)
    ),
)
def test_exhaustive_best_equals_pair_table_oracle(num_groups, num_channels):
    """The max-plus search picks the same (family, row, value) as the
    (families, pair patterns) table with its flat tie-break, exactly, in
    every mode, scenarios with exact ties at the optimum included."""
    tied = 0
    for s in _scenarios_with(num_groups, 8, num_channels):
        ctx = build_context(s)
        for mode in ("all", "almost_equal", "equal", "fixed(2)"):
            fams = _family_mask_array(ctx.G, min(ctx.C, ctx.G), mode)
            if len(fams) == 0:
                continue  # allocate returns CU-only without searching
            fi, row, tv = _exhaustive_best(ctx, fams)
            *expect, n_ties = exhaustive_best_table(ctx, fams)
            assert [fi, row.tolist(), tv] == expect, (num_groups, mode)
            tied += mode == "all" and n_ties > 1
    assert tied >= 2


class _Tables:
    """The fields both searches read, over a given value table; baseline
    and gain are EvalContext's own."""

    baseline = EvalContext.baseline
    gain = EvalContext.gain

    def __init__(self, value):
        self.value = value
        self.C, n = value.shape
        self.G = n.bit_length() - 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_searches_equal_oracles_on_tie_heavy_tables(data):
    """Small integers stored as floats tie almost everywhere, so every
    tie-break of both searches decides the outcome. Closed channels are
    drawn at random, all closed and fewer open than slots included."""
    C = data.draw(st.integers(1, 5), label="C")
    G = data.draw(st.integers(1, 6), label="G")
    S = data.draw(st.integers(1, min(C, G)), label="S")
    fams = _family_mask_array(G, S, data.draw(st.sampled_from(MODES), label="mode"))
    cells = st.lists(st.integers(0, 3), min_size=C << G, max_size=C << G)
    value = np.array(data.draw(cells, label="value"), dtype=float).reshape(C, 1 << G)
    stage2 = np.array(data.draw(cells, label="stage2"), dtype=float).reshape(C, 1 << G)
    row_ok = data.draw(st.lists(st.booleans(), min_size=C, max_size=C), label="row_ok")
    if len(fams) == 0:
        return  # allocate returns CU-only without searching
    table = stage2.tolist()
    assert greedy_match(stage2, row_ok, fams).tolist() == [
        greedy_match_loop([[r[m] for m in masks] for r in table], row_ok)
        for masks in fams.tolist()
    ]
    fi, row, tv = _exhaustive_best(_Tables(value), fams)
    assert (fi, row.tolist(), tv) == exhaustive_best_table(_Tables(value), fams)[:3]


def test_greedy_assign_all_channels_closed():
    # a sky-high CU threshold closes every channel in the availability stage
    p = SimParams(cu_sir_threshold_db=90.0)
    s = _scenario(min_groups=2, params=p)
    ctx = build_context(s)
    assert not ctx.avail.any()
    a, powers, tv = allocate(ctx, SchemeConfig(assignment_method="greedy"))
    assert tv == ctx.baseline
    assert all(not gs for gs in a.channel_to_groups.values())
    # every family ties at the baseline, so the first one is chosen
    first = _family_mask_array(ctx.G, min(ctx.C, ctx.G), "all")[0]
    assert a.unassigned_subsets == tuple(_groups(m, ctx.G) for m in first)
    assert (powers.mg_power_w == 0.0).all()


# ---------------------------------------------------------------------------
# powers: muting, grid refinement, fallbacks


def test_muted_group_neither_earns_nor_interferes():
    s = _scenario(min_groups=2, max_groups=6)
    ctx = build_context(s)
    with_muted = Assignment(channel_to_groups={0: frozenset({0, 1})})
    without = Assignment(channel_to_groups={0: frozenset({1})})
    # force group 0 infeasible on every channel
    ctx.p_gk[0, :] = 0.0
    assert evaluate(ctx, with_muted) == pytest.approx(evaluate(ctx, without), rel=1e-12)


def test_grid_policy_never_loses_to_max_feasible():
    s = _scenario(min_groups=2, max_groups=6)
    ctx = build_context(s)
    _, _, tv_max = allocate(ctx, SchemeConfig())
    for policy in ("grid(1)", "grid(3)"):
        a, powers, tv_grid = allocate(ctx, SchemeConfig(power_policy=policy))
        # the ascent starts at the max_feasible point; equality is only up to
        # summation order because the refined score is re-accumulated per channel
        assert tv_grid >= tv_max * (1.0 - 1e-12)
        arr = as_array(a, ctx.G)
        for g in range(ctx.G):
            if arr[g] >= 0:
                # zero is legal for a group the silencing pass muted
                assert 0.0 <= powers.mg_power_w[g] <= ctx.p_gk[g, arr[g]] * (1 + 1e-12)


def test_grid_never_below_optimal_exactly():
    """grid(n) starts from the max_feasible point, so it may not score below
    optimal by even one ulp; its re-summed ascent score used to."""
    scheme_opt, scheme_grid = SchemeConfig(), SchemeConfig(power_policy="grid(3)")
    stream = child_seed(SimParams().master_seed, 81, 0)
    cases = [(50.0, 8)] + [(d, i) for d in (20.0, 50.0, 100.0) for i in range(40)]
    checked = 0
    for d, idx in cases:
        s = generate_scenario(SimParams(exclusion_radius_m=d).copy_with(master_seed=stream), idx)
        if s.degenerate:
            continue
        ctx = build_context(s)
        _, _, tv_opt = allocate(ctx, scheme_opt)
        _, _, tv_grid = allocate(ctx, scheme_grid)
        assert tv_grid >= tv_opt, (d, idx)
        checked += 1
    assert checked >= 100


def test_fixed_mode_without_enough_groups_degrades_to_cu_only():
    s = _scenario(min_groups=1, max_groups=5)
    a, powers, tv = allocate(s, SchemeConfig(selection_mode="fixed(4)"))
    ctx = build_context(s)
    assert tv == ctx.baseline
    assert not a.assigned_groups
    assert (powers.mg_power_w == 0.0).all()


def test_no_groups_returns_cu_only_baseline():
    # starve the cell of receivers so every transmitter comes up empty
    p = SimParams(receiver_density_per_m2=1e-12)
    s = generate_scenario(p, 0)
    assert s.degenerate and len(s.groups) == 0
    a, powers, tv = allocate(s, SchemeConfig())
    assert tv == pytest.approx(build_context(s).baseline)
    assert a.channel_to_groups == {k: frozenset() for k in range(p.num_channels)}
    assert powers.mg_power_w.shape == (0,)


def test_fewer_groups_than_channels():
    s = _scenario(min_groups=1, max_groups=2, params=SimParams(num_groups=2))
    ctx = build_context(s)
    a, _, tv = allocate(ctx, SchemeConfig())
    assert tv >= ctx.baseline
    assert len(a.assigned_groups) <= ctx.G


# ---------------------------------------------------------------------------
# allocate vs the radio-layer oracle


def test_allocate_value_matches_radio_evaluation():
    s = _scenario(min_groups=3, max_groups=7)
    ctx = build_context(s)
    for mode in ("all", "equal"):
        a, powers, tv = allocate(ctx, SchemeConfig(selection_mode=mode))
        arr = as_array(a, ctx.G)
        direct = sum_throughput(ctx.links, ctx.fading, powers, arr)
        assert tv == pytest.approx(direct, rel=1e-12)
        assert evaluate(ctx, a) == pytest.approx(tv, rel=1e-12)


def test_default_fading_is_reproducible():
    s = _scenario(min_groups=2)
    _, _, tv1 = allocate(s, SchemeConfig())
    _, _, tv2 = allocate(s, SchemeConfig())
    assert tv1 == tv2
