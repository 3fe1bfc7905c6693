"""Allocation layer: greedy matching pinned to its worked examples,
exhaustive search against a brute-force radio-layer oracle, and the exact
dominance relations the schemes must satisfy scenario by scenario."""

import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare import allocation
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
    _family_table,
    _greedy_best,
    _vector_family_masks,
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
            arr = _family_table(G, C, mode)[0]
            assert arr.dtype == np.int64 and arr.shape == (len(expected), C)
            assert arr.tolist() == expected, (C, mode)
            assert len(arr) == distinct_count(G, C, mode)
            assert not arr.flags.writeable


def test_family_mask_arrays_are_disjoint_and_complete():
    arr = _family_table(7, 3, "almost_equal")[0]
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


@pytest.mark.parametrize("G", range(1, 9))
def test_family_bounds_tile_the_family_mask_array(G):
    """Each size vector's block, in enumeration order, covers the next rows
    of the mode's table, and its rows have that vector's subset sizes."""
    empty = 0
    for S in range(1, min(5, G) + 1):
        for mode in (*MODES, f"fixed({G // S + 1})"):
            arr, bounds = _family_table(G, S, mode)
            assert [b[0] for b in bounds] == enumerate_size_vectors(G, S, mode)
            ends = [0] + [hi for _, _, hi in bounds]
            assert [lo for _, lo, _ in bounds] == ends[:-1] and ends[-1] == len(arr)
            empty += not bounds
            for sizes, lo, hi in bounds:
                block = _vector_family_masks(G, sizes)
                assert hi > lo and np.array_equal(arr[lo:hi], block), (S, mode, sizes)
                popcounts = [[bin(m).count("1") for m in row] for row in block.tolist()]
                assert popcounts == [list(sizes)] * len(block)
    assert empty  # the fixed(n) mode past G // S admits no family


def test_assignment_rejects_overlap():
    with pytest.raises(ValueError):
        Assignment(channel_to_groups={0: frozenset({1, 2}), 1: frozenset({2})})


def test_assignment_array_round_trip():
    a = Assignment(channel_to_groups={0: frozenset({1}), 1: frozenset(), 2: frozenset({0, 3})})
    assert list(as_array(a, 4)) == [2, 0, -1, 2]
    assert set().union(*a.channel_to_groups.values()) == {0, 1, 3}


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
    for masks in _family_table(ctx.G, min(ctx.C, ctx.G), "all")[0]:
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
    assert not any(assignment.channel_to_groups.values()) and assignment.unassigned_subsets == ()


def test_cu_only_guard_counts_the_value_table():
    """A mode that admits no family runs CU-only under either method, and
    its (C, 2^G) value table is held to the greedy cell limit."""
    for method in ("exhaustive", "greedy"):
        SchemeConfig("fixed(2)", method).check_size(7, 30)  # 3,840 cells
        SchemeConfig("fixed(23)", method).check_size(22, 1)  # 4,194,304 cells
        refusals = [
            ("fixed(12)", 22, 2, "2 x 2^22"),
            ("fixed(2)", 7, 10**7, "10000000 x 2^7"),
            ("fixed(2)", 10**6, 10**6, "1000000 x 2^1000000"),
        ]
        for mode, G, C, cells in refusals:
            with pytest.raises(ValueError, match=re.escape(
                f"CU-only run refused for G={G}, C={C}, mode {mode}: its tables would hold "
                f"{cells} cells, past the limit of 7597590"
            )):
                SchemeConfig(mode, method).check_size(G, C)


def test_admits_family_equals_a_nonempty_family_table():
    for G in range(0, 9):
        for C in range(1, 7):
            for mode in ("all", "almost_equal", "equal", "fixed(1)", "fixed(2)", "fixed(3)"):
                table = _family_table(G, min(C, G), mode)[0] if G else ()
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
    fams, blocks = _family_table(ctx.G, min(ctx.C, ctx.G), "almost_equal")
    fi, row, _ = _greedy_best(ctx, fams, blocks=blocks)
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
        fams, blocks = _family_table(ctx.G, min(ctx.C, ctx.G), "all")
        family_rows = greedy_rows_loop(ctx, fams)
        assert greedy_match(ctx.stage2, ctx.avail, fams).tolist() == family_rows
        fi, row, tv = _greedy_best(ctx, fams, blocks=blocks)
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
            fams, blocks = _family_table(ctx.G, min(ctx.C, ctx.G), mode)
            if len(fams) == 0:
                continue  # allocate returns CU-only without searching
            fi, row, tv = _exhaustive_best(ctx, fams, blocks=blocks)
            *expect, n_ties = exhaustive_best_table(ctx, fams)
            assert [fi, row.tolist(), tv] == expect, (num_groups, mode)
            tied += mode == "all" and n_ties > 1
    assert tied >= 2


class _Tables:
    """The fields both searches read, over given value and stage-2 tables
    and channel availability; baseline and gain are EvalContext's own
    cached properties, computed once from ``value``, and the
    per-size-vector caches start empty."""

    baseline = EvalContext.baseline
    gain = EvalContext.gain

    def __init__(self, value, stage2, row_ok):
        self.value = value
        self.stage2 = stage2
        self.avail = np.array(row_ok, dtype=bool)
        self.C, n = value.shape
        self.G = n.bit_length() - 1
        self.exhaustive_scores = {}
        self.greedy_scores = {}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_searches_equal_oracles_on_tie_heavy_tables(data):
    """Small integers stored as floats tie almost everywhere, so every
    tie-break of both searches decides the outcome. Closed channels are
    drawn at random, all closed and fewer open than slots included. Two
    drawn modes run in sequence on one set of tables: the second reads the
    size vectors the first scored and scores only the others."""
    C = data.draw(st.integers(1, 5), label="C")
    G = data.draw(st.integers(1, 6), label="G")
    S = data.draw(st.integers(1, min(C, G)), label="S")
    modes = data.draw(st.lists(st.sampled_from(MODES), min_size=2, max_size=2), label="modes")
    cells = st.lists(st.integers(0, 3), min_size=C << G, max_size=C << G)
    value = np.array(data.draw(cells, label="value"), dtype=float).reshape(C, 1 << G)
    stage2 = np.array(data.draw(cells, label="stage2"), dtype=float).reshape(C, 1 << G)
    row_ok = data.draw(st.lists(st.booleans(), min_size=C, max_size=C), label="row_ok")
    tables = _Tables(value, stage2, row_ok)
    for mode in modes:
        fams, blocks = _family_table(G, S, mode)
        if len(fams) == 0:
            continue  # allocate returns CU-only without searching
        rows = greedy_rows_loop(tables, fams)
        assert greedy_match(stage2, row_ok, fams).tolist() == rows
        searches = (
            (_exhaustive_best, tables.exhaustive_scores, exhaustive_best_table(tables, fams)[:3]),
            (_greedy_best, tables.greedy_scores, greedy_best_loop(tables, fams, rows)),
        )
        for search, cache, expect in searches:
            held = dict(cache)
            fi, row, tv = search(tables, fams, blocks=blocks)
            assert (fi, row.tolist(), tv) == expect, (mode, search.__name__)
            assert set(cache) == set(held) | {b[0] for b in blocks}
            assert all(cache[v] is held[v] for v in held)
            # the newly held vectors share the one pass that scored them
            scored = {id(out): len(out[0]) for v, (out, _, _) in cache.items() if v not in held}
            assert sum(scored.values()) == sum(hi - lo for v, lo, hi in blocks if v not in held)


# ---------------------------------------------------------------------------
# per-size-vector scores shared by the schemes run on one context


CACHED_SCHEMES = (*SCHEME_PRESETS, "almost_equal:greedy", "equal:greedy")


def _outcome(ctx, scheme):
    a, powers, tv = allocate(ctx, scheme)
    return tv, a, powers.cu_power_w.tobytes(), powers.mg_power_w.tobytes()


@pytest.mark.parametrize("num_groups", [5, 7, 9])
def test_shared_context_equals_fresh_contexts(num_groups):
    """Schemes run on one context, in any order, give bitwise the result
    each gives alone on a fresh context, where the search scores the mode's
    whole table in one pass; so do the fixed(n) schemes of an n_per_channel
    sweep on its reused context."""
    schemes = [SchemeConfig.from_token(t) for t in CACHED_SCHEMES]
    per_channel = [SchemeConfig(f"fixed({n})", m) for n in (1, 2) for m in ("exhaustive", "greedy")]
    scenarios = _scenarios_with(num_groups, 3)
    expect = [
        {sc: _outcome(build_context(s), sc) for sc in schemes + per_channel} for s in scenarios
    ]
    rng = random.Random(num_groups)
    for s, want in zip(scenarios, expect):
        shuffled = rng.sample(schemes, len(schemes))
        for order in (schemes, schemes[::-1], shuffled, per_channel):
            ctx = build_context(s)
            for sc in order:
                assert _outcome(ctx, sc) == want[sc], (num_groups, sc, order.index(sc))
        S = min(ctx.C, ctx.G)
        held = {v for n in (1, 2) for v in enumerate_size_vectors(ctx.G, S, f"fixed({n})")}
        assert set(ctx.exhaustive_scores) == set(ctx.greedy_scores) == held


def test_a_scheme_scores_only_its_own_blocks(monkeypatch):
    """A scheme scores the size vectors its mode admits that the context does
    not hold yet, and nothing else; held blocks are reused, not rescored."""
    scored = []
    for name in ("_exhaustive_values", "greedy_match"):
        fn = getattr(allocation, name)

        def counting(a, b, *rest, fn=fn, name=name):
            scored.append((name, len(rest[0] if rest else b)))
            return fn(a, b, *rest)

        monkeypatch.setattr(allocation, name, counting)
    ctx = build_context(_scenarios_with(7, 1)[0])
    G, S = ctx.G, min(ctx.C, ctx.G)

    def vectors(mode):
        return set(enumerate_size_vectors(G, S, mode))

    allocate(ctx, SchemeConfig("equal"))
    assert set(ctx.exhaustive_scores) == vectors("equal") and not ctx.greedy_scores
    assert scored == [("_exhaustive_values", distinct_count(G, S, "equal"))]
    held = dict(ctx.exhaustive_scores)
    allocate(ctx, SchemeConfig("all"))
    assert set(ctx.exhaustive_scores) == vectors("all")
    assert all(ctx.exhaustive_scores[v] is held[v] for v in held)
    missing = distinct_count(G, S, "all") - distinct_count(G, S, "equal")
    assert scored[1:] == [("_exhaustive_values", missing)]
    allocate(ctx, SchemeConfig("almost_equal"))
    allocate(ctx, SchemeConfig("all", power_policy="grid(2)"))
    assert len(scored) == 2

    allocate(ctx, SchemeConfig("fixed(2)", "greedy"))
    assert set(ctx.greedy_scores) == vectors("fixed(2)") == {(2, 2, 2)}
    held = dict(ctx.greedy_scores)
    allocate(ctx, SchemeConfig("all", "greedy"))
    allocate(ctx, SchemeConfig("equal", "greedy"))
    assert set(ctx.greedy_scores) == vectors("all")
    assert ctx.greedy_scores[(2, 2, 2)] is held[(2, 2, 2)]
    missing = distinct_count(G, S, "all") - distinct_count(G, S, "fixed(2)")
    fixed2 = distinct_count(G, S, "fixed(2)")
    assert scored[2:] == [("greedy_match", fixed2), ("greedy_match", missing)]


# ---------------------------------------------------------------------------
# tables shared across the points of a run that share one draw

RUN_SCHEMES = (*CACHED_SCHEMES, "all:exhaustive:grid(3)", "all:greedy:grid(2)")

# (parameter a P_G or R_c_min sweep sets, its values, other settings). At
# P_G = -10 dBm a rate-floor step often leaves the feasible powers bitwise
# equal while the CU threshold moves, so the threshold alone must rebuild
# the value table.
RUNS = {
    "P_G": ("max_mg_power_dbm", (-10.0, 0.0, 10.0, 20.0, 30.0), {}),
    "R_c_min": ("cu_min_rate_bps_hz", (0.0, 1.0, 2.0, 3.0), {}),
    "R_c_min-low-P_G": ("cu_min_rate_bps_hz", (0.0, 1.0, 2.0, 3.0), {"max_mg_power_dbm": -10.0}),
}


def _run_points(scenario, run):
    """The scenario at each point of a run, as the harness gives them."""
    name, values, base = RUNS[run]
    params = scenario.params.copy_with(**base)
    return [replace(scenario, params=params.copy_with(**{name: v})) for v in values]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("num_groups", [5, 7])
def test_run_on_shared_tables_equals_fresh_contexts(run, num_groups):
    """Each point of a run, built from the previous point's context, gives
    every scheme bitwise the outcome of a fresh context, in the harness's
    scheme order and in reverse; and some point adopts the value table."""
    schemes = [SchemeConfig.from_token(t) for t in RUN_SCHEMES]
    adopted = 0
    for s in _scenarios_with(num_groups, 3):
        for order in (schemes, schemes[::-1]):
            ctx = None
            for point in _run_points(s, run):
                fresh = build_context(point)
                prev, ctx = ctx, build_context(point, prev=ctx)
                for sc in order:
                    assert _outcome(ctx, sc) == _outcome(fresh, sc), (run, sc, point.params)
                adopted += prev is not None and ctx.value is prev.value
    assert adopted > 0


def _fingerprint(*arrays) -> tuple:
    return tuple((a.shape, a.tobytes()) for a in map(np.asarray, arrays))


@pytest.mark.parametrize("run", RUNS)
def test_run_rebuilds_a_table_exactly_when_its_inputs_differ(monkeypatch, run):
    """Along a run, the value and stage-2 tables are built again exactly at
    the points whose table inputs differ from the previous point's, the
    exhaustive scores exactly with the value table, and the greedy scores
    exactly where the value table, the stage-2 table or the channel
    availability differ. The inputs are read from fresh contexts' calls."""
    calls = []
    for name in ("build_value_table", "build_stage2_table", "_exhaustive_values", "greedy_match"):
        fn = getattr(allocation, name)

        def counting(*a, fn=fn, name=name):
            calls.append((name, _fingerprint(*a) if name.startswith("build") else None))
            return fn(*a)

        monkeypatch.setattr(allocation, name, counting)
    schemes = [SchemeConfig.from_token(t) for t in ("optimal", "heuristic")]
    rebuilt = transitions = 0
    for s in _scenarios_with(5, 4):
        points = _run_points(s, run)
        inputs = []
        for point in points:
            calls.clear()
            fresh = build_context(point)
            for sc in schemes:
                allocate(fresh, sc)
            tables = dict(calls)
            inputs.append(
                (tables["build_value_table"], tables["build_stage2_table"], fresh.avail.tobytes())
            )
        calls.clear()
        ctx = None
        for point in points:
            ctx = build_context(point, prev=ctx)
            for sc in schemes:
                allocate(ctx, sc)
        counts = Counter(name for name, _ in calls)
        new = [i == 0 or inputs[i][0] != inputs[i - 1][0] for i in range(len(points))]
        assert counts["build_value_table"] == counts["_exhaustive_values"] == sum(new)
        new = [i == 0 or inputs[i][1] != inputs[i - 1][1] for i in range(len(points))]
        assert counts["build_stage2_table"] == sum(new)
        new = [i == 0 or inputs[i] != inputs[i - 1] for i in range(len(points))]
        assert counts["greedy_match"] == sum(new)
        rebuilt += counts["build_value_table"] - 1
        transitions += len(points) - 1
    # the run both rebuilds and adopts the value table
    assert 0 < rebuilt < transitions


def test_context_refuses_prev_of_another_draw():
    """A prev context lends its links and fading, so it must be of the same
    draw: another scenario index, or another scenario_key at the same index,
    is refused; the same draw under other radio parameters is not."""
    p = SimParams()
    prev = build_context(generate_scenario(p, 0))
    with pytest.raises(ValueError, match="another draw"):
        build_context(generate_scenario(p, 1), prev=prev)
    moved = p.copy_with(exclusion_radius_m=60.0)
    with pytest.raises(ValueError, match="another draw"):
        build_context(generate_scenario(moved, 0), prev=prev)
    ctx = build_context(replace(prev.scenario, params=p.copy_with(max_mg_power_dbm=0.0)), prev=prev)
    assert ctx.links is prev.links


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
    first = _family_table(ctx.G, min(ctx.C, ctx.G), "all")[0][0]
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
    assert not any(a.channel_to_groups.values())
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
    assert len(set().union(*a.channel_to_groups.values())) <= ctx.G


# ---------------------------------------------------------------------------
# allocate vs the radio-layer oracle


def test_allocate_value_matches_radio_evaluation():
    s = _scenario(min_groups=3, max_groups=7)
    ctx = build_context(s)
    for mode in ("all", "equal"):
        a, powers, tv = allocate(ctx, SchemeConfig(selection_mode=mode))
        arr = as_array(a, ctx.G)
        direct = sum_throughput(ctx, ctx.fading, powers, arr)
        assert tv == pytest.approx(direct, rel=1e-12)
        assert evaluate(ctx, a) == pytest.approx(tv, rel=1e-12)


def test_default_fading_is_reproducible():
    s = _scenario(min_groups=2)
    _, _, tv1 = allocate(s, SchemeConfig())
    _, _, tv2 = allocate(s, SchemeConfig())
    assert tv1 == tv2
