"""Table kernels: the numpy doublings must agree bitwise with the scalar
loop oracles, and the tables must reproduce what the radio-layer oracle
computes link by link."""

import itertools
import math

import numpy as np
import pytest

from mgshare import kernels
from mgshare.allocation import EvalContext
from mgshare.geometry import generate_scenario
from mgshare.params import SIR_CAP, SimParams
from mgshare.radio import PowerVector
from oracles import (
    channel_value_loop,
    rate,
    sir_cu,
    sir_group,
    stage2_matrix_direct,
    stage2_table_loop,
    value_table_loop,
)


def _random_inputs(seed, G, C=3):
    """Kernel inputs for G groups of 1 to 3 receivers each, with own-group
    signals spread over three decades so that groups both clear and miss
    the decode threshold."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, G).astype(np.int64)
    n = int(sizes.sum())
    offsets = (np.cumsum(sizes) - sizes).astype(np.int64)
    contrib_rx = rng.exponential(1e-8, (G, n, C))
    for g in range(G):
        own = slice(offsets[g], offsets[g] + sizes[g])
        contrib_rx[g, own] *= 10.0 ** rng.uniform(2.0, 5.0, (sizes[g], C))
    return dict(
        base_I_rx=rng.exponential(1e-9, (C, n)),
        contrib_rx=contrib_rx,
        sig_cu=rng.exponential(1e-7, C),
        contrib_bs=rng.exponential(1e-9, (G, C)),
        offsets=offsets,
        sizes=sizes,
        mg_th=316.23,
        cu_th=3.98,
    )


def _assert_value_table_matches_loop(kw):
    G = kw["contrib_rx"].shape[0]
    C = kw["base_I_rx"].shape[0]
    table, passing = kernels.build_value_table(**kw)
    want, want_pass = value_table_loop(**kw)
    assert table.shape == passing.shape == (C, 1 << G)
    assert np.array_equal(table, want)
    assert np.array_equal(passing, want_pass)
    # the pass-mask is always a sub-mask of the evaluated mask
    assert not (passing & ~np.arange(1 << G)).any()


def _stage2_inputs(kw, seed):
    rng = np.random.default_rng(seed)
    G, n, _ = kw["contrib_rx"].shape
    rx_group = np.repeat(np.arange(G), kw["sizes"]).astype(np.int64)
    return kw["base_I_rx"], rng.exponential(1e-8, (G, n)), rx_group


@pytest.mark.parametrize("G", [0, 1, 2, 5, 9, 11])
def test_value_table_bitwise_equal_to_loop_oracle(G):
    _assert_value_table_matches_loop(_random_inputs(7 + G, G, C=2 if G > 9 else 3))


@pytest.mark.parametrize("G", [0, 1, 2, 5, 9, 11])
def test_stage2_table_bitwise_equal_to_loop_oracle(G):
    args = _stage2_inputs(_random_inputs(11 + G, G, C=2 if G > 9 else 4), G)
    table = kernels.build_stage2_table(*args)
    assert table.shape == (args[0].shape[0], 1 << G)
    assert np.array_equal(table, stage2_table_loop(*args))


def test_value_table_bitwise_equal_with_muted_group():
    """A muted group transmits at zero power: all its contributions are 0.0."""
    kw = _random_inputs(3, 5)
    kw["contrib_rx"][2] = 0.0
    kw["contrib_bs"][2] = 0.0
    _assert_value_table_matches_loop(kw)
    args = _stage2_inputs(kw, 3)
    args[1][2] = 0.0
    assert np.array_equal(kernels.build_stage2_table(*args), stage2_table_loop(*args))


def test_value_table_bitwise_equal_with_zero_cu_interference():
    """No group reaches the base station: every CU denominator is 0.0 and the
    CU's SIR sits at the cap for every mask."""
    kw = _random_inputs(5, 5)
    kw["contrib_bs"][:] = 0.0
    _assert_value_table_matches_loop(kw)
    table, _ = kernels.build_value_table(**kw)
    assert (table >= math.log2(1.0 + SIR_CAP)).all()


def test_value_table_zero_denominators_read_the_cap():
    """A receiver's own-group term enters its sums as +0.0, so a receiver
    that nothing else reaches divides by a bare 0.0 and reads the cap: the
    receivers of a group alone on the channel with no CU interference, and
    those of a muted group seeing 0.0 too, whose SIR is 0/0."""
    kw = _random_inputs(13, 5)
    offsets, sizes = kw["offsets"], kw["sizes"]
    alone, muted = 1, 3
    for g in (alone, muted):
        kw["base_I_rx"][:, offsets[g] : offsets[g] + sizes[g]] = 0.0
    kw["contrib_rx"][muted] = 0.0
    kw["contrib_bs"][muted] = 0.0
    _assert_value_table_matches_loop(kw)
    table, passing = kernels.build_value_table(**kw)
    cap = math.log2(1.0 + SIR_CAP)
    for g in (alone, muted):
        assert (passing[:, 1 << g] == 1 << g).all()
    # the muted group leaves the CU alone too: both rates sit at the cap
    assert (table[:, 1 << muted] == cap + cap).all()


@pytest.mark.parametrize(
    "offsets, sizes",
    [([0, 2, 2], [2, 0, 1]), ([0, 1, 3], [2, 1, 1]), ([1, 2, 3], [1, 1, 1])],
    ids=["empty-group", "overlapping", "first-receiver-skipped"],
)
def test_value_table_refuses_groups_that_do_not_tile_the_receivers(offsets, sizes):
    """Each group's worst member is a min over its rows, so an empty group
    would read the next group's first receiver; the kernel refuses it, and
    offsets that do not lay the groups out one after another."""
    kw = _random_inputs(3, 3)
    n = max(offsets[-1] + sizes[-1], sum(sizes))
    kw["base_I_rx"] = kw["base_I_rx"][:, :1].repeat(n, axis=1)
    kw["contrib_rx"] = kw["contrib_rx"][:, :1].repeat(n, axis=1)
    kw["offsets"], kw["sizes"] = np.array(offsets), np.array(sizes)
    with pytest.raises(ValueError, match="tile the receivers"):
        kernels.build_value_table(**kw)


def _table_inputs(ctx):
    """Value-table kernel inputs of a scenario at its table powers."""
    p = ctx.params
    return dict(
        base_I_rx=ctx.base_I_rx,
        contrib_rx=ctx.u_contrib_rx * ctx.p_gk[:, None, :],
        sig_cu=ctx.sig_cu,
        contrib_bs=ctx.u_contrib_bs * ctx.p_gk,
        offsets=ctx.links.offsets,
        sizes=ctx.links.group_sizes,
        mg_th=p.mg_sir_threshold,
        cu_th=p.cu_sir_threshold,
    )


def test_value_table_bitwise_equal_on_real_scenarios():
    p = SimParams(num_groups=9)
    checked = 0
    for idx in range(12):
        s = generate_scenario(p, idx)
        if s.degenerate:
            continue
        ctx = EvalContext(s)
        _assert_value_table_matches_loop(_table_inputs(ctx))
        args = (p.max_cu_power_w * ctx._g_cu_rx, p.max_mg_power_w * ctx._g_mg_rx, ctx.links.rx_group)
        assert np.array_equal(kernels.build_stage2_table(*args), stage2_table_loop(*args))
        checked += 1
        if checked == 3:
            break
    assert checked == 3


@pytest.mark.parametrize("num_groups", [5, 7, 9])
def test_value_table_rows_of_any_channels_equal_the_full_build(num_groups):
    """The kernel reads each channel's inputs alone: a table built from any
    channels, in any order, holds bitwise those rows of the full build. On
    real scenarios, with channel 1 muted for every group."""
    p = SimParams(num_groups=num_groups)
    checked = 0
    for idx in range(40):
        s = generate_scenario(p, idx)
        if s.degenerate or len(s.groups) < num_groups - 1:
            continue
        kw = _table_inputs(EvalContext(s))
        kw["contrib_rx"][:, :, 1] = 0.0
        kw["contrib_bs"][:, 1] = 0.0
        full = kernels.build_value_table(**kw)
        assert not full[1][1].any()  # no group clears the threshold on channel 1
        C = len(kw["sig_cu"])
        for r in range(1, C + 1):
            for ch in map(list, itertools.permutations(range(C), r)):
                part = kernels.build_value_table(
                    kw["base_I_rx"][ch], kw["contrib_rx"][:, :, ch], kw["sig_cu"][ch],
                    kw["contrib_bs"][:, ch], kw["offsets"], kw["sizes"], kw["mg_th"], kw["cu_th"],
                )
                for got, want in zip(part, full):
                    assert got.shape == (r, want.shape[1])
                    assert got.tobytes() == want[ch].tobytes(), (idx, ch)
        checked += 1
        if checked == 2:
            break
    assert checked == 2


@pytest.mark.parametrize("num_groups", [5, 7, 9])
def test_channel_value_bitwise_equal_to_raw_table(num_groups):
    """At the table powers channel_value sums in the kernel's order, so it
    reproduces every raw value-table cell exactly, failing groups included."""
    p = SimParams(num_groups=num_groups)
    checked = 0
    for idx in range(200):
        s = generate_scenario(p, idx)
        if s.degenerate or len(s.groups) != num_groups:
            continue
        ctx = EvalContext(s)
        raw, _ = kernels.build_value_table(**_table_inputs(ctx))
        for k in range(ctx.C):
            powers = ctx.p_gk[:, k]
            off = [m for m in range(1 << ctx.G) if ctx.channel_value(k, m, powers) != raw[k, m]]
            assert off == [], (idx, k)
        checked += 1
        if checked == 4:
            break
    assert checked == 4


@pytest.mark.parametrize("num_groups", [5, 7, 9])
def test_channel_value_bitwise_equal_to_loop_oracle(num_groups):
    """Off the table powers too, the float rescorer equals the numpy-scalar
    loop bitwise: at random powers inside each group's interval, with some
    groups muted at zero power, and with every group at the bottom of its
    interval, on every channel and every mask."""
    p = SimParams(num_groups=num_groups)
    rng = np.random.default_rng(num_groups)
    checked = 0
    for idx in range(200):
        s = generate_scenario(p, idx)
        if s.degenerate or len(s.groups) != num_groups:
            continue
        ctx = EvalContext(s)
        G = ctx.G
        for k in range(ctx.C):
            top = ctx.p_gk[:, k]
            at_random = top * rng.uniform(1e-3, 1.0, G)
            muted = np.where(rng.random(G) < 0.4, 0.0, at_random)
            # an empty interval has no bottom to sit at: those groups stay muted
            bottom = np.where((top > 0.0) & np.isfinite(ctx.p_inf), ctx.p_inf, 0.0)
            for powers in (at_random, muted, bottom):
                for m in range(1 << G):
                    got = ctx.channel_value(k, m, powers)
                    want = channel_value_loop(ctx, k, m, powers)
                    assert float(got).hex() == float(want).hex(), (idx, k, m)
        checked += 1
        if checked == 2:
            break
    assert checked == 2


def _context():
    p = SimParams()
    for idx in range(40):
        s = generate_scenario(p, idx)
        if not s.degenerate and 3 <= len(s.groups) <= 7:
            return EvalContext(s)
    raise RuntimeError("no usable scenario in the first 40 draws")


def test_value_table_matches_radio_layer():
    """Each table entry is the channel's CU rate plus its groups' rates after
    the one-shot silencing, so recomputing a sample of masks through sir_cu /
    sir_group must agree: grant everyone full feasible power, mute whoever
    misses the decode threshold, then score what is left."""
    ctx = _context()
    p = ctx.params
    table = ctx.value
    rng = np.random.default_rng(3)
    masks = [0, 1, (1 << ctx.G) - 1] + list(rng.integers(1, 1 << ctx.G, 8))
    for m in masks:
        m = int(m)
        assignment = np.full(ctx.G, -1, dtype=np.int64)
        for k in range(ctx.C):
            for g in range(ctx.G):
                if (m >> g) & 1:
                    assignment[g] = k
            mg = np.array(
                [ctx.p_gk[g, k] if (m >> g) & 1 else 0.0 for g in range(ctx.G)]
            )
            full = PowerVector(ctx.cu_power_w, mg)
            kept = mg.copy()
            for g in range(ctx.G):
                if (m >> g) & 1 and (
                    sir_group(ctx.links, ctx.fading, full, assignment, g, k)
                    < p.mg_sir_threshold
                ):
                    kept[g] = 0.0
            powers = PowerVector(ctx.cu_power_w, kept)
            expect = rate(
                sir_cu(ctx.links, ctx.fading, powers, assignment, k),
                p.cu_sir_threshold,
            )
            for g in range(ctx.G):
                if (m >> g) & 1 and kept[g] > 0.0:
                    expect += rate(
                        sir_group(ctx.links, ctx.fading, powers, assignment, g, k),
                        p.mg_sir_threshold,
                    )
            assert table[k, m] == pytest.approx(expect, rel=1e-12)
            surv = ctx.survivors[k, m]
            assert surv == sum(1 << g for g in range(ctx.G) if kept[g] > 0.0)


def test_value_table_mask_zero_is_cu_alone():
    ctx = _context()
    alone = math.log2(1.0 + SIR_CAP)
    assert ctx.value[:, 0] == pytest.approx(np.full(ctx.C, alone), rel=1e-12)
    assert ctx.baseline == pytest.approx(ctx.C * alone, rel=1e-12)


def test_stage2_matches_direct_recompute():
    ctx = _context()
    table = ctx.stage2
    rng = np.random.default_rng(5)
    masks = [0, 1, (1 << ctx.G) - 1] + list(rng.integers(1, 1 << ctx.G, 8))
    direct = stage2_matrix_direct(ctx, masks)
    for s, m in enumerate(masks):
        for k in range(ctx.C):
            assert table[k, int(m)] == pytest.approx(direct[k, s], rel=1e-12, abs=1e-30)


def test_stage2_nonnegative_and_monotone():
    """Adding a group to a subset can only raise the worst sum interference."""
    ctx = _context()
    table = ctx.stage2
    assert (table >= 0.0).all()
    assert np.all(table[:, 0] == 0.0)
    for m in range(1 << ctx.G):
        for g in range(ctx.G):
            if not (m >> g) & 1:
                assert np.all(table[:, m | (1 << g)] >= table[:, m] - 1e-25)
