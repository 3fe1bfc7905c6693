"""Scenario generation checks against brute-force and distributional oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare import geometry
from mgshare.geometry import (
    CellularUser,
    MulticastGroup,
    NetworkScenario,
    apply_exclusion,
    association_reach,
    form_groups,
    generate_scenario,
    sample_poisson_count,
    sample_uniform_disk,
)
from mgshare.params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT, SimParams
from oracles import apply_exclusion_dense, form_groups_dense


# ---------------------------------------------------------------------------
# sampling primitives


def test_disk_empty_and_support():
    rng = np.random.default_rng(1)
    assert sample_uniform_disk(0, 500.0, rng).shape == (0, 2)
    pts = sample_uniform_disk(5000, 123.0, rng)
    assert pts.shape == (5000, 2)
    assert (np.hypot(pts[:, 0], pts[:, 1]) <= 123.0).all()


def test_disk_radial_mean():
    # E|p| for uniform on a disk is (2/3) radius.
    rng = np.random.default_rng(7)
    pts = sample_uniform_disk(100_000, 500.0, rng)
    mean_r = np.hypot(pts[:, 0], pts[:, 1]).mean()
    assert mean_r == pytest.approx(2.0 / 3.0 * 500.0, rel=0.01)


def test_disk_rejects_bad_radius():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_uniform_disk(10, 0.0, rng)
    with pytest.raises(ValueError):
        sample_uniform_disk(-1, 10.0, rng)


def test_poisson_count_moments():
    rng = np.random.default_rng(11)
    assert sample_poisson_count(0.0, 1e9, rng) == 0
    mean_target = 2e-5 * np.pi * 500.0**2  # ~15.7
    draws = np.array([sample_poisson_count(2e-5, np.pi * 500.0**2, rng) for _ in range(10_000)])
    assert draws.mean() == pytest.approx(mean_target, rel=0.03)
    assert draws.var() == pytest.approx(draws.mean(), rel=0.10)
    with pytest.raises(ValueError):
        sample_poisson_count(-1.0, 1.0, rng)


# ---------------------------------------------------------------------------
# exclusion filtering


def test_exclusion_trivial_cases():
    pts = np.array([[10.0, 0.0], [49.0, 0.0], [51.0, 0.0]])
    cu = np.array([[0.0, 0.0]])
    kept, removed = apply_exclusion(pts, cu, 0.0)
    assert removed == 0 and len(kept) == 3
    kept, removed = apply_exclusion(pts, cu, 50.0)
    assert removed == 2
    np.testing.assert_array_equal(kept, pts[2:])


def test_exclusion_boundary_point_survives():
    kept, removed = apply_exclusion(np.array([[50.0, 0.0]]), np.array([[0.0, 0.0]]), 50.0)
    assert removed == 0 and len(kept) == 1


def test_exclusion_matches_bruteforce():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-500, 500, size=(100, 2))
    cus = rng.uniform(-500, 500, size=(3, 2))
    kept, removed = apply_exclusion(pts, cus, 120.0)
    # independent scalar-loop filter
    expect = [
        p
        for p in pts
        if all(np.hypot(p[0] - c[0], p[1] - c[1]) >= 120.0 for c in cus)
    ]
    assert removed == 100 - len(expect)
    np.testing.assert_allclose(kept, np.array(expect))


def test_exclusion_accepts_cu_objects():
    cu = CellularUser(id=0, channel_index=0, position=np.zeros(2), dist_to_bs_m=0.0)
    kept, removed = apply_exclusion(np.array([[1.0, 0.0], [9.0, 0.0]]), [cu], 5.0)
    assert removed == 1 and kept[0, 0] == 9.0


# ---------------------------------------------------------------------------
# association


def test_form_groups_single_tx_catches_all():
    tx = np.array([[0.0, 0.0]])
    rx = np.array([[10.0, 0.0], [0.0, 20.0], [5.0, 5.0]])
    groups = form_groups(tx, rx, 1.0, 0.0)
    assert len(groups) == 1 and groups[0].num_receivers == 3
    np.testing.assert_allclose(
        groups[0].tx_rx_dists_m, [10.0, 20.0, np.hypot(5, 5)]
    )


def test_form_groups_tie_goes_to_lower_id():
    tx = np.array([[-10.0, 0.0], [10.0, 0.0]])
    rx = np.array([[0.0, 0.0]])  # equidistant
    groups = form_groups(tx, rx, 1.0, 0.0)
    assert [g.id for g in groups] == [0]


def test_form_groups_threshold_drops_receiver():
    tx = np.array([[0.0, 0.0]])
    rx = np.array([[10.0, 0.0], [100.0, 0.0]])
    # 1 W at d=100, alpha=4 -> 1e-8 W; threshold just above drops it
    groups = form_groups(tx, rx, 1.0, 2e-8)
    assert len(groups) == 1
    np.testing.assert_allclose(groups[0].receivers, rx[:1])


def test_form_groups_clamps_colocated_receiver():
    tx = np.array([[0.0, 0.0], [300.0, 0.0]])
    rx = np.array([[0.0, 0.0]])  # d = 0 to tx 0
    groups = form_groups(tx, rx, 1.0, 0.5)  # clamped power = 1 W >= 0.5
    assert len(groups) == 1 and groups[0].id == 0
    assert groups[0].tx_rx_dists_m[0] == 0.0  # true distance is stored


def test_form_groups_matches_bruteforce_argmax():
    rng = np.random.default_rng(9)
    tx = rng.uniform(-400, 400, size=(5, 2))
    rx = rng.uniform(-400, 400, size=(40, 2))
    groups = form_groups(tx, rx, 2.0, 0.0)
    # independent association: scalar loop over the full power matrix
    assign = {}
    for i, p in enumerate(rx):
        best_g, best_pow = None, -1.0
        for g, t in enumerate(tx):
            d = max(np.hypot(p[0] - t[0], p[1] - t[1]), 1.0)
            pw = 2.0 * d**-4.0
            if pw > best_pow:
                best_g, best_pow = g, pw
        assign.setdefault(best_g, []).append(i)
    assert {g.id for g in groups} == set(assign)
    for g in groups:
        np.testing.assert_allclose(g.receivers, rx[assign[g.id]])


def test_form_groups_requires_transmitter():
    with pytest.raises(ValueError):
        form_groups(np.empty((0, 2)), np.array([[1.0, 1.0]]), 1.0, 0.0)


# ---------------------------------------------------------------------------
# association reach: the near-transmitter path against the dense oracle


def test_association_reach():
    p = SimParams()
    reach = association_reach(p.assoc_ref_power_w, p.assoc_min_rx_power_w)
    exact = (p.assoc_ref_power_w / p.assoc_min_rx_power_w) ** 0.25
    assert reach == pytest.approx(11.4815, abs=1e-4)
    assert exact < reach <= exact * (1.0 + 2e-9)
    # a threshold of 0 W, or one that underflows to 0 W, bounds nothing
    assert association_reach(1.0, 0.0) == np.inf
    underflow = SimParams(assoc_min_rx_power_dbm=-4000.0).assoc_min_rx_power_w
    assert underflow == 0.0 and association_reach(1.0, underflow) == np.inf
    # floored at the distance clamp
    assert association_reach(1.0, 10.0) == MIN_LINK_DISTANCE_M
    assert association_reach(0.0, 1.0) == MIN_LINK_DISTANCE_M


def _assert_groups_identical(got, want):
    assert [g.id for g in got] == [g.id for g in want]
    for x, y in zip(got, want):
        assert x.tx_position.tobytes() == y.tx_position.tobytes()
        assert x.receivers.tobytes() == y.receivers.tobytes()
        assert x.tx_rx_dists_m.tobytes() == y.tx_rx_dists_m.tobytes()


_coord = st.floats(-60.0, 60.0, allow_nan=False)
_point = st.tuples(_coord, _coord)


@st.composite
def _layouts(draw):
    """Transmitters, CUs and receivers, with receivers placed exactly at a
    transmitter's reach, on an exclusion boundary, on a transmitter and
    under the 1 m clamp."""
    txs = np.array(draw(st.lists(_point, min_size=1, max_size=5)))
    cus = np.array(draw(st.lists(_point, min_size=1, max_size=3)))
    tx_power = draw(st.sampled_from([1e-3, 1.0, 2.5]))
    p_min = draw(st.sampled_from([0.0, 1e-8, 5.5e-5, 1e-3, 0.7]))
    radius = draw(st.sampled_from([0.0, 5.0, 12.5]) | st.floats(0.0, 40.0))
    reach = (tx_power / p_min) ** (1.0 / PATH_LOSS_EXPONENT) if p_min > 0.0 else 10.0
    theta = draw(st.floats(0.0, 2.0 * np.pi))
    t, c = txs[draw(st.integers(0, len(txs) - 1))], cus[draw(st.integers(0, len(cus) - 1))]
    specials = [
        t + (reach, 0.0),
        t - (0.0, reach),
        t + reach * np.array([np.cos(theta), np.sin(theta)]),
        t,
        t + (0.5, 0.0),
        c + (radius, 0.0),
        c - (0.0, radius),
        c + radius * np.array([np.cos(theta), np.sin(theta)]),
    ]
    rx = [np.array(p) for p in draw(st.lists(_point, max_size=30))]
    rx += draw(st.lists(st.sampled_from(specials), max_size=10))
    rx = np.array(draw(st.permutations(rx))).reshape(-1, 2)
    return txs, cus, rx, radius, tx_power, p_min


@settings(max_examples=300, deadline=None)
@given(layout=_layouts())
def test_sampling_matches_dense_oracle_on_drawn_layouts(layout):
    txs, cus, rx, radius, tx_power, p_min = layout
    kept, removed = apply_exclusion(rx, cus, radius)
    want_kept, want_removed = apply_exclusion_dense(rx, cus, radius)
    assert removed == want_removed
    assert kept.tobytes() == want_kept.tobytes()
    _assert_groups_identical(
        form_groups(txs, kept, tx_power, p_min),
        form_groups_dense(txs, kept, tx_power, p_min),
    )


def test_scenarios_match_dense_oracle(monkeypatch):
    """Real scenarios over D, G and the threshold, bitwise equal to sampling
    with the dense exclusion and association."""
    cases = [
        SimParams(exclusion_radius_m=d, num_groups=g, assoc_min_rx_power_dbm=p_min)
        for d in (0.0, 20.0, 50.0, 100.0)
        for g in (5, 7, 9)
        for p_min in (-12.4, -30.0)
    ]
    got = [generate_scenario(p, i) for p in cases for i in range(4)]
    monkeypatch.setattr(geometry, "apply_exclusion", apply_exclusion_dense)
    monkeypatch.setattr(geometry, "form_groups", form_groups_dense)
    want = [generate_scenario(p, i) for p in cases for i in range(4)]
    assert sum(len(s.groups) for s in want) > 0
    for a, b in zip(got, want):
        assert a.candidate_receiver_count == b.candidate_receiver_count
        assert a.excluded_receiver_count == b.excluded_receiver_count
        _assert_groups_identical(a.groups, b.groups)


# ---------------------------------------------------------------------------
# scenario assembly


def _scenarios_equal(a: NetworkScenario, b: NetworkScenario) -> bool:
    if len(a.cus) != len(b.cus) or len(a.groups) != len(b.groups):
        return False
    if a.excluded_receiver_count != b.excluded_receiver_count:
        return False
    if a.scenario_seed != b.scenario_seed:
        return False
    for x, y in zip(a.cus, b.cus):
        if not (x.id == y.id and np.array_equal(x.position, y.position)):
            return False
    for gx, gy in zip(a.groups, b.groups):
        if gx.id != gy.id or not np.array_equal(gx.receivers, gy.receivers):
            return False
        if not np.array_equal(gx.tx_rx_dists_m, gy.tx_rx_dists_m):
            return False
    return True


def test_scenario_determinism():
    p = SimParams()
    a = generate_scenario(p, 4)
    b = generate_scenario(p, 4)
    assert _scenarios_equal(a, b)
    c = generate_scenario(p, 5)
    assert not _scenarios_equal(a, c)


def test_scenario_structure_and_exclusion_invariant():
    p = SimParams()
    s = generate_scenario(p, 0)
    assert len(s.cus) == p.num_channels
    assert len(s.groups) <= p.num_groups
    assert not s.degenerate
    cu_pos = np.vstack([c.position for c in s.cus])
    for g in s.groups:
        d = np.sqrt(((g.receivers[:, None, :] - cu_pos[None, :, :]) ** 2).sum(axis=2))
        assert (d.min(axis=1) >= p.exclusion_radius_m).all()
        # stored distances match the geometry
        np.testing.assert_allclose(
            g.tx_rx_dists_m,
            np.hypot(*(g.receivers - g.tx_position).T),
        )


def test_scenario_degenerate_when_exclusion_covers_cell():
    p = SimParams(exclusion_radius_m=1200.0)  # > 2R: every point inside a hole
    s = generate_scenario(p, 0)
    assert s.degenerate
    assert s.groups == []
    assert s.excluded_receiver_count == s.candidate_receiver_count


def test_scenario_degenerate_when_no_candidates():
    p = SimParams(receiver_density_per_m2=0.0)
    s = generate_scenario(p, 3)
    assert s.degenerate and s.candidate_receiver_count == 0


def test_excluded_fraction_matches_area_oracle():
    # Fraction of candidates removed ~ mean hole-area fraction of the cell.
    # Oracle: independent Monte Carlo over (CU triple, probe point) draws
    # using plain numpy, no geometry-module code.
    rng = np.random.default_rng(2024)
    R, D, C = 500.0, 50.0, 3
    n = 400_000
    def disk(count):
        r = R * np.sqrt(rng.random(count))
        t = rng.random(count) * 2 * np.pi
        return np.column_stack((r * np.cos(t), r * np.sin(t)))
    probes = disk(n)
    frac_hits = np.zeros(n, dtype=bool)
    cus = disk(n * C).reshape(n, C, 2)
    d2 = ((probes[:, None, :] - cus) ** 2).sum(axis=2)
    frac_hits = (d2.min(axis=1) < D * D)
    expected = frac_hits.mean()

    p = SimParams(receiver_density_per_m2=1e-3)
    removed = kept = 0
    for i in range(400):
        s = generate_scenario(p, i)
        removed += s.excluded_receiver_count
        kept += s.candidate_receiver_count - s.excluded_receiver_count
    observed = removed / (removed + kept)
    assert observed == pytest.approx(expected, rel=0.08)


@settings(max_examples=25, deadline=None)
@given(
    d=st.floats(10.0, 200.0),
    idx=st.integers(0, 50),
)
def test_scenario_exclusion_property(d, idx):
    p = SimParams(exclusion_radius_m=d, receiver_density_per_m2=5e-4)
    s = generate_scenario(p, idx)
    cu_pos = np.vstack([c.position for c in s.cus])
    for g in s.groups:
        dm = np.sqrt(((g.receivers[:, None, :] - cu_pos[None, :, :]) ** 2).sum(axis=2))
        assert (dm.min(axis=1) >= d).all()
