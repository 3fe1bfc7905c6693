"""Scenario generation checks against brute-force and distributional oracles."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare.geometry import (
    _RINGS,
    _SECTORS,
    SCENARIO_FIELDS,
    MulticastGroup,
    NetworkScenario,
    _disk_points,
    _in_windows,
    apply_exclusion,
    association_reach,
    form_groups,
    generate_scenario,
    sample_poisson_count,
    sample_uniform_disk,
    scenario_key,
)
from mgshare.params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT, SimParams
from oracles import apply_exclusion_dense, form_groups_dense, generate_scenario_dense


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


# ---------------------------------------------------------------------------
# association


def test_form_groups_single_tx_catches_all():
    tx = np.array([[0.0, 0.0]])
    rx = np.array([[10.0, 0.0], [0.0, 20.0], [5.0, 5.0]])
    groups = form_groups(tx, rx, 1.0, 0.0)
    assert len(groups) == 1 and groups[0].num_receivers == 3


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


def test_scenarios_match_dense_oracle():
    """Real scenarios, bitwise equal to computing every candidate's position
    and excluding and associating every candidate densely. The cases cover
    D from 0 to past R, G from 0 to 9, an infinite reach (a threshold that
    underflows to 0 W), a small cell and the benchmark workloads' settings."""
    cases = [
        SimParams(exclusion_radius_m=d, num_groups=g, assoc_min_rx_power_dbm=p_min)
        for d in (0.0, 20.0, 50.0, 100.0)
        for g in (0, 5, 7, 9)
        for p_min in (-12.4, -30.0, -4000.0)
    ]
    cases += [
        SimParams(exclusion_radius_m=600.0),
        SimParams(cell_radius_m=30.0, exclusion_radius_m=20.0, receiver_density_per_m2=0.5),
        SimParams(cell_radius_m=30.0, exclusion_radius_m=45.0, receiver_density_per_m2=0.5),
        SimParams(cell_radius_m=8.0, exclusion_radius_m=1.0, receiver_density_per_m2=20.0),
    ]
    cases += [SimParams(exclusion_radius_m=d) for d in range(30, 100, 10)]  # paper-d-sweep
    cases += [SimParams(num_groups=9), SimParams(num_groups=5, max_mg_power_dbm=-10.0)]
    assert any(p.assoc_min_rx_power_w == 0.0 for p in cases)
    want_groups = 0
    for p in cases:
        for i in range(4):
            got, want = generate_scenario(p, i), generate_scenario_dense(p, i)
            assert got.scenario_seed == want.scenario_seed
            assert got.candidate_receiver_count == want.candidate_receiver_count
            assert got.excluded_receiver_count == want.excluded_receiver_count
            assert [c.position.tobytes() for c in got.cus] == [c.position.tobytes() for c in want.cus]
            _assert_groups_identical(got.groups, want.groups)
            want_groups += len(want.groups)
    assert want_groups > 0


def _nudged(values, ulps=4):
    """(2 ulps + 1, n) stack of values moved by -ulps..ulps ulp each."""
    rows = {0: values}
    for step in range(1, ulps + 1):
        rows[-step] = np.nextafter(rows[1 - step], -np.inf)
        rows[step] = np.nextafter(rows[step - 1], np.inf)
    return np.stack([rows[k] for k in sorted(rows)])


def _edge_draws(R, center, rho):
    """(u, v) of points exactly on the circle of radius rho around center:
    its extremes towards and away from the origin, its tangent points seen
    from the origin, and where it crosses the ring and sector boundaries
    next to those."""
    cx, cy = center
    rc = np.hypot(cx, cy)
    theta_c = np.arctan2(cy, cx)
    r_at = [abs(rc - rho), rc + rho]
    phi_at = [theta_c + (np.pi if rho > rc else 0.0), theta_c]
    v_bounds = []
    if rc > rho:
        alpha = np.arcsin(rho / rc)
        for phi in (theta_c - alpha, theta_c + alpha):
            r_at.append(np.sqrt(rc * rc - rho * rho))
            phi_at.append(phi)
            j0 = np.floor(phi / (2.0 * np.pi) * _SECTORS)
            v_bounds += [j / _SECTORS for j in (j0 - 1, j0, j0 + 1, j0 + 2)]
    for v in v_bounds:
        # the sector boundary ray at angle 2 pi v meets the circle at
        # distance b -+ sqrt(disc) from the origin
        b = np.cos(2.0 * np.pi * v) * cx + np.sin(2.0 * np.pi * v) * cy
        disc = b * b - rc * rc + rho * rho
        if disc >= 0.0:
            for r in (b - np.sqrt(disc), b + np.sqrt(disc)):
                if r >= 0.0:
                    r_at.append(r)
                    phi_at.append(2.0 * np.pi * v)
    for r_ext in (rc - rho, rc + rho):
        k0 = np.floor((max(r_ext, 0.0) / R) ** 2 * _RINGS)
        for k in (k0 - 1, k0, k0 + 1, k0 + 2):
            # the ring boundary circle of radius rk meets the circle at
            # angle gap arccos(cos_gap) from the centre's direction
            rk = R * np.sqrt(k / _RINGS) if 0 < k < _RINGS else 0.0
            if rk > 0.0 and rc > 0.0:
                cos_gap = (rk * rk + rc * rc - rho * rho) / (2.0 * rk * rc)
                if -1.0 <= cos_gap <= 1.0:
                    for side in (-1.0, 1.0):
                        r_at.append(rk)
                        phi_at.append(theta_c + side * np.arccos(cos_gap))
    r, phi = np.array(r_at), np.array(phi_at)
    inside = r < R
    return (r[inside] / R) ** 2, (phi[inside] / (2.0 * np.pi)) % 1.0


def _center(R, draw, rho):
    """A window centre from draws (u, v, align). With align set, the centre
    is moved along its ray or turned about the origin so that its window's
    outer or inner extreme lies on a ring boundary, or a tangent ray from
    the origin on a sector boundary, up to rounding."""
    u, v, align = draw
    rc, theta = R * np.sqrt(u), 2.0 * np.pi * v
    if align == "outer":
        k = np.ceil(((rc + rho) / R) ** 2 * _RINGS)
        rc = R * np.sqrt(k / _RINGS) - rho if k <= _RINGS else rc
    elif align == "inner":
        k = np.floor(((rc - rho) / R) ** 2 * _RINGS) if rc > rho else 0
        rc = R * np.sqrt(k / _RINGS) + rho if k > 0 else rc
    elif align in ("ccw", "cw") and rc > rho:
        alpha = np.arcsin(rho / rc) * (1.0 if align == "ccw" else -1.0)
        j = np.round((theta + alpha) / (2.0 * np.pi) * _SECTORS)
        theta = 2.0 * np.pi * j / _SECTORS - alpha
    rc = min(max(rc, 0.0), R)
    return np.array([rc * np.cos(theta), rc * np.sin(theta)])


_unit = st.floats(0.0, 1.0, exclude_max=True)
_center_draw = st.tuples(
    _unit | st.sampled_from([0.0, 5e-324, 1e-12, 1.0 - 2.0**-53, 1.0 - 1e-9]),
    _unit | st.sampled_from([0.0, 0.25, 0.5, 1.0 - 2.0**-53]),
    st.sampled_from([None, "outer", "inner", "ccw", "cw"]),
)


@settings(max_examples=200, deadline=None)
@given(
    R=st.sampled_from([1.0, 30.0, 500.0]) | st.floats(0.5, 5000.0),
    d_frac=st.sampled_from([0.0, 0.04, 0.1, 1.0, 1.5]) | st.floats(0.0, 1.2),
    reach_frac=st.sampled_from([0.002, 0.02, np.inf]) | st.floats(0.0005, 0.5),
    cu_draws=st.lists(_center_draw, min_size=1, max_size=3),
    tx_draws=st.lists(_center_draw, max_size=4),
    extra=st.lists(st.tuples(_unit, _unit), max_size=20),
)
def test_windows_hold_every_candidate_at_their_edges(R, d_frac, reach_frac, cu_draws, tx_draws, extra):
    """Points exactly on an exclusion circle or at a transmitter's reach, at
    the circle's extremes and tangent points and where it crosses cell
    boundaries, with u and v each nudged by up to 4 ulp: every one that the
    exclusion test removes or the association test scores is in a window.
    Centres include the base station, the cell edge, and centres whose
    window extremes lie on cell boundaries."""
    D = d_frac * R
    reach = max(reach_frac * R, MIN_LINK_DISTANCE_M)
    centers = np.array(
        [_center(R, c, D) for c in cu_draws] + [_center(R, c, reach) for c in tx_draws]
    )
    radii = [D] * len(cu_draws) + [reach] * len(tx_draws)
    us = [np.array([a for a, _ in extra], dtype=float)]
    vs = [np.array([b for _, b in extra], dtype=float)]
    for c, rho in zip(centers, radii):
        if np.isfinite(rho):
            u, v = _edge_draws(R, c, rho)
            nu, nv = _nudged(u), _nudged(v)
            us.append(np.broadcast_to(nu[:, None, :], (9, 9, len(u))).ravel())
            vs.append(np.broadcast_to(nv[None, :, :], (9, 9, len(v))).ravel())
    below_one = np.nextafter(1.0, 0.0)  # a tiny negative v is 1.0 modulo 1
    u = np.clip(np.concatenate(us), 0.0, below_one)
    v = np.clip(np.concatenate(vs) % 1.0, 0.0, below_one)
    x, y = _disk_points(R, u, v).T
    must = np.zeros(len(u), dtype=bool)
    for i, ((cx, cy), rho) in enumerate(zip(centers, radii)):
        dx, dy = x - cx, y - cy
        d2 = dx * dx + dy * dy
        # the tests of apply_exclusion (CUs) and form_groups (transmitters)
        must |= d2 < rho * rho if i < len(cu_draws) else d2 <= rho * rho
    assert not (must & ~_in_windows(u, v, R, centers, radii)).any()


def test_disk_points_same_bits_in_subsets():
    """Positions depend on each (u, v) alone, whichever subset it sits in:
    slices of 1 to 70 draws at odd offsets, and the masked gathers the
    sampler takes before computing positions."""
    rng = np.random.default_rng(12)
    u, v = rng.random(400), rng.random(400)
    theta = v * (2.0 * np.pi)
    cos, sin, full = np.cos(theta), np.sin(theta), _disk_points(500.0, u, v)
    for n in range(1, 71):
        for offset in (1, 3, 7, 33, 129):
            part = slice(offset, offset + n)
            assert np.cos(theta[part]).tobytes() == cos[part].tobytes()
            assert np.sin(theta[part]).tobytes() == sin[part].tobytes()
            mask = np.zeros(400, dtype=bool)
            mask[rng.choice(np.arange(offset, 400, 2), n, replace=False)] = True
            assert _disk_points(500.0, u[mask], v[mask]).tobytes() == full[mask].tobytes()


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
        if not np.array_equal(x.position, y.position):
            return False
    for gx, gy in zip(a.groups, b.groups):
        if gx.id != gy.id or not np.array_equal(gx.receivers, gy.receivers):
            return False
    return True


def test_scenario_determinism():
    p = SimParams()
    a = generate_scenario(p, 4)
    b = generate_scenario(p, 4)
    assert _scenarios_equal(a, b)
    c = generate_scenario(p, 5)
    assert not _scenarios_equal(a, c)


class _RecordingParams(SimParams):
    """SimParams that records the name of every attribute read from it,
    including the reads a derived property makes of its fields."""

    def __getattribute__(self, name):
        if not name.startswith("__"):
            object.__getattribute__(self, "__dict__").setdefault("_reads_", set()).add(name)
        return object.__getattribute__(self, name)


def _scenario_bits(s: NetworkScenario) -> tuple:
    """Everything a scenario holds but its parameters, positions as raw bytes."""
    return (
        s.scenario_seed,
        s.excluded_receiver_count,
        s.candidate_receiver_count,
        [c.position.tobytes() for c in s.cus],
        [(g.id, g.tx_position.tobytes(), g.receivers.tobytes()) for g in s.groups],
    )


@pytest.mark.parametrize("index", [0, 1, 7])
def test_scenario_key_holds_every_field_the_sampler_reads(index):
    """The sweep harness draws a scenario once for all points with equal
    scenario keys, so the key must hold every field generate_scenario reads,
    and changing any other field must leave the scenario bitwise equal."""
    base = SimParams(num_groups=9, exclusion_radius_m=30.0)
    recording = _RecordingParams(**vars(base))
    scenario = generate_scenario(recording, index)
    reads = recording.__dict__.pop("_reads_")
    names = {f.name for f in fields(SimParams)}
    assert reads & names <= set(SCENARIO_FIELDS) <= names
    assert not scenario.degenerate
    want = _scenario_bits(generate_scenario(base, index))
    assert _scenario_bits(scenario) == want
    for name in names - set(SCENARIO_FIELDS):
        changed = replace(base, **{name: 0.37})
        assert scenario_key(changed) == scenario_key(base)
        assert _scenario_bits(generate_scenario(changed, index)) == want, name


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
