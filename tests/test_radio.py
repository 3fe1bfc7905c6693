"""Link physics checked by hand arithmetic and brute-force recomputation:
the package's path gains and fading draws, and the radio-layer scoring
oracle (tests/oracles.py) that the tables are checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare.geometry import CellularUser, MulticastGroup, NetworkScenario, generate_scenario
from mgshare.outage import MCLink, mc_outage, outage_mg
from mgshare.params import PATH_LOSS_EXPONENT, SIR_CAP, SimParams
from mgshare.radio import (
    FadingRealization,
    PowerVector,
    draw_fading,
    path_gain,
    scenario_links,
)
from mgshare.seeds import rng_for
from oracles import rate, sir_cu, sir_group, sir_mg_receiver, sum_throughput


# ---------------------------------------------------------------------------
# path gain


def test_path_gain_values():
    assert PATH_LOSS_EXPONENT == 4.0
    assert path_gain(1.0) == 1.0
    assert isinstance(path_gain(10.0), float)
    assert path_gain(10.0) == pytest.approx(1e-4)


@given(d=st.floats(1.0, 1e4))
def test_path_gain_doubling(d):
    assert path_gain(2 * d) == pytest.approx(path_gain(d) * 2.0**-4.0)


def test_path_gain_clamps_short_links():
    assert path_gain(0.25) == 1.0  # evaluated at the 1 m guard
    assert path_gain(np.array([0.1, 5.0, 0.9])).tolist() == [1.0, 5.0**-4.0, 1.0]


# ---------------------------------------------------------------------------
# hand-built single-channel instance: 1 CU, 1 group, 1 member


def _tiny_scenario():
    p = SimParams(num_channels=1, num_groups=1)
    cu_pos = np.array([100.0, 0.0])
    cus = [CellularUser(position=cu_pos)]
    tx = np.array([0.0, 50.0])
    member = np.array([[0.0, 40.0]])
    groups = [MulticastGroup(id=0, tx_position=tx, receivers=member)]
    scn = NetworkScenario(params=p, cus=cus, groups=groups, scenario_seed=0)
    fading = FadingRealization(
        h_cu_bs=np.array([1.5]),
        h_mg_bs=np.array([[0.7]]),
        h_cu_rx=np.array([[0.5]]),
        h_mg_rx=np.array([[[2.0]]]),
    )
    # CU power is large so every uncapped ratio here, and its 3x boost in the
    # scaling test, stays below the SIR clip.
    powers = PowerVector(cu_power_w=np.array([20.0]), mg_power_w=np.array([1.0]))
    return scn, fading, powers


def test_sir_mg_receiver_hand_value():
    scn, fading, powers = _tiny_scenario()
    got = sir_mg_receiver(scn, fading, powers, [0], 0, 0, 0)
    # signal: 1 W * h 2.0 * 10^-4; interference: CU at (100,0) to (0,40)
    d_int = math.hypot(100.0, -40.0)
    expect = (1.0 * 2.0 * 10.0**-4) / (20.0 * 0.5 * d_int**-4)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == sir_group(scn, fading, powers, [0], 0, 0)  # single member


def test_sir_mg_power_scaling():
    scn, fading, powers = _tiny_scenario()
    base = sir_mg_receiver(scn, fading, powers, [0], 0, 0, 0)
    boosted = PowerVector(powers.cu_power_w, powers.mg_power_w * 3.0)
    assert sir_mg_receiver(scn, fading, boosted, [0], 0, 0, 0) == pytest.approx(
        3.0 * base, rel=1e-12
    )
    both = PowerVector(powers.cu_power_w * 3.0, powers.mg_power_w * 3.0)
    assert sir_mg_receiver(scn, fading, both, [0], 0, 0, 0) == pytest.approx(
        base, rel=1e-12
    )


def test_sir_cu_hand_value_and_cap():
    scn, fading, powers = _tiny_scenario()
    got = sir_cu(scn, fading, powers, [0], 0)
    d_gb = math.hypot(0.0, 50.0)
    expect = (20.0 * 1.5 * 100.0**-4) / (1.0 * 0.7 * d_gb**-4)
    assert got == pytest.approx(expect, rel=1e-12)
    # dropping the group empties the denominator: capped
    assert sir_cu(scn, fading, powers, [-1], 0) == SIR_CAP


def test_sir_mg_requires_matching_assignment():
    scn, fading, powers = _tiny_scenario()
    with pytest.raises(ValueError):
        sir_mg_receiver(scn, fading, powers, [-1], 0, 0, 0)
    with pytest.raises(IndexError):
        sir_mg_receiver(scn, fading, powers, [0], 0, 5, 0)


def test_sir_group_empty_group_errors():
    scn, fading, powers = _tiny_scenario()
    scn.groups.append(
        MulticastGroup(
            id=1,
            tx_position=np.array([10.0, 10.0]),
            receivers=np.empty((0, 2)),
        )
    )
    fading2 = FadingRealization(
        h_cu_bs=fading.h_cu_bs,
        h_mg_bs=np.vstack([fading.h_mg_bs, [[1.0]]]),
        h_cu_rx=fading.h_cu_rx,
        h_mg_rx=np.vstack([fading.h_mg_rx, np.ones((1, 1, 1))]),
    )
    powers2 = PowerVector(powers.cu_power_w, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        sir_group(scn, fading2, powers2, [0, 0], 1, 0)


# ---------------------------------------------------------------------------
# random instance versus a scalar-loop oracle


def _fading_gain(fading, tx, rx, channel):
    """Map view of a fading draw, with node keys ("cu", k), ("mg", g), ("bs",)
    and ("rx", j), j the flat receiver index of the links table."""
    if tx[0] == "cu" and rx == ("bs",):
        if channel != tx[1]:
            raise KeyError("a CU transmits on its own channel only")
        return float(fading.h_cu_bs[tx[1]])
    if tx[0] == "mg" and rx == ("bs",):
        return float(fading.h_mg_bs[tx[1], channel])
    if tx[0] == "cu" and rx[0] == "rx":
        if channel != tx[1]:
            raise KeyError("a CU transmits on its own channel only")
        return float(fading.h_cu_rx[tx[1], rx[1]])
    if tx[0] == "mg" and rx[0] == "rx":
        return float(fading.h_mg_rx[tx[1], rx[1], channel])
    raise KeyError(f"no such link {tx} -> {rx}")


def _oracle_sir_tables(scn, links, fading, powers, assignment):
    """Recompute every SIR with explicit loops from raw positions."""
    p = scn.params
    cap = SIR_CAP

    def gain(d):
        return max(d, 1.0) ** -PATH_LOSS_EXPONENT

    offsets = np.concatenate(([0], np.cumsum([g.num_receivers for g in scn.groups])))
    mg_sirs = {}
    for g, grp in enumerate(scn.groups):
        k = assignment[g]
        if k < 0:
            continue
        for r, pos in enumerate(grp.receivers):
            j = offsets[g] + r
            sig = (
                powers.mg_power_w[g]
                * _fading_gain(fading, ("mg", g), ("rx", j), k)
                * gain(math.hypot(*(pos - grp.tx_position)))
            )
            cu = scn.cus[k]
            den = (
                powers.cu_power_w[k]
                * _fading_gain(fading, ("cu", k), ("rx", j), k)
                * gain(math.hypot(*(pos - cu.position)))
            )
            for g2, grp2 in enumerate(scn.groups):
                if g2 != g and assignment[g2] == k:
                    den += (
                        powers.mg_power_w[g2]
                        * _fading_gain(fading, ("mg", g2), ("rx", j), k)
                        * gain(math.hypot(*(pos - grp2.tx_position)))
                    )
            mg_sirs[(g, r)] = cap if den == 0 else min(sig / den, cap)
    cu_sirs = {}
    for k, cu in enumerate(scn.cus):
        sig = (
            powers.cu_power_w[k]
            * _fading_gain(fading, ("cu", k), ("bs",), k)
            * gain(math.hypot(*cu.position))
        )
        den = 0.0
        for g, grp in enumerate(scn.groups):
            if assignment[g] == k:
                den += (
                    powers.mg_power_w[g]
                    * _fading_gain(fading, ("mg", g), ("bs",), k)
                    * gain(math.hypot(*grp.tx_position))
                )
        cu_sirs[k] = cap if den == 0 else min(sig / den, cap)
    return mg_sirs, cu_sirs


def _random_instance(index=1):
    p = SimParams()
    scn = generate_scenario(p, index)
    links = scenario_links(scn)
    rng = rng_for(555, index)
    fading = draw_fading(links, rng)
    G = links.num_groups
    assignment = rng.integers(-1, p.num_channels, size=G)
    powers = PowerVector(
        cu_power_w=rng.uniform(0.1, 1.0, p.num_channels),
        mg_power_w=rng.uniform(0.01, 1.0, G),
    )
    return scn, links, fading, powers, assignment


def test_sir_matches_bruteforce_oracle():
    scn, links, fading, powers, assignment = _random_instance()
    mg_sirs, cu_sirs = _oracle_sir_tables(scn, links, fading, powers, assignment)
    assert mg_sirs  # the draw leaves at least one group assigned
    for (g, r), want in mg_sirs.items():
        got = sir_mg_receiver(links, fading, powers, assignment, g, r, assignment[g])
        assert got == pytest.approx(want, rel=1e-12)
    for k, want in cu_sirs.items():
        assert sir_cu(links, fading, powers, assignment, k) == pytest.approx(
            want, rel=1e-12
        )
    # worst-member reduction
    for g in range(links.num_groups):
        k = assignment[g]
        if k < 0:
            continue
        members = [mg_sirs[(g, r)] for r in range(scn.groups[g].num_receivers)]
        got = sir_group(links, fading, powers, assignment, g, k)
        assert got == pytest.approx(min(members), rel=1e-12)
        assert all(got <= m * (1 + 1e-12) for m in members)


def test_added_interferer_never_raises_sir():
    # find a draw with both a dropped group and a channel with an assigned one
    for index in range(2, 12):
        scn, links, fading, powers, assignment = _random_instance(index=index)
        dropped = [g for g in range(links.num_groups) if assignment[g] < 0]
        active = [g for g in range(links.num_groups) if assignment[g] >= 0]
        if dropped and active:
            break
    else:
        pytest.skip("no draw gave a dropped/active split")
    k = assignment[active[0]]
    before_cu = sir_cu(links, fading, powers, assignment, k)
    before_mg = [
        sir_group(links, fading, powers, assignment, g, k)
        for g in active
        if assignment[g] == k
    ]
    a2 = np.array(assignment)
    a2[dropped[0]] = k
    after_cu = sir_cu(links, fading, powers, a2, k)
    after_mg = [
        sir_group(links, fading, powers, a2, g, k) for g in active if a2[g] == k
    ]
    assert after_cu <= before_cu
    assert all(a <= b for a, b in zip(after_mg, before_mg))


# ---------------------------------------------------------------------------
# rates


def test_rate_values():
    assert rate(3.0, 1.0) == pytest.approx(2.0)  # log2(4)
    assert rate(0.5, 1.0) == 0.0
    assert rate(1.0, 1.0) == 1.0  # the threshold itself decodes


def test_analytic_rate_matches_fading_average():
    # Fixed reference rate, random indicator: the closed-form success factor
    # should match the Monte Carlo decode frequency on the same field, so the
    # area rate density * log2(1 + gamma_th) * success agrees within 5 %.
    gamma_th = 10.0**2.5
    kw = dict(cu_density=1.2e-5, mg_density=1.2e-5, p_c=1.0, p_g=1.0,
              guard=50.0, link_d=30.0, threshold=gamma_th)
    succ_closed = 1.0 - outage_mg(**kw)
    est = mc_outage(MCLink(kind="mg", **kw), 20_000, rng_for(901, 1))
    succ_mc = 1.0 - est.outage
    per_link = 1.2e-5 * math.log2(1.0 + gamma_th)
    assert per_link * succ_closed == pytest.approx(per_link * succ_mc, rel=0.05)


# ---------------------------------------------------------------------------
# sum throughput


def test_sum_throughput_no_groups_is_cu_only():
    p = SimParams(num_groups=0, receiver_density_per_m2=1e-4)
    scn = generate_scenario(p, 0)
    links = scenario_links(scn)
    fading = draw_fading(links, rng_for(7, 0))
    powers = PowerVector(np.full(p.num_channels, 0.5), np.zeros(0))
    got = sum_throughput(scn, fading, powers, np.zeros(0, dtype=int))
    # every CU is alone on its channel: capped SIR on all three
    expect = p.num_channels * math.log2(1.0 + SIR_CAP)
    assert got == pytest.approx(expect)


def test_sum_throughput_additivity_single_pair():
    scn, fading, powers = _tiny_scenario()
    links = scenario_links(scn)
    a = [0]
    want = rate(
        sir_cu(links, fading, powers, a, 0), scn.params.cu_sir_threshold
    ) + rate(
        sir_group(links, fading, powers, a, 0, 0), scn.params.mg_sir_threshold
    )
    assert sum_throughput(scn, fading, powers, a) == pytest.approx(want, rel=1e-12)


def _oracle_sum_throughput(scn, fading, powers, assignment):
    p = scn.params
    mg_sirs, cu_sirs = _oracle_sir_tables(scn, scenario_links(scn), fading, powers, assignment)
    total = 0.0
    for k, gam in cu_sirs.items():
        if gam >= p.cu_sir_threshold:
            total += math.log2(1.0 + gam)
    for g, grp in enumerate(scn.groups):
        if assignment[g] < 0:
            continue
        worst = min(mg_sirs[(g, r)] for r in range(grp.num_receivers))
        if worst >= p.mg_sir_threshold:
            total += math.log2(1.0 + worst)
    return total


def test_sum_throughput_matches_bruteforce():
    scn, links, fading, powers, assignment = _random_instance(index=3)
    got = sum_throughput(scn, fading, powers, assignment)
    want = _oracle_sum_throughput(scn, fading, powers, assignment)
    assert got == pytest.approx(want, rel=1e-12)


def test_sum_throughput_permutation_symmetry():
    scn, links, fading, powers, assignment = _random_instance(index=4)
    base = sum_throughput(scn, fading, powers, assignment)
    rng = np.random.default_rng(12)
    gperm = rng.permutation(links.num_groups)       # new g <- old gperm[g]
    cperm = rng.permutation(scn.params.num_channels)
    inv_c = np.argsort(cperm)
    sizes = [scn.groups[g].num_receivers for g in range(links.num_groups)]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rx_idx = np.concatenate(
        [np.arange(offsets[g], offsets[g] + sizes[g]) for g in gperm]
    ).astype(int)
    scn2 = NetworkScenario(
        params=scn.params,
        cus=[scn.cus[cperm[k]] for k in range(scn.params.num_channels)],
        groups=[scn.groups[g] for g in gperm],
        scenario_seed=scn.scenario_seed,
    )
    fading2 = FadingRealization(
        h_cu_bs=fading.h_cu_bs[cperm],
        h_mg_bs=fading.h_mg_bs[gperm][:, cperm],
        h_cu_rx=fading.h_cu_rx[cperm][:, rx_idx],
        h_mg_rx=fading.h_mg_rx[gperm][:, rx_idx][:, :, cperm],
    )
    powers2 = PowerVector(
        cu_power_w=powers.cu_power_w[cperm],
        mg_power_w=powers.mg_power_w[gperm],
    )
    assignment2 = np.array(
        [inv_c[assignment[g]] if assignment[g] >= 0 else -1 for g in gperm]
    )
    got = sum_throughput(scn2, fading2, powers2, assignment2)
    assert got == pytest.approx(base, rel=1e-12)


def test_draw_fading_deterministic_and_positive():
    p = SimParams()
    scn = generate_scenario(p, 6)
    links = scenario_links(scn)
    f1 = draw_fading(links, rng_for(99, 6))
    f2 = draw_fading(links, rng_for(99, 6))
    for a, b in [
        (f1.h_cu_bs, f2.h_cu_bs),
        (f1.h_mg_bs, f2.h_mg_bs),
        (f1.h_cu_rx, f2.h_cu_rx),
        (f1.h_mg_rx, f2.h_mg_rx),
    ]:
        np.testing.assert_array_equal(a, b)
        assert (a > 0).all()
    # exponential mean ~ 1 (few hundred draws in this scenario, so loose)
    assert f1.h_mg_rx.mean() == pytest.approx(1.0, abs=0.2)
