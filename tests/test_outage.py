"""Closed-form outage probabilities against independent oracles.

Frozen literals below were produced by the arbitrary-precision / quadrature
oracles in this file before the library forms were trusted; the tests keep
both the literals and the live oracle comparisons.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mgshare.outage import (
    MCLink,
    annulus_laplace,
    mc_outage,
    outage_cu,
    outage_mg,
    plane_laplace,
)
from mgshare.seeds import rng_for

GAMMA_25DB = 10.0**2.5
GAMMA_6DB = 10.0**0.6

MG_POINT = dict(
    cu_density=2e-5,
    mg_density=2e-5,
    p_c=1.0,
    p_g=1.0,
    guard=50.0,
    link_d=25.0,
    threshold=GAMMA_25DB,
)
CU_POINT = dict(mg_density=2e-5, p_g=1.0, p_c=1.0, d_cb=200.0, threshold=GAMMA_6DB)


# ---------------------------------------------------------------------------
# plane factor


def test_plane_laplace_trivials():
    assert plane_laplace(0.0, 1.0, 1e9) == 1.0
    assert plane_laplace(1e-5, 1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        plane_laplace(-1e-5, 1.0, 1.0)


def test_plane_laplace_highprecision_point():
    # lam=2e-5, threshold 25 dB, d=30, alpha=4
    s = GAMMA_25DB * 30.0**4
    val = plane_laplace(2e-5, 1.0, s)
    assert val == pytest.approx(0.20606115480745077, abs=1e-15)
    mp.mp.dps = 50
    hp = mp.e ** (
        -mp.mpf("2e-5")
        * mp.pi**2
        / 2
        * mp.sqrt(mp.mpf(10) ** mp.mpf("2.5") * mp.mpf(30) ** 4)
    )
    assert abs(val - float(hp)) < 1e-12


def test_plane_factor_power_cancellation():
    # with s = threshold * d^4 / p, the factor is independent of p
    base = None
    for p in [1e-6, 1e-3, 0.5, 1.0, 7.3, 40.0]:
        v = plane_laplace(2e-5, p, GAMMA_25DB * 30.0**4 / p)
        if base is None:
            base = v
        assert v == pytest.approx(base, rel=1e-13)


# ---------------------------------------------------------------------------
# guard-zone factor


def test_annulus_laplace_trivials():
    assert annulus_laplace(0.0, 1.0, 1e9, 50.0) == 1.0
    # vanishing interference as the guard radius grows
    assert annulus_laplace(1e-5, 1.0, 1e8, 1e9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        annulus_laplace(1e-5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        annulus_laplace(1e-5, 1.0, 1.0, -3.0)


def test_annulus_laplace_quadrature_oracle():
    # lam_c=1.2e-5, p_c=1, D=50, threshold 25 dB, d=30, alpha=4
    s = GAMMA_25DB * 30.0**4
    val = annulus_laplace(1.2e-5, 1.0, s, 50.0)
    assert val == pytest.approx(0.4255992431382819, abs=1e-14)
    integral, _ = quad(
        lambda r: r * (s * r**-4) / (1.0 + s * r**-4), 50.0, math.inf
    )
    oracle = math.exp(-1.2e-5 * 2.0 * math.pi * integral)
    assert val == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    lam=st.floats(1e-8, 1e-3),
    p=st.floats(1e-3, 100.0),
    s=st.floats(1e-2, 1e12),
    guard=st.floats(1.0, 1e4),
)
def test_annulus_laplace_range_and_monotonicity(lam, p, s, guard):
    v = annulus_laplace(lam, p, s, guard)
    # mathematically in (0, 1]; extreme exponents may underflow to 0.0
    assert 0.0 <= v <= 1.0
    assert annulus_laplace(2.0 * lam, p, s, guard) <= v
    assert annulus_laplace(lam, 2.0 * p, s, guard) <= v
    assert annulus_laplace(lam, p, s, 2.0 * guard) >= v


# ---------------------------------------------------------------------------
# receiver outage


def test_outage_mg_trivials_and_errors():
    assert outage_mg(0.0, 0.0, 1.0, 1.0, 50.0, 25.0, GAMMA_25DB) == 0.0
    assert outage_mg(1e-5, 1e-5, 1.0, 0.0, 50.0, 25.0, GAMMA_25DB) == 1.0
    with pytest.raises(ValueError):
        outage_mg(-1e-5, 0.0, 1.0, 1.0, 50.0, 25.0, GAMMA_25DB)


def test_outage_mg_pinned_values():
    assert outage_mg(**MG_POINT) == pytest.approx(0.8698875560969601, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    lam_c=st.floats(0.0, 1e-4),
    lam_g=st.floats(0.0, 1e-4),
    p_g=st.floats(1e-3, 10.0),
    th=st.floats(1e-2, 1e4),
)
def test_outage_mg_monotonicities(lam_c, lam_g, p_g, th):
    base = dict(p_c=1.0, guard=50.0, link_d=25.0)
    v = outage_mg(lam_c, lam_g, p_g=p_g, threshold=th, **base)
    assert 0.0 <= v <= 1.0
    assert outage_mg(lam_c * 2 + 1e-9, lam_g, p_g=p_g, threshold=th, **base) >= v
    assert outage_mg(lam_c, lam_g * 2 + 1e-9, p_g=p_g, threshold=th, **base) >= v
    assert outage_mg(lam_c, lam_g, p_g=p_g, threshold=th * 1.5, **base) >= v
    assert outage_mg(lam_c, lam_g, p_g=p_g * 1.5, threshold=th, **base) <= v


def test_outage_mg_vs_monte_carlo():
    est = mc_outage(
        MCLink(kind="mg", sim_radius=3000.0, **MG_POINT), 20000, rng_for(777, 1)
    )
    closed = outage_mg(**MG_POINT)
    assert abs(closed - est.outage) <= 0.05


# ---------------------------------------------------------------------------
# CU outage


def test_outage_cu_trivials():
    assert outage_cu(0.0, 1.0, 1.0, 200.0, GAMMA_6DB) == 0.0
    assert outage_cu(1e-5, 1.0, 0.0, 200.0, GAMMA_6DB) == 1.0
    v1 = outage_cu(2e-5, 1.0, 1.0, 200.0, GAMMA_6DB)
    v4 = outage_cu(2e-5, 1.0, 4.0, 200.0, GAMMA_6DB)
    assert v4 < v1


def test_outage_cu_pinned_value_and_mc():
    closed = outage_cu(**CU_POINT)
    assert closed == pytest.approx(0.9996206229111203, rel=1e-12)
    link = MCLink(
        kind="cu",
        mg_density=CU_POINT["mg_density"],
        p_g=CU_POINT["p_g"],
        p_c=CU_POINT["p_c"],
        link_d=CU_POINT["d_cb"],
        threshold=CU_POINT["threshold"],
        sim_radius=3000.0,
    )
    est = mc_outage(link, 20000, rng_for(778, 2))
    assert abs(closed - est.outage) <= 0.05
    # the estimate's confidence interval brackets the closed form
    assert abs(closed - est.outage) <= est.halfwidth95


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(1e-8, 1e-4),
    p_g=st.floats(1e-3, 10.0),
    th=st.floats(1e-2, 1e3),
)
def test_outage_cu_monotonicities(lam, p_g, th):
    v = outage_cu(lam, p_g, 1.0, 200.0, th)
    # strictly below 1 mathematically; may round to 1.0 in floats
    assert 0.0 <= v <= 1.0
    assert outage_cu(lam * 2, p_g, 1.0, 200.0, th) >= v
    assert outage_cu(lam, p_g * 2, 1.0, 200.0, th) >= v
    assert outage_cu(lam, p_g, 1.0, 200.0, th * 2) >= v


# ---------------------------------------------------------------------------
# Monte Carlo estimator mechanics


def test_mc_outage_zero_threshold_and_determinism():
    link = MCLink(kind="mg", threshold=0.0, link_d=25.0, cu_density=1e-5,
                  mg_density=1e-5, guard=50.0, sim_radius=1000.0)
    est = mc_outage(link, 2000, rng_for(5, 5))
    assert est.outage == 0.0
    a = mc_outage(MCLink(kind="mg", sim_radius=1000.0, **MG_POINT), 3000, rng_for(9, 9))
    b = mc_outage(MCLink(kind="mg", sim_radius=1000.0, **MG_POINT), 3000, rng_for(9, 9))
    assert a == b


def test_mc_outage_validation():
    with pytest.raises(ValueError):
        mc_outage(MCLink(kind="mg"), 0, rng_for(1))
    with pytest.raises(ValueError):
        mc_outage(MCLink(kind="bogus"), 10, rng_for(1))
