"""Power bound checks: the cap inverts the CU outage form exactly, the
floor is a documented approximation validated against a bisection oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare.outage import outage_cu, outage_mg
from mgshare.power import (
    PowerBounds,
    bisect_outage_root,
    cap_root_residual,
    floor_root_comparison,
    group_power_cap,
    group_power_floor,
    power_interval,
)

GAMMA_25DB = 10.0**2.5
GAMMA_6DB = 10.0**0.6


# ---------------------------------------------------------------------------
# cap: exact inversion


def test_cap_pinned_value_and_bisection():
    cap = group_power_cap(2e-5, 1.0, 200.0, GAMMA_6DB, 0.1)
    assert cap == pytest.approx(1.7891069449274286e-4, rel=1e-12)
    root = bisect_outage_root(
        lambda p: outage_cu(2e-5, p, 1.0, 200.0, GAMMA_6DB), 0.1
    )
    assert root == pytest.approx(cap, rel=1e-9)
    assert cap_root_residual(2e-5, 1.0, 200.0, GAMMA_6DB, 0.1) < 1e-12


def test_cap_trivial_limits():
    assert group_power_cap(0.0, 1.0, 200.0, GAMMA_6DB, 0.1) == math.inf
    assert group_power_cap(1e-5, 1.0, 200.0, 0.0, 0.1) == math.inf
    big = group_power_cap(1e-5, 1.0, 200.0, GAMMA_6DB, 1.0 - 1e-12)
    small = group_power_cap(1e-5, 1.0, 200.0, GAMMA_6DB, 0.01)
    assert big > small
    with pytest.raises(ValueError):
        group_power_cap(1e-5, 1.0, 200.0, GAMMA_6DB, 0.0)
    with pytest.raises(ValueError):
        group_power_cap(1e-5, 1.0, 200.0, GAMMA_6DB, 0.1, alpha=3.0)


def test_cap_is_inf_without_warning_when_the_square_overflows():
    # tiny density and threshold put ratio near 1e200; distances come in as
    # numpy scalars from the link tables
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert group_power_cap(1e-300, 1.0, np.float64(200.0), 1e-10, 0.1) == math.inf
        # the interference term underflows to 0.0: no division by zero
        assert group_power_cap(5e-324, 1.0, np.float64(1.0), 1e-300, 0.1) == math.inf
        assert group_power_cap(2e-5, 1.0, np.float64(200.0), GAMMA_6DB, 0.1) == (
            group_power_cap(2e-5, 1.0, 200.0, GAMMA_6DB, 0.1)
        )


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(1e-7, 1e-4),
    p_c=st.floats(1e-2, 10.0),
    d=st.floats(20.0, 450.0),
    th=st.floats(0.1, 100.0),
    budget=st.floats(0.01, 0.5),
)
def test_cap_inverts_cu_outage_exactly(lam, p_c, d, th, budget):
    cap = group_power_cap(lam, p_c, d, th, budget)
    assert outage_cu(lam, cap, p_c, d, th) == pytest.approx(budget, rel=1e-9)


# ---------------------------------------------------------------------------
# floor: approximation, documented defects


def test_floor_pinned_value():
    args = (2e-5, 2e-5, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1)
    assert group_power_floor(*args) == pytest.approx(2.6439485843058897e-4, rel=1e-12)


def test_floor_trivial_limits():
    # vacuous outage budget pushes the floor to 0
    v = group_power_floor(1e-6, 1e-7, 1.0, 50.0, 25.0, GAMMA_25DB, 1.0 - 1e-9)
    assert v == pytest.approx(0.0, abs=1e-5)
    # no CU field, nothing to overcome
    assert group_power_floor(0.0, 1e-7, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1) == 0.0
    # dense multicast field: denominator nonpositive, unreachable
    assert group_power_floor(1e-6, 1e-3, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1) == math.inf


def test_floor_at_documented_defect_point():
    """The closed-form floor stays finite at a point where the exact outage
    equation has no root at all.

    At (2e-5, 2e-5, D=50, d=25, 25 dB, budget 0.1) the plane factor alone
    gives outage 1 - 0.334 = 0.666 > 0.1 at every power, so no power can
    meet the budget; the formula's denominator misses that because its
    third term (+3.10) outweighs the honest part (0.105 - 1.097)."""
    closed, root = floor_root_comparison(2e-5, 2e-5, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1)
    assert root is None
    assert closed == pytest.approx(2.6439485843058897e-4, rel=1e-12)
    floor_outage = outage_mg(0.0, 2e-5, 1.0, 1.0, 50.0, 25.0, GAMMA_25DB)
    assert floor_outage > 0.1  # power-independent part already over budget


def test_floor_is_loose_lower_bound_where_root_exists():
    """Where the receiver constraint binds and a root exists, the formula
    floor sits below the root (safe), by a wide margin (loose)."""
    closed, root = floor_root_comparison(5e-7, 5e-7, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1)
    assert root is not None
    assert closed == pytest.approx(8.978764137831341e-5, rel=1e-10)
    assert root == pytest.approx(0.1122354554409009, rel=1e-6)
    assert closed < root


@settings(max_examples=60, deadline=None)
@given(
    lam_c=st.floats(1e-8, 2e-6),
    lam_g=st.floats(1e-8, 2e-6),
    d=st.floats(5.0, 30.0),
    guard=st.floats(20.0, 100.0),
    budget=st.floats(0.05, 0.3),
)
def test_floor_budget_implication_matches_root_side(lam_c, lam_g, d, guard, budget):
    """The formula floor lands on either side of the bisection root (random
    sweeps show undershoots of 1000x and overshoots past 10x, so no ratio
    bound holds).  What must hold is the monotone consequence: at the floor
    the receiver budget is met exactly when the floor sits at or above the
    root.  Outage is decreasing in serving power, so each side of the root
    maps to one side of the budget."""
    closed, root = floor_root_comparison(
        lam_c, lam_g, 1.0, guard, d, GAMMA_25DB, budget
    )
    if root is not None and math.isfinite(closed):
        at_floor = outage_mg(lam_c, lam_g, 1.0, closed, guard, d, GAMMA_25DB)
        if closed >= root:
            assert at_floor <= budget + 1e-9
        else:
            assert at_floor >= budget - 1e-9


# ---------------------------------------------------------------------------
# interval clamping


def test_power_interval_identities():
    b = power_interval(
        5e-7, 5e-7, 1.0, 50.0, 12.0, GAMMA_25DB, 0.1, 300.0, 1.0, 0.1, 1.0
    )
    assert isinstance(b, PowerBounds)
    assert b.p_inf_w == max(0.0, b.p_low_w)
    assert b.p_sup_w == min(1.0, b.p_high_w)
    assert b.feasible == (b.p_inf_w <= b.p_sup_w)
    assert b.feasible


def test_power_interval_infeasible_cases():
    # floor above the power limit
    b = power_interval(
        5e-5, 1e-8, 1.0, 5.0, 30.0, GAMMA_25DB, 0.01, 300.0, 1.0, 0.1, 1e-6
    )
    assert not b.feasible or b.p_inf_w <= b.p_sup_w
    # unreachable receiver budget: floor = +inf
    b2 = power_interval(
        1e-6, 1e-3, 1.0, 50.0, 25.0, GAMMA_25DB, 0.1, 300.0, 1.0, 0.1, 1.0
    )
    assert b2.p_low_w == math.inf
    assert not b2.feasible


def test_power_interval_wide_open():
    # no CU field and no multicast field: [0, P_G]
    b = power_interval(0.0, 0.0, 1.0, 50.0, 12.0, GAMMA_25DB, 0.1, 300.0, 1.0, 0.1, 2.0)
    assert b.p_inf_w == 0.0
    assert b.p_sup_w == 2.0
    assert b.feasible


@settings(max_examples=60, deadline=None)
@given(
    lam_c=st.floats(1e-8, 5e-6),
    lam_g=st.floats(1e-8, 5e-6),
    d_cb=st.floats(50.0, 450.0),
    budget_c=st.floats(0.02, 0.4),
)
def test_feasible_interval_respects_cu_budget_exactly(lam_c, lam_g, d_cb, budget_c):
    """feasible => CU outage at p_sup within budget (+1e-9): the cap side is
    an exact inversion, the power limit can only loosen it."""
    b = power_interval(
        lam_c, lam_g, 1.0, 50.0, 15.0, GAMMA_25DB, 0.1, d_cb, 1.0, budget_c, 1.0
    )
    if b.feasible and b.p_sup_w > 0:
        assert outage_cu(lam_g, b.p_sup_w, 1.0, d_cb, 1.0) <= budget_c + 1e-9
