"""Feasible transmit-power intervals for multicast transmitters.

Both outage constraints translate into power bounds. The CU constraint
inverts exactly: the CU outage form is monotone in the multicast power, so
`group_power_cap` is the unique power at which the CU outage equals its
budget. The receiver-side constraint only yields an approximate closed-form
floor (`group_power_floor`); its derivation drops terms, so it is validated
against a bisection oracle in the tests rather than trusted as exact.

Each bound is written once, at the model's path loss exponent 4
(``params.PATH_LOSS_EXPONENT``). The floor reads only the group (its
farthest member's distance) and the cap only the channel (its CU's
distance), so a scenario evaluates one floor per group and one cap per
channel, and `power_interval` clamps each (floor, cap) pair to the transmit
limit. `bisect_outage_root`, `cap_root_residual` and
`floor_root_comparison` are the numeric oracles the validate-lemmas command
and the tests check the bounds against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .outage import _check_nonneg, outage_cu, outage_mg
from .params import PATH_LOSS_EXPONENT

# Bisection bracket (W) and step count of `bisect_outage_root`.
_BISECT_LO_W = 1e-12
_BISECT_HI_W = 1e9
_BISECT_ITERS = 200


def group_power_floor(
    cu_density: float,
    mg_density: float,
    p_c: float,
    guard: float,
    link_d: float,
    threshold: float,
    outage_budget: float,
) -> float:
    """Approximate minimum multicast power meeting the receiver outage budget.

    Returns +inf when the denominator -ln(1-budget) -
    mg_density*(pi^2/2)*sqrt(th*d^4) + th*d^4*guard^(2-4)*cu_density*pi is
    nonpositive, the bound's own report that the budget is unreachable. The
    report is optimistic: the exact power-independent unreachability
    condition is -ln(1-budget) <= mg_density*(pi^2/2)*sqrt(th*d^4) (the
    plane factor alone), and the denominator's third term can keep it
    positive past that point. Where the receiver constraint binds, this
    floor sits far below the true root of the outage equation (safe but
    loose); the tests quantify both effects.

    The numerator is cu_density*pi*sqrt(p_c)*sqrt(4*th*d^4*p_c*guard^-4),
    as the bound's derivation chain produces it.
    """
    if not (0.0 < outage_budget < 1.0):
        raise ValueError("outage budget must lie in (0, 1)")
    if guard <= 0:
        raise ValueError("guard radius must be positive")
    _check_nonneg(
        cu_density=cu_density, mg_density=mg_density, p_c=p_c, link_d=link_d, threshold=threshold
    )

    gd = threshold * link_d**PATH_LOSS_EXPONENT
    denom = (
        -math.log1p(-outage_budget)
        - mg_density * (math.pi**2 / 2.0) * math.sqrt(gd)
        + gd * guard ** (2.0 - PATH_LOSS_EXPONENT) * cu_density * math.pi
    )
    if denom <= 0.0:
        return math.inf
    num = cu_density * math.pi * math.sqrt(p_c) * math.sqrt(
        4.0 * gd * p_c * guard ** (-PATH_LOSS_EXPONENT)
    )
    return num / denom


def group_power_cap(
    mg_density: float,
    p_c: float,
    d_cb: float,
    threshold: float,
    outage_budget: float,
) -> float:
    """Maximum multicast power keeping the CU outage at its budget.

    p_c * (-2*ln(1-budget) / (mg_density * pi^2 * sqrt(th) * d_cb^(4/2)))^2,
    the exact inversion of the CU outage form. +inf when any factor of the
    interference term vanishes or the square overflows (no binding
    constraint).
    """
    if not (0.0 < outage_budget < 1.0):
        raise ValueError("outage budget must lie in (0, 1)")
    _check_nonneg(mg_density=mg_density, p_c=p_c, d_cb=d_cb, threshold=threshold)
    # Python floats, so that an overflowing square raises instead of warning
    interference = mg_density * math.pi**2 * math.sqrt(threshold) * float(d_cb) ** (PATH_LOSS_EXPONENT / 2.0)
    if interference == 0.0:  # a vanishing factor, or an underflowing product
        return math.inf
    ratio = -2.0 * math.log1p(-outage_budget) / interference
    try:
        return p_c * ratio**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerBounds:
    """Clamped feasible interval for one multicast transmitter on one channel."""

    p_inf_w: float
    p_sup_w: float
    feasible: bool


def power_interval(p_low_w: float, p_high_w: float, max_power_w: float) -> PowerBounds:
    """Clamp a floor and a cap to [0, max_power_w] and test feasibility.

    p_inf = max(0, floor); p_sup = min(max_power, cap); feasible iff
    p_inf <= p_sup. The floor is `group_power_floor` at the group's farthest
    member and the cap `group_power_cap` at the channel CU's distance, each
    evaluated by the caller once per group or channel. A floor of +inf (an
    unreachable receiver budget) is therefore infeasible; see
    group_power_floor for why that report can be optimistic.
    """
    p_inf = max(0.0, p_low_w)
    p_sup = min(max_power_w, p_high_w)
    return PowerBounds(p_inf_w=p_inf, p_sup_w=p_sup, feasible=p_inf <= p_sup)


def bisect_outage_root(outage_fn, target: float) -> float | None:
    """Power at which a monotone outage function crosses `target`.

    Handles both orientations (receiver outage falls with own power, CU
    outage rises with interferer power). Returns None when no sign change
    exists in [_BISECT_LO_W, _BISECT_HI_W]. Used as the independent oracle
    for the closed-form bounds.
    """
    lo, hi = _BISECT_LO_W, _BISECT_HI_W
    f_lo = outage_fn(lo) - target
    f_hi = outage_fn(hi) - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        return None
    for _ in range(_BISECT_ITERS):
        mid = math.sqrt(lo * hi)
        if (outage_fn(mid) - target > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def cap_root_residual(
    mg_density: float,
    p_c: float,
    d_cb: float,
    threshold: float,
    outage_budget: float,
) -> float:
    """|outage_cu(cap) - budget| / budget: how exactly the cap inverts the
    CU outage form. Used by the validation CLI; should be ~1e-15."""
    cap = group_power_cap(mg_density, p_c, d_cb, threshold, outage_budget)
    if not math.isfinite(cap):
        return 0.0
    got = outage_cu(mg_density, cap, p_c, d_cb, threshold)
    return abs(got - outage_budget) / outage_budget


def floor_root_comparison(
    cu_density: float,
    mg_density: float,
    p_c: float,
    guard: float,
    link_d: float,
    threshold: float,
    outage_budget: float,
) -> tuple[float, float | None]:
    """(closed-form floor, bisection root of the receiver outage equation).

    The root is None whenever the budget is unreachable (the outage floor
    1 - plane_factor already exceeds the budget, which no power can fix).
    """
    closed = group_power_floor(
        cu_density, mg_density, p_c, guard, link_d, threshold, outage_budget
    )
    root = bisect_outage_root(
        lambda p: outage_mg(cu_density, mg_density, p_c, p, guard, link_d, threshold),
        outage_budget,
    )
    return closed, root
