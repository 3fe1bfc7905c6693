"""Feasible transmit-power intervals for multicast transmitters.

Both outage constraints translate into power bounds. The CU constraint
inverts exactly: the CU outage form is monotone in the multicast power, so
`group_power_cap` is the unique power at which the CU outage equals its
budget. The receiver-side constraint only yields an approximate closed-form
floor (`group_power_floor`); its derivation drops terms, so it is validated
against a bisection oracle in the tests rather than trusted as exact.

Each bound is written once, for path loss exponent 4, and `power_interval`
clamps the pair to the transmit limit. `bisect_outage_root`,
`cap_root_residual` and `floor_root_comparison` are the numeric oracles the
validate-lemmas command and the tests check the bounds against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .outage import outage_cu, outage_mg


def group_power_floor(
    cu_density: float,
    mg_density: float,
    p_c: float,
    guard: float,
    link_d: float,
    threshold: float,
    outage_budget: float,
    alpha: float = 4.0,
) -> float:
    """Approximate minimum multicast power meeting the receiver outage budget.

    Returns +inf when the denominator -ln(1-budget) -
    mg_density*(pi^2/2)*sqrt(th*d^alpha) + th*d^alpha*guard^(2-alpha)*
    cu_density*pi is nonpositive, the bound's own report that the budget is
    unreachable. The report is optimistic: the exact power-independent
    unreachability condition is -ln(1-budget) <= mg_density*(pi^2/2)*
    sqrt(th*d^alpha) (the plane factor alone), and the denominator's third
    term can keep it positive past that point. Where the receiver constraint
    binds, this floor sits far below the true root of the outage equation
    (safe but loose); the tests quantify both effects.

    The numerator is cu_density*pi*sqrt(p_c)*sqrt(4*th*d^alpha*p_c*guard^-alpha),
    as the bound's derivation chain produces it.
    """
    if not math.isclose(alpha, 4.0, abs_tol=1e-12):
        raise ValueError("closed-form power bounds require path loss exponent 4")
    if not (0.0 < outage_budget < 1.0):
        raise ValueError("outage budget must lie in (0, 1)")
    if guard <= 0:
        raise ValueError("guard radius must be positive")
    for name, v in dict(
        cu_density=cu_density, mg_density=mg_density, p_c=p_c,
        link_d=link_d, threshold=threshold,
    ).items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")

    gd = threshold * link_d**alpha
    denom = (
        -math.log1p(-outage_budget)
        - mg_density * (math.pi**2 / 2.0) * math.sqrt(gd)
        + gd * guard ** (2.0 - alpha) * cu_density * math.pi
    )
    if denom <= 0.0:
        return math.inf
    num = cu_density * math.pi * math.sqrt(p_c) * math.sqrt(
        4.0 * gd * p_c * guard ** (-alpha)
    )
    return num / denom


def group_power_cap(
    mg_density: float,
    p_c: float,
    d_cb: float,
    threshold: float,
    outage_budget: float,
    alpha: float = 4.0,
) -> float:
    """Maximum multicast power keeping the CU outage at its budget.

    p_c * (-2*ln(1-budget) / (mg_density * pi^2 * sqrt(th) * d_cb^(alpha/2)))^2,
    the exact inversion of the CU outage form. +inf when any factor of the
    interference term vanishes or the square overflows (no binding
    constraint).
    """
    if not math.isclose(alpha, 4.0, abs_tol=1e-12):
        raise ValueError("closed-form power bounds require path loss exponent 4")
    if not (0.0 < outage_budget < 1.0):
        raise ValueError("outage budget must lie in (0, 1)")
    if mg_density < 0 or p_c < 0 or d_cb < 0 or threshold < 0:
        raise ValueError("parameters must be nonnegative")
    # Python floats, so that an overflowing square raises instead of warning
    interference = mg_density * math.pi**2 * math.sqrt(threshold) * float(d_cb) ** (alpha / 2.0)
    if interference == 0.0:  # a vanishing factor, or an underflowing product
        return math.inf
    ratio = -2.0 * math.log1p(-outage_budget) / interference
    try:
        return p_c * ratio**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PowerBounds:
    """Raw and clamped feasible interval for one multicast transmitter."""

    p_low_w: float
    p_high_w: float
    p_inf_w: float
    p_sup_w: float
    feasible: bool


def power_interval(
    cu_density: float,
    mg_density: float,
    p_c: float,
    guard: float,
    link_d: float,
    mg_threshold: float,
    mg_budget: float,
    d_cb: float,
    cu_threshold: float,
    cu_budget: float,
    max_power_w: float,
    alpha: float = 4.0,
) -> PowerBounds:
    """Clamp the floor/cap to [0, max_power_w] and test feasibility.

    p_inf = max(0, floor); p_sup = min(max_power, cap); feasible iff
    p_inf <= p_sup. A nonpositive floor denominator gives floor = +inf and
    therefore infeasible; see group_power_floor for why that report can be
    optimistic.
    """
    p_low = group_power_floor(
        cu_density, mg_density, p_c, guard, link_d, mg_threshold, mg_budget, alpha
    )
    p_high = group_power_cap(mg_density, p_c, d_cb, cu_threshold, cu_budget, alpha)
    p_inf = max(0.0, p_low)
    p_sup = min(max_power_w, p_high)
    return PowerBounds(
        p_low_w=p_low,
        p_high_w=p_high,
        p_inf_w=p_inf,
        p_sup_w=p_sup,
        feasible=p_inf <= p_sup,
    )


def bisect_outage_root(
    outage_fn,
    target: float,
    p_lo: float = 1e-12,
    p_hi: float = 1e9,
    iters: int = 200,
) -> float | None:
    """Power at which a monotone outage function crosses `target`.

    Handles both orientations (receiver outage falls with own power, CU
    outage rises with interferer power). Returns None when no sign change
    exists in [p_lo, p_hi]. Used as the independent oracle for the
    closed-form bounds.
    """
    f_lo = outage_fn(p_lo) - target
    f_hi = outage_fn(p_hi) - target
    if f_lo == 0.0:
        return p_lo
    if f_hi == 0.0:
        return p_hi
    if f_lo * f_hi > 0.0:
        return None
    lo, hi = p_lo, p_hi
    for _ in range(iters):
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
    alpha: float = 4.0,
) -> float:
    """|outage_cu(cap) - budget| / budget: how exactly the cap inverts the
    CU outage form. Used by the validation CLI; should be ~1e-15."""
    cap = group_power_cap(mg_density, p_c, d_cb, threshold, outage_budget, alpha)
    if not math.isfinite(cap):
        return 0.0
    got = outage_cu(mg_density, cap, p_c, d_cb, threshold, alpha)
    return abs(got - outage_budget) / outage_budget


def floor_root_comparison(
    cu_density: float,
    mg_density: float,
    p_c: float,
    guard: float,
    link_d: float,
    threshold: float,
    outage_budget: float,
    alpha: float = 4.0,
) -> tuple[float, float | None]:
    """(closed-form floor, bisection root of the receiver outage equation).

    The root is None whenever the budget is unreachable (the outage floor
    1 - plane_factor already exceeds the budget, which no power can fix).
    """
    closed = group_power_floor(
        cu_density, mg_density, p_c, guard, link_d, threshold, outage_budget, alpha
    )
    root = bisect_outage_root(
        lambda p: outage_mg(
            cu_density, mg_density, p_c, p, guard, link_d, threshold, alpha
        ),
        outage_budget,
    )
    return closed, root
