"""Closed-form outage probabilities and their Monte Carlo oracle.

The interference field has two parts: co-channel cellular uplink
transmitters, which receivers keep a guard distance D away from (exclusion
zones), and co-channel multicast transmitters, which can be anywhere. Under
Rayleigh fading and a d^-4 power law (``params.PATH_LOSS_EXPONENT``), each
part contributes a Laplace functional factor to the success probability of
the tagged link. The closed forms below exist only at that exponent.

The guard-zone factor, `annulus_laplace`, is the exact evaluation of the
guard-zone integral; it is monotone in every parameter and stays in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PATH_LOSS_EXPONENT

# Trials drawn per batch by `mc_outage`; it fixes the order of the draws,
# and so the estimates a given rng state yields.
_MC_CHUNK = 4000


def _check_nonneg(**kw: float) -> None:
    for name, v in kw.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative, got {v}")


def plane_laplace(density: float, power: float, s: float) -> float:
    """Interference Laplace functional of a full-plane field at argument s.

    exp(-density * (pi^2/2) * sqrt(power * s)). `power` is the per-interferer
    transmit power; `s` is the Laplace argument, typically
    threshold * d^4 / signal_power.
    """
    _check_nonneg(density=density, power=power, s=s)
    return math.exp(-density * (math.pi**2 / 2.0) * math.sqrt(power * s))


def annulus_laplace(density: float, power: float, s: float, guard: float) -> float:
    """Interference Laplace functional of a field kept outside radius `guard`.

    Exact evaluation:
        exp(-density * pi * sqrt(power*s) * arctan(sqrt(power*s) / guard^2)).
    In (0, 1]; nonincreasing in density, power and s; nondecreasing in guard.
    """
    _check_nonneg(density=density, power=power, s=s)
    if guard <= 0:
        raise ValueError("guard radius must be positive")
    ps = power * s
    if ps == 0.0 or density == 0.0:
        return 1.0
    root = math.sqrt(ps)
    return math.exp(-density * math.pi * root * math.atan(root / guard**2))


def outage_mg(
    cu_density: float,
    mg_density: float,
    p_c: float,
    p_g: float,
    guard: float,
    link_d: float,
    threshold: float,
) -> float:
    """Outage probability of a multicast receiver at distance `link_d` from
    its transmitter, with co-channel CU and multicast interference fields.

    1 - guard_zone_factor * plane_factor, evaluated at
    s = threshold * link_d^4 / p_g. The plane factor is independent of
    p_g (the interferer and signal powers cancel).
    """
    _check_nonneg(
        cu_density=cu_density,
        mg_density=mg_density,
        p_c=p_c,
        p_g=p_g,
        link_d=link_d,
        threshold=threshold,
    )
    if p_g <= 0:
        return 1.0 if threshold > 0 else 0.0
    s = threshold * link_d**PATH_LOSS_EXPONENT / p_g
    # interferer and signal powers cancel in the plane factor; evaluating the
    # cancelled form keeps it bitwise constant across p_g
    l_plane = plane_laplace(mg_density, 1.0, threshold * link_d**PATH_LOSS_EXPONENT)
    return 1.0 - annulus_laplace(cu_density, p_c, s, guard) * l_plane


def outage_cu(
    mg_density: float,
    p_g: float,
    p_c: float,
    d_cb: float,
    threshold: float,
) -> float:
    """Outage probability of a cellular uplink at distance `d_cb` from the
    base station under the co-channel multicast interference field.

    1 - exp(-mg_density * (pi^2/2) * sqrt(p_g * threshold * d_cb^4 / p_c)).
    Nondecreasing in p_g and mg_density, nonincreasing in p_c. The p_c -> 0
    limit is 1.
    """
    _check_nonneg(
        mg_density=mg_density, p_g=p_g, p_c=p_c, d_cb=d_cb, threshold=threshold
    )
    if p_c <= 0:
        return 1.0 if threshold > 0 and mg_density > 0 and p_g > 0 else 0.0
    s = threshold * d_cb**PATH_LOSS_EXPONENT / p_c
    return 1.0 - plane_laplace(mg_density, p_g, s)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


@dataclass(frozen=True)
class MCLink:
    """Description of one tagged link for the Monte Carlo estimator.

    kind "mg": receiver at the origin, serving multicast transmitter at
    `link_d`; CU interferers form a Poisson field confined to the annulus
    [guard, sim_radius] (the receiver sits outside every exclusion zone);
    multicast interferers form an unrestricted Poisson field in the disk.

    kind "cu": base station at the origin, tagged CU at `link_d`; multicast
    interferers form an unrestricted Poisson field in the disk.

    No distance clamping is applied: the estimator mirrors the analytic
    field model exactly, including the singular power law near the origin.
    """

    kind: str  # "mg" | "cu"
    cu_density: float = 0.0
    mg_density: float = 0.0
    p_c: float = 1.0
    p_g: float = 1.0
    guard: float = 1.0
    link_d: float = 1.0
    threshold: float = 10.0
    sim_radius: float = 3000.0


@dataclass(frozen=True)
class MCEstimate:
    outage: float
    halfwidth95: float
    n_trials: int


def _field_interference(
    rng: np.random.Generator,
    n_trials: int,
    density: float,
    power: float,
    r_min: float,
    r_max: float,
) -> np.ndarray:
    """Per-trial interference sums from a Poisson field in [r_min, r_max]."""
    out = np.zeros(n_trials)
    if density <= 0 or power <= 0 or r_max <= r_min:
        return out
    area = math.pi * (r_max**2 - r_min**2)
    counts = rng.poisson(density * area, size=n_trials)
    total = int(counts.sum())
    if total == 0:
        return out
    # radii with density proportional to r on [r_min, r_max]
    u = rng.random(total)
    r2 = r_min**2 + u * (r_max**2 - r_min**2)
    fading = rng.standard_exponential(total)
    contrib = power * fading * r2 ** (-PATH_LOSS_EXPONENT / 2.0)
    idx = np.repeat(np.arange(n_trials), counts)
    np.add.at(out, idx, contrib)
    return out


def mc_outage(link: MCLink, n_trials: int, rng: np.random.Generator) -> MCEstimate:
    """Empirical outage fraction over independent field + fading draws,
    with a 95% binomial confidence halfwidth."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if link.kind not in ("mg", "cu"):
        raise ValueError(f"unknown link kind {link.kind!r}")
    failures = 0
    done = 0
    while done < n_trials:
        m = min(_MC_CHUNK, n_trials - done)
        sig_power = link.p_g if link.kind == "mg" else link.p_c
        fading = rng.standard_exponential(m)
        signal = sig_power * fading * link.link_d ** (-PATH_LOSS_EXPONENT)
        interference = np.zeros(m)
        if link.kind == "mg":
            interference += _field_interference(
                rng, m, link.cu_density, link.p_c, link.guard, link.sim_radius
            )
        interference += _field_interference(
            rng, m, link.mg_density, link.p_g, 0.0, link.sim_radius
        )
        with np.errstate(divide="ignore"):
            sir = np.where(interference > 0, signal / interference, np.inf)
        failures += int(np.count_nonzero(sir < link.threshold))
        done += m
    p_hat = failures / n_trials
    hw = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_trials)
    return MCEstimate(outage=p_hat, halfwidth95=hw, n_trials=n_trials)
