"""Simulation parameters, model constants and unit helpers.

All distances are metres, powers are watts internally (dBm at the config
surface), densities are per square metre. Rates are spectral efficiencies
in bit/s/Hz, the unit the paper scores a cell by, so no bandwidth enters
the arithmetic.

The path loss exponent is the model constant PATH_LOSS_EXPONENT, not a
parameter, and rates have no bandwidth parameter either, so a config that
sets `path_loss_exponent` or `bandwidth_hz` is refused as an unknown key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


def db_to_linear(x_db):
    """10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def dbm_to_watt(x_dbm):
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


# Path loss d^-PATH_LOSS_EXPONENT. The Rayleigh-fading Laplace functionals
# of the PPP and Poisson hole interference fields, and hence the outage and
# power-interval closed forms, exist in closed form only at exponent 4.
PATH_LOSS_EXPONENT = 4.0

# Receivers closer than this to a transmitter see the d = D_MIN gain
# (keeps the singular path loss model bounded).
MIN_LINK_DISTANCE_M = 1.0

# Most candidate receivers a cell may expect (density times cell area). The
# sampler holds about 25 bytes per candidate; the defaults expect 6,283.
MAX_MEAN_CANDIDATES = 1e8

# SIR ceiling applied everywhere a ratio is turned into a rate. An
# interference-free link (e.g. a CU alone on its channel) would otherwise
# have infinite SIR; the cap models the receiver's finite dynamic range.
SIR_CAP_DB = 40.0
SIR_CAP = db_to_linear(SIR_CAP_DB)


@dataclass
class SimParams:
    """Scenario and experiment parameters with the artifact defaults.

    The closed-form field densities (``cu_density``, ``group_density``) are
    deliberately decoupled from the finite per-cell counts ``num_channels``
    and ``num_groups``: the closed forms describe infinite Poisson fields,
    the simulated cell holds a fixed small population.
    """

    # Geometry
    cell_radius_m: float = 500.0
    exclusion_radius_m: float = 50.0
    num_channels: int = 3
    num_groups: int = 7
    receiver_density_per_m2: float = 8.0e-3
    assoc_min_rx_power_dbm: float = -12.4
    # Association is a coverage-planning decision, so it references a fixed
    # pilot power rather than the operational transmit limit; sweeping
    # max_mg_power_dbm therefore leaves group membership untouched.
    assoc_ref_power_dbm: float = 30.0

    # Radio
    max_cu_power_dbm: float = 30.0
    max_mg_power_dbm: float = 30.0
    cu_sir_threshold_db: float = 0.0
    mg_sir_threshold_db: float = 25.0
    cu_min_rate_bps_hz: float = 0.0

    # Outage budgets and analytic field densities
    cu_outage_budget: float = 0.1
    mg_outage_budget: float = 0.1
    cu_density_per_m2: float = 2.0e-6
    group_density_per_m2: float = 1.0e-5

    # Experiment control
    master_seed: int = 20240817

    # -- derived conveniences -------------------------------------------------

    @property
    def cell_area_m2(self) -> float:
        return math.pi * self.cell_radius_m ** 2

    @property
    def path_loss_exponent(self) -> float:
        """PATH_LOSS_EXPONENT, for readers that take every model number from
        the parameters (perfbench's independent throughput recomputation)."""
        return PATH_LOSS_EXPONENT

    @property
    def bandwidth_hz(self) -> float:
        """1 Hz, as rates are in bit/s/Hz; for the same readers as path_loss_exponent."""
        return 1.0

    @property
    def max_cu_power_w(self) -> float:
        return dbm_to_watt(self.max_cu_power_dbm)

    @property
    def max_mg_power_w(self) -> float:
        return dbm_to_watt(self.max_mg_power_dbm)

    @property
    def cu_sir_threshold(self) -> float:
        """Effective linear CU SIR threshold.

        A configured minimum CU rate tightens the plain SIR threshold to
        whichever is harder to meet: gamma >= max(th, 2^Rmin - 1).
        """
        th = db_to_linear(self.cu_sir_threshold_db)
        if self.cu_min_rate_bps_hz > 0.0:
            th = max(th, 2.0 ** self.cu_min_rate_bps_hz - 1.0)
        return th

    @property
    def mg_sir_threshold(self) -> float:
        return db_to_linear(self.mg_sir_threshold_db)

    @property
    def assoc_min_rx_power_w(self) -> float:
        return dbm_to_watt(self.assoc_min_rx_power_dbm)

    @property
    def assoc_ref_power_w(self) -> float:
        return dbm_to_watt(self.assoc_ref_power_dbm)

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.cell_radius_m <= 0:
            raise ValueError("cell radius must be positive")
        # The closed-form power floor takes CU interference from beyond the
        # exclusion radius with unclamped path loss, which diverges as D -> 0.
        if self.exclusion_radius_m < MIN_LINK_DISTANCE_M:
            raise ValueError(
                f"exclusion radius must be at least the {MIN_LINK_DISTANCE_M:g} m link clamp"
            )
        if self.exclusion_radius_m >= self.cell_radius_m:
            raise ValueError("exclusion radius must be smaller than the cell radius")
        for name in ("receiver_density_per_m2", "cu_density_per_m2", "group_density_per_m2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        # NaN fails too: a zero density times an infinite cell area
        mean_candidates = self.receiver_density_per_m2 * self.cell_area_m2
        if not mean_candidates <= MAX_MEAN_CANDIDATES:
            raise ValueError(
                f"receiver_density_per_m2 times the cell area expects {mean_candidates:.3g} "
                f"candidate receivers, past the limit of {MAX_MEAN_CANDIDATES:,.0f}"
            )
        # geometry.apply_exclusion holds a (C, candidates) distance table: at
        # most its size at the candidate limit on the default 3 channels
        if mean_candidates and self.num_channels > 3 * MAX_MEAN_CANDIDATES / mean_candidates:
            raise ValueError(
                f"num_channels = {self.num_channels} times {mean_candidates:.3g} expected candidate "
                f"receivers is past the limit of {3 * MAX_MEAN_CANDIDATES:,.0f} distances"
            )
        for name in (
            "max_cu_power_w", "max_mg_power_w", "assoc_min_rx_power_w", "assoc_ref_power_w",
            "cu_sir_threshold", "mg_sir_threshold",
        ):
            try:
                value = getattr(self, name)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{name} is too large for a float")
        if self.num_channels < 1 or self.num_groups < 0:
            raise ValueError("need at least one channel and a nonnegative group count")
        if not (0.0 < self.cu_outage_budget < 1.0 and 0.0 < self.mg_outage_budget < 1.0):
            raise ValueError("outage budgets must lie in (0, 1)")
