"""Link-level physics: path gains, link distances, fading draws.

Everything here is a pure function of a scenario's geometry and a random
stream. Each formula is written once, and the sampler's exclusion and
association tests use the same distances and path gain, d^-4
(``params.PATH_LOSS_EXPONENT``), as the links. The SIR and rate arithmetic
built on them lives in the search layer: the kernels score every co-channel group mask at once, and
``EvalContext.channel_value`` rescores one channel for the grid power
ascent, summing in the kernels' order so that at the table powers it
returns the value table's entry bit for bit. The link-by-link radio scorer
the tests hold both against is in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT


def squared_distances(centers: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(m, n) table of dx*dx + dy*dy from m centres to n points, one row per
    centre; each entry depends on its own pair alone.

    Summing ((p - c) ** 2) over a length-2 axis gives the same bits, but
    numpy reduces along a short last axis several times slower, so the
    coordinates are read as columns and the callers reduce over rows.
    """
    dx = centers[:, 0, None] - points[:, 0]
    dy = centers[:, 1, None] - points[:, 1]
    return dx * dx + dy * dy


def path_gain(d):
    """d^-PATH_LOSS_EXPONENT, links shorter than MIN_LINK_DISTANCE_M
    evaluated at it."""
    return np.maximum(np.asarray(d, dtype=float), MIN_LINK_DISTANCE_M) ** -PATH_LOSS_EXPONENT


@dataclass(eq=False)
class ScenarioLinks:
    """Distance tables for one scenario, receivers flattened group-major.

    ``offsets[g]`` is the flat index of group g's first member and
    ``rx_group[j]`` the owning group of flat receiver j. They are computed
    from positions alone, so every parameter set that draws the same
    scenario shares them, and so does the fading drawn on them.
    """

    group_sizes: np.ndarray
    offsets: np.ndarray
    rx_group: np.ndarray
    d_cu_bs: np.ndarray      # (C,)
    d_mg_bs: np.ndarray      # (G,)
    d_cu_rx: np.ndarray      # (C, n_rx)
    d_mg_rx: np.ndarray      # (G, n_rx)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def num_rx(self) -> int:
        return len(self.rx_group)


def scenario_links(scenario) -> ScenarioLinks:
    groups = scenario.groups
    sizes = np.array([g.num_receivers for g in groups], dtype=np.int64)
    rx = np.vstack([g.receivers for g in groups]) if groups else np.empty((0, 2))
    cu_pos = np.vstack([c.position for c in scenario.cus])
    tx_pos = np.array([g.tx_position for g in groups]).reshape(-1, 2)
    return ScenarioLinks(
        group_sizes=sizes,
        offsets=np.cumsum(sizes) - sizes,
        rx_group=np.repeat(np.arange(len(groups)), sizes),
        d_cu_bs=np.hypot(cu_pos[:, 0], cu_pos[:, 1]),
        d_mg_bs=np.hypot(tx_pos[:, 0], tx_pos[:, 1]),
        d_cu_rx=np.sqrt(squared_distances(cu_pos, rx)),
        d_mg_rx=np.sqrt(squared_distances(tx_pos, rx)),
    )


@dataclass(eq=False)
class FadingRealization:
    """One i.i.d. Exp(1) draw for every (transmitter, receiver, channel) link,
    stored as dense arrays; j is the flat receiver index of the links table."""

    h_cu_bs: np.ndarray      # (C,)      CU k -> BS on its own channel
    h_mg_bs: np.ndarray      # (G, C)    group tx g -> BS on channel k
    h_cu_rx: np.ndarray      # (C, n_rx) CU k -> receiver j (channel k implied)
    h_mg_rx: np.ndarray      # (G, n_rx, C)


def draw_fading(links: ScenarioLinks, rng: np.random.Generator) -> FadingRealization:
    """Draw all link fades for one realization.

    The draw order is frozen (cu->bs, mg->bs, cu->rx, mg->rx, each in array
    order) so a given rng state always yields the same realization.
    """
    C = len(links.d_cu_bs)  # one CU per channel
    G, n = links.num_groups, links.num_rx
    return FadingRealization(
        h_cu_bs=rng.exponential(1.0, C),
        h_mg_bs=rng.exponential(1.0, (G, C)),
        h_cu_rx=rng.exponential(1.0, (C, n)),
        h_mg_rx=rng.exponential(1.0, (G, n, C)),
    )


@dataclass(eq=False)
class PowerVector:
    """Transmit powers in watts: one per channel for CUs, one per group."""

    cu_power_w: np.ndarray
    mg_power_w: np.ndarray
