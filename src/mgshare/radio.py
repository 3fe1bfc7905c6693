"""Link-level physics: path gains, link distance tables, fading draws.

Everything here is a pure function of a scenario's geometry and a random
stream. Path gain is d^-4 (``params.PATH_LOSS_EXPONENT``). The SIR and rate arithmetic built on them lives in the search
layer: the kernels score every co-channel group mask at once, and
``EvalContext.channel_value`` rescores one channel for the grid power
ascent, summing in the kernels' order so that at the table powers it
returns the value table's entry bit for bit. The link-by-link radio scorer
the tests hold both against is in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT


def path_gain(d):
    """d^-PATH_LOSS_EXPONENT, links shorter than MIN_LINK_DISTANCE_M
    evaluated at it."""
    return np.maximum(np.asarray(d, dtype=float), MIN_LINK_DISTANCE_M) ** -PATH_LOSS_EXPONENT


@dataclass(eq=False)
class ScenarioLinks:
    """Distance tables for one scenario, receivers flattened group-major.

    ``offsets[g]`` is the flat index of group g's first member and
    ``rx_group[j]`` the owning group of flat receiver j.
    """

    params: object
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
    p = scenario.params
    groups = scenario.groups
    sizes = np.array([g.num_receivers for g in groups], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1] if len(sizes) else np.zeros(0, np.int64)
    rx_group = np.repeat(np.arange(len(groups)), sizes) if len(sizes) else np.zeros(0, np.int64)
    rx = (
        np.vstack([g.receivers for g in groups])
        if len(groups)
        else np.empty((0, 2))
    )
    cu_pos = np.vstack([c.position for c in scenario.cus])
    tx_pos = (
        np.vstack([g.tx_position for g in groups]) if len(groups) else np.empty((0, 2))
    )
    d_cu_rx = np.sqrt(((cu_pos[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
    d_mg_rx = np.sqrt(((tx_pos[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
    return ScenarioLinks(
        params=p,
        group_sizes=sizes,
        offsets=offsets,
        rx_group=rx_group,
        d_cu_bs=np.array([c.dist_to_bs_m for c in scenario.cus]),
        d_mg_bs=np.hypot(tx_pos[:, 0], tx_pos[:, 1]) if len(groups) else np.zeros(0),
        d_cu_rx=d_cu_rx,
        d_mg_rx=d_mg_rx,
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
    C = links.params.num_channels
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
