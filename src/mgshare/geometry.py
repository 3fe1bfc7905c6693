"""Random network scenarios: disk placement, exclusion holes, association.

A scenario lives in a disk cell of radius R centered on the base station.
Cellular users (one per channel) and multicast transmitters are dropped
uniformly; candidate receivers come from a Poisson count and are thinned by
the exclusion disks of radius D around every cellular user, which turns the
receiver field into a hole process. Surviving receivers attach to the
transmitter with the strongest mean received power, provided that power
clears the association threshold. Both tests take their distances and path
gains from `radio`, which writes each link formula once.

Candidate positions are computed only inside windows: the disks of the
association reach around the transmitters. A point is drawn as two uniforms
(u, v) and sits at (R sqrt(u) cos 2 pi v, R sqrt(u) sin 2 pi v). Mean power
P_ref * max(d, 1 m)^-4 falls with distance, so a receiver farther than the
reach r = (P_ref / P_min)^(1/4) from every transmitter fails the threshold
everywhere (r is about 11.5 m at the defaults), and whether the exclusion
disks would take it changes nothing. The bound is exact in floating point,
not only on paper: the reach is padded by a relative 1e-9, which lowers the
power at the padded reach by a relative 4e-9, while rounding moves the
computed reach and power by under 1e-13 relative for any power ratio a float
holds. A threshold of 0 W or less bounds nothing, and the reach is infinite.

So `generate_scenario` computes positions only for candidates whose (u, v)
falls in a cell of a _RINGS x _SECTORS table over [0, 1)^2 that a window
can reach. Both powers of two make u * _RINGS and v * _SECTORS exact, so a
candidate's cell is exact. The windows are conservative in floating point:

- The computed position of a candidate lies within about 1e-14 R of its
  exact polar point (sqrt, products and the float 2 pi are correctly
  rounded; cos and sin err by a few ulp), and the association test errs by
  a few ulp of the distance. Each window's radius rho is padded by a
  relative 1e-9 of (R + rho), far above both.
- So the exact polar point (R sqrt(u), 2 pi v) of any candidate the test
  can attach lies in the padded disk around the computed centre c. Its
  radius is within rho of |c|, which bounds u, and, when |c| > rho, its
  angle is within asin(rho / |c|) of c's, which bounds v (modulo 1). When
  |c| <= rho the disk holds the origin and every angle is marked.
- The bounds on u and v are computed from hypot, atan2 and asin, whose
  errors stay far below a cell (asin's near 1 is about 1e-8 rad against a
  sector of 0.025 rad), and one cell of margin on each side covers them
  where they floor to a cell.

Every other candidate is attached to no group, so the groups and their
receivers are bitwise those of computing every position and scoring every
candidate. The kept candidates keep their order. Each position gets the
same bits in a subset, and so does each candidate's exclusion test,
distances, powers and first-max argmax over the transmitters, since every
step is elementwise or runs along one candidate's row (`tests/test_geometry.py`
pins this for cos and sin). A window of radius R or more (an infinite
reach) marks every cell, and then every position is computed.

D enters only the exclusion test, d^2 >= D^2 to every CU, which reads one
receiver and holds at D' > D only where it holds at D. So the receivers a
larger D keeps are the receivers a smaller D kept, less those the wider
disks cover: the hole process is thinned, not drawn again. `next_scenario`
takes a sweep's D steps this way, since sweep values ascend; a point whose
other scenario fields are unchanged hands on the previous point's scenario.
Both keep the CU list, and the group list when no receiver is dropped, and
`same_draw` reads that sharing: such scenarios share their links and fading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT, SimParams
from .radio import path_gain, squared_distances
from .seeds import child_seed

# Relative pad on the association reach (see the module docstring).
_REACH_PAD = 1e-9
# Cells of the candidate window table over (u, v), and the relative pad on a
# window's radius (see the module docstring).
_RINGS = 64
_SECTORS = 256
_WINDOW_PAD = 1e-9


def _disk_points(radius: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The points (radius sqrt(u) cos 2 pi v, radius sqrt(u) sin 2 pi v), shape (n, 2).

    Radial inversion: r = radius * sqrt(u) makes the area element uniform
    for u uniform on [0, 1). Every step is elementwise; the products are
    written straight into the columns.
    """
    r = radius * np.sqrt(u)
    theta = v * (2.0 * np.pi)
    out = np.empty((len(r), 2))
    np.multiply(r, np.cos(theta), out=out[:, 0])
    np.multiply(r, np.sin(theta), out=out[:, 1])
    return out


def sample_uniform_disk(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform points in the disk of the given radius, shape (n, 2)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty((0, 2))
    u = rng.random(n)
    v = rng.random(n)
    return _disk_points(radius, u, v)


def _cell_index(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flat index of each draw's (u, v) cell in the (_RINGS, _SECTORS) table."""
    index = (u * _RINGS).astype(np.intp)
    index *= _SECTORS
    index += (v * _SECTORS).astype(np.intp)
    return index


def _window_cells(cell_radius: float, centers: np.ndarray, window_radii) -> np.ndarray:
    """Flat boolean table of the (_RINGS, _SECTORS) cells that hold a point of
    some window, the disk of window_radii[i] around centers[i], padded and
    with one cell of margin (see the module docstring). A draw is in a window
    where the table holds True at its `_cell_index`."""
    # Sector ranges span -0.75 to 1.75 turns once shifted by one turn, so
    # they are marked unwrapped over two turns and folded afterwards.
    marked = np.zeros((_RINGS, 2 * _SECTORS), dtype=bool)
    for (cx, cy), radius in zip(centers.tolist(), window_radii):
        rho = radius + _WINDOW_PAD * (cell_radius + radius)
        rc = math.hypot(cx, cy)
        lo = max(rc - rho, 0.0) / cell_radius
        hi = min((rc + rho) / cell_radius, 1.0)
        rings = slice(max(math.floor(lo * lo * _RINGS) - 1, 0), math.floor(hi * hi * _RINGS) + 2)
        if rc <= rho:
            sectors = slice(0, _SECTORS)
        else:
            mid = math.atan2(cy, cx) / (2.0 * math.pi)
            half = math.asin(rho / rc) / (2.0 * math.pi)
            sectors = slice(
                math.floor((mid - half) * _SECTORS) - 1 + _SECTORS,
                math.floor((mid + half) * _SECTORS) + 2 + _SECTORS,
            )
        marked[rings, sectors] = True
    return (marked[:, :_SECTORS] | marked[:, _SECTORS:]).ravel()


def sample_poisson_count(intensity: float, area_m2: float, rng: np.random.Generator) -> int:
    """Poisson count with mean intensity * area."""
    if intensity < 0.0 or area_m2 < 0.0:
        raise ValueError("intensity and area must be nonnegative")
    return int(rng.poisson(intensity * area_m2))


def _outside_holes(points: np.ndarray, cu_positions: np.ndarray, exclusion_radius_m: float):
    """Boolean mask of the (n, 2) points at distance D or more from every
    (C, 2) CU position; each entry reads its own point alone."""
    return (squared_distances(cu_positions, points) >= exclusion_radius_m ** 2).all(axis=0)


def apply_exclusion(candidates, cu_positions, exclusion_radius_m: float):
    """Drop candidates lying strictly inside any exclusion disk.

    candidates and cu_positions hold one (x, y) position per row. Returns
    (kept, removed_count). Order is preserved; a candidate exactly on a disk
    boundary (distance == D) survives.
    """
    if exclusion_radius_m < 0.0:
        raise ValueError("exclusion radius must be nonnegative")
    pts = np.asarray(candidates, dtype=float).reshape(-1, 2)
    centers = np.asarray(cu_positions, dtype=float).reshape(-1, 2)
    keep = _outside_holes(pts, centers, exclusion_radius_m)
    return pts[keep], int(len(pts) - keep.sum())


@dataclass(eq=False)
class CellularUser:
    """The cellular user of the channel at its index in ``NetworkScenario.cus``."""

    position: np.ndarray


@dataclass(eq=False)
class MulticastGroup:
    """A transmitter with the receivers that associated to it.

    ``id`` is the transmitter's index in the original drop, so ids stay
    stable when empty groups are dropped from a scenario.
    """

    id: int
    tx_position: np.ndarray
    receivers: np.ndarray

    @property
    def num_receivers(self) -> int:
        return len(self.receivers)


@dataclass(eq=False)
class NetworkScenario:
    params: SimParams
    cus: list
    groups: list
    scenario_seed: int
    candidate_receiver_count: int = 0

    @property
    def degenerate(self) -> bool:
        """True when no group retained any receiver."""
        return len(self.groups) == 0


def association_reach(tx_power_w: float, assoc_min_rx_power_w: float) -> float:
    """Distance past which a transmitter's mean power cannot clear the
    association threshold, the radius of its window: (P_ref / P_min)^(1/4),
    padded by a relative 1e-9 and floored at MIN_LINK_DISTANCE_M.

    A threshold of 0 W or less (one that underflows to 0 W included) bounds
    nothing, and the reach is infinite.
    """
    if assoc_min_rx_power_w <= 0.0:
        return math.inf
    reach = (max(tx_power_w, 0.0) / assoc_min_rx_power_w) ** (1.0 / PATH_LOSS_EXPONENT)
    return max(reach * (1.0 + _REACH_PAD), MIN_LINK_DISTANCE_M)


def form_groups(
    tx_positions,
    receivers,
    tx_power_w: float,
    assoc_min_rx_power_w: float,
) -> list[MulticastGroup]:
    """Attach each receiver to its strongest transmitter.

    Mean received power is tx_power * radio.path_gain(d), d^-4 with the
    link distance floored at MIN_LINK_DISTANCE_M; fading plays no part in
    association. Receivers whose best power falls below the association
    threshold join no group, and ties go to the lowest transmitter index. Transmitters left with no
    receivers are omitted from the result.
    """
    txs = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    if len(txs) == 0:
        raise ValueError("need at least one transmitter")
    rx = np.asarray(receivers, dtype=float).reshape(-1, 2)
    power = tx_power_w * path_gain(np.sqrt(squared_distances(txs, rx)))
    best = power.argmax(axis=0)  # first max wins: lowest transmitter id
    attached = power[best, np.arange(len(rx))] >= assoc_min_rx_power_w
    groups = []
    for g in range(len(txs)):
        members = attached & (best == g)
        if members.any():
            groups.append(MulticastGroup(id=g, tx_position=txs[g], receivers=rx[members]))
    return groups


# The SimParams fields generate_scenario reads, directly or through a derived
# property. tests/test_geometry.py records the sampler's reads and fails if
# one falls outside this tuple.
SCENARIO_FIELDS = (
    "master_seed",
    "cell_radius_m",
    "exclusion_radius_m",
    "num_channels",
    "num_groups",
    "receiver_density_per_m2",
    "assoc_min_rx_power_dbm",
    "assoc_ref_power_dbm",
)


def scenario_key(params: SimParams) -> tuple:
    """The values of SCENARIO_FIELDS. Parameter sets with equal keys draw
    bitwise the same scenario at every index, and so the same links and
    fading, which read only the drawn positions."""
    return tuple(getattr(params, name) for name in SCENARIO_FIELDS)


def same_draw(a: NetworkScenario, b: NetworkScenario) -> bool:
    """True when two scenarios hold the same draw: they share their CU and
    group lists, as `next_scenario` hands them on. Links and fading read
    nothing else, so such scenarios share them. Two `generate_scenario`
    calls are two draws, even when their positions are bitwise equal."""
    return a.cus is b.cus and a.groups is b.groups


def generate_scenario(params: SimParams, index: int) -> NetworkScenario:
    """Draw one scenario, deterministic in (params.master_seed, index).

    Draw order is part of the contract (it pins reproducibility): CU
    positions, transmitter positions, candidate count, candidate positions.
    Only candidates in a transmitter's window get positions; the rest can
    join no group (see the module docstring). Every scenario gets its own
    position arrays. Parameter validation belongs to the config surface,
    not here; passing an exclusion radius larger than the cell is allowed
    and simply yields a degenerate scenario.
    """
    seed = child_seed(params.master_seed, index)
    rng = np.random.default_rng(seed)
    R = params.cell_radius_m
    cu_pos = sample_uniform_disk(params.num_channels, R, rng)
    tx_pos = sample_uniform_disk(params.num_groups, R, rng)
    n_cand = sample_poisson_count(params.receiver_density_per_m2, params.cell_area_m2, rng)
    u, v = rng.random((2, n_cand))  # the stream of drawing u, then v
    groups = []
    if len(tx_pos):
        ref_w, min_w = params.assoc_ref_power_w, params.assoc_min_rx_power_w
        reach = association_reach(ref_w, min_w)
        near = _window_cells(R, tx_pos, [reach] * len(tx_pos))[_cell_index(u, v)]
        candidates = _disk_points(R, u[near], v[near])
        kept, _ = apply_exclusion(candidates, cu_pos, params.exclusion_radius_m)
        groups = form_groups(tx_pos, kept, ref_w, min_w)
    return NetworkScenario(
        params=params,
        cus=[CellularUser(position=pos) for pos in cu_pos],
        groups=groups,
        scenario_seed=seed,
        candidate_receiver_count=n_cand,
    )


# Where D sits in a scenario key.
_D = SCENARIO_FIELDS.index("exclusion_radius_m")


def next_scenario(prev: NetworkScenario | None, params: SimParams, index: int) -> NetworkScenario:
    """Bitwise the scenario `generate_scenario(params, index)` draws, from
    `prev`, the scenario of the same index at the previous sweep point, or
    None.

    An equal scenario key gives `prev` under `params`. A key that differs
    only by a larger D gives `prev` less the receivers the wider disks
    cover, and groups left empty dropped (see the module docstring). Both
    hand on `prev`'s CU list, and its group list when no receiver is
    dropped, so `same_draw` holds. Any other key, or a `prev` of another
    index, draws anew.
    """
    if prev is not None and prev.scenario_seed == child_seed(params.master_seed, index):
        old, new = scenario_key(prev.params), scenario_key(params)
        if old == new:
            return replace(prev, params=params)
        if new[_D] > old[_D] and old[:_D] + old[_D + 1 :] == new[:_D] + new[_D + 1 :]:
            cu_pos = np.vstack([c.position for c in prev.cus])
            keep = [_outside_holes(g.receivers, cu_pos, new[_D]) for g in prev.groups]
            groups = prev.groups
            if not all(k.all() for k in keep):
                groups = [
                    replace(g, receivers=g.receivers[k]) for g, k in zip(groups, keep) if k.any()
                ]
            return replace(prev, params=params, groups=groups)
    return generate_scenario(params, index)
