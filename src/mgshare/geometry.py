"""Random network scenarios: disk placement, exclusion holes, association.

A scenario lives in a disk cell of radius R centered on the base station.
Cellular users (one per channel) and multicast transmitters are dropped
uniformly; candidate receivers come from a Poisson count and are thinned by
the exclusion disks of radius D around every cellular user, which turns the
receiver field into a hole process. Surviving receivers attach to the
transmitter with the strongest mean received power, provided that power
clears the association threshold. Both tests take their distances and path
gains from `radio`, which writes each link formula once.

Candidate positions are computed only inside windows. A point is drawn as
two uniforms (u, v) and sits at (R sqrt(u) cos 2 pi v, R sqrt(u) sin 2 pi v).
Only a candidate within D of a CU can be excluded, and only one within the
association reach of a transmitter can join a group. Mean power
P_ref * max(d, 1 m)^-4 falls with distance, so a receiver farther than the
reach r = (P_ref / P_min)^(1/4) from every transmitter fails the threshold
everywhere (r is about 11.5 m at the defaults). The bound is exact in
floating point, not only on paper: the reach is padded by a relative 1e-9,
which lowers the power at the padded reach by a relative 4e-9, while
rounding moves the computed reach and power by under 1e-13 relative for any
power ratio a float holds. A threshold of 0 W or less bounds nothing, and
the reach is infinite.

So `generate_scenario` computes positions only for candidates whose (u, v)
falls in a cell of a _RINGS x _SECTORS table over [0, 1)^2 that a window
can reach; a window is the disk of radius D around a CU or of the reach
around a transmitter. Both powers of two make u * _RINGS and v * _SECTORS
exact, so a candidate's cell is exact. The windows are conservative in
floating point:

- The computed position of a candidate lies within about 1e-14 R of its
  exact polar point (sqrt, products and the float 2 pi are correctly
  rounded; cos and sin err by a few ulp), and the exclusion and association
  tests err by a few ulp of the distance. Each window's radius rho is
  padded by a relative 1e-9 of (R + rho), far above both.
- So the exact polar point (R sqrt(u), 2 pi v) of any candidate the tests
  can exclude or attach lies in the padded disk around the computed centre
  c. Its radius is within rho of |c|, which bounds u, and, when |c| > rho,
  its angle is within asin(rho / |c|) of c's, which bounds v (modulo 1).
  When |c| <= rho the disk holds the origin and every angle is marked.
- The bounds on u and v are computed from hypot, atan2 and asin, whose
  errors stay far below a cell (asin's near 1 is about 1e-8 rad against a
  sector of 0.025 rad), and one cell of margin on each side covers them
  where they floor to a cell.

Every other candidate is neither excluded nor attached, so the excluded
count, the groups and their receivers are bitwise those of computing every
position and scoring every candidate. The kept candidates keep their order.
Each position gets the same bits in a subset, and so does each candidate's
exclusion test, distances, powers and first-max argmax over the
transmitters, since every step is elementwise or runs along one candidate's
row (`tests/test_geometry.py` pins this for cos and sin). A window of radius
R or more (an infinite reach, or D > R) marks every cell, and then every
position is computed.

D enters only the exclusion test, so the points of a D sweep share one
draw. `generate_scenario` keeps the last draw it made (`_kept`, keyed by
the index and every value it reads but D): the seed, the CU and transmitter
positions, the candidate count, the generator's state before the candidate
uniforms, and, once a second D asks for it, the association of the
transmitter windows' candidates. A call at a kept draw draws the uniforms
again from that state, rather than hold them (about 100 KB at the default
density) while its point is scored, computes only the positions in the CU
windows at its D, to count the excluded candidates, and drops the excluded
receivers from the kept association. Since association reads each
candidate's own row, associating first and excluding afterwards gives
bitwise the groups of excluding first. Two scenarios hold the same draw
(`same_draw`) when their seeds, CU positions and groups are bitwise equal;
a D step that excludes no associated receiver keeps the draw, and with it
the links and fading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    excluded_receiver_count: int
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
    """True when two scenarios hold the same draw: the same seed and bitwise
    equal CU positions and groups (ids, transmitter positions, receivers).
    Links and fading read nothing else, so such scenarios share them, and a
    D step that thins no group's receivers keeps the draw. Scenarios that
    share their CU and group lists (`dataclasses.replace` of one another)
    hold the same draw without a comparison."""
    if a.scenario_seed != b.scenario_seed:
        return False
    if a.cus is b.cus and a.groups is b.groups:
        return True
    return (
        len(a.cus) == len(b.cus)
        and len(a.groups) == len(b.groups)
        and all(x.position.tobytes() == y.position.tobytes() for x, y in zip(a.cus, b.cus))
        and all(
            x.id == y.id
            and x.tx_position.tobytes() == y.tx_position.tobytes()
            and x.receivers.tobytes() == y.receivers.tobytes()
            for x, y in zip(a.groups, b.groups)
        )
    )


@dataclass(eq=False)
class _Draw:
    """The part of a scenario that D does not read, less the candidate
    uniforms: its seed, the CU and transmitter positions, the candidate
    count, the generator's state before the uniforms, from which a later
    call draws them again rather than hold them, and, once a second D asks
    for it, ``associated``. No array of it is handed out or written."""

    seed: int
    cu_pos: np.ndarray
    tx_pos: np.ndarray
    candidate_count: int
    state: dict
    associated: tuple | None = None

    def uniforms(self) -> np.ndarray:
        """The candidates' uniforms, rows u and v, drawn again from ``state``."""
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.state = self.state
        return rng.random((2, self.candidate_count))


# The last draw `generate_scenario` made, by the arguments of its `_draw`
# call. It lets go of that draw before making the next, so it never holds two.
_kept: dict = {}


def _draw(master_seed, index, R, C, G, density, area, ref_w, min_w) -> tuple:
    """The D-free part of `generate_scenario`'s draw, from the values it
    reads, and the candidate uniforms u and v, which the draw does not
    keep."""
    seed = child_seed(master_seed, index)
    rng = np.random.default_rng(seed)
    cu_pos = sample_uniform_disk(C, R, rng)
    tx_pos = sample_uniform_disk(G, R, rng)
    n_cand = sample_poisson_count(density, area, rng)
    draw = _Draw(seed, cu_pos, tx_pos, n_cand, rng.bit_generator.state)
    u, v = rng.random((2, n_cand))  # the stream of drawing u, then v
    return draw, u, v


def _associate(draw, R, u, v, cells, reach, ref_w, min_w) -> tuple:
    """(group ids, offsets, receivers) of the transmitter-window candidates
    associated through `form_groups` before any exclusion disk applies,
    receivers flattened group-major: group ``ids[i]`` holds rows
    ``offsets[i]:offsets[i + 1]``, in candidate order.

    Association reads each candidate's own row alone, so dropping the
    excluded receivers afterwards keeps bitwise the groups of associating
    the survivors.
    """
    groups = []
    if len(draw.tx_pos):
        near = _window_cells(R, draw.tx_pos, [reach] * len(draw.tx_pos))[cells]
        groups = form_groups(draw.tx_pos, _disk_points(R, u[near], v[near]), ref_w, min_w)
    sizes = [g.num_receivers for g in groups]
    receivers = np.vstack([g.receivers for g in groups]) if groups else np.empty((0, 2))
    return [g.id for g in groups], [0, *np.cumsum(sizes).tolist()], receivers


def generate_scenario(params: SimParams, index: int) -> NetworkScenario:
    """Draw one scenario, deterministic in (params.master_seed, index).

    Draw order is part of the contract (it pins reproducibility): CU
    positions, transmitter positions, candidate count, candidate positions.
    Only candidates in a window of some CU or transmitter get positions;
    the rest can be neither excluded nor scored (see the module docstring).

    Everything D does not read is drawn once per index and values of the
    other SCENARIO_FIELDS, and kept for the next call (`_kept`), but for the
    candidate uniforms, which a later call draws again. Each call counts the
    excluded candidates among those of the CU windows at its D. The first
    call on a draw also takes the transmitter windows' candidates in the
    same pass and associates the survivors, as a draw that is never reused
    needs; a later call drops the excluded receivers from the draw's
    association (`_associate`), which is made once. Every scenario gets its
    own position arrays. Parameter validation belongs to the config
    surface, not here; passing an exclusion radius larger than the cell is
    allowed and simply yields a degenerate scenario.
    """
    R = params.cell_radius_m
    D = params.exclusion_radius_m
    ref_w, min_w = params.assoc_ref_power_w, params.assoc_min_rx_power_w
    key = (
        params.master_seed,
        index,
        R,
        params.num_channels,
        params.num_groups,
        params.receiver_density_per_m2,
        params.cell_area_m2,
        ref_w,
        min_w,
    )
    draw = _kept.get(key)
    first = draw is None
    if first:
        _kept.clear()
        draw, u, v = _draw(*key)
        _kept[key] = draw
    else:
        u, v = draw.uniforms()
    cells = _cell_index(u, v)
    cu_pos, tx_pos = draw.cu_pos.copy(), draw.tx_pos.copy()
    reach = association_reach(ref_w, min_w)
    centers, windows = cu_pos, [D] * len(cu_pos)
    if first:
        centers, windows = np.vstack((cu_pos, tx_pos)), windows + [reach] * len(tx_pos)
    near = _window_cells(R, centers, windows)[cells]
    kept, removed = apply_exclusion(_disk_points(R, u[near], v[near]), cu_pos, D)
    if first:
        groups = form_groups(tx_pos, kept, ref_w, min_w) if len(tx_pos) else []
    else:
        if draw.associated is None:
            draw.associated = _associate(draw, R, u, v, cells, reach, ref_w, min_w)
        ids, offsets, receivers = draw.associated
        keep = _outside_holes(receivers, cu_pos, D)
        groups = []
        for g, lo, hi in zip(ids, offsets, offsets[1:]):
            members = receivers[lo:hi][keep[lo:hi]]
            if len(members):
                groups.append(MulticastGroup(id=g, tx_position=tx_pos[g], receivers=members))
    return NetworkScenario(
        params=params,
        cus=[CellularUser(position=pos) for pos in cu_pos],
        groups=groups,
        excluded_receiver_count=removed,
        scenario_seed=draw.seed,
        candidate_receiver_count=draw.candidate_count,
    )
