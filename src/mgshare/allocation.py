"""Channel allocation schemes: exhaustive subset-family search and the
greedy minimum-interference heuristic, over shared per-scenario tables.

The search space is a family of disjoint group subsets (one candidate
subset per channel) crossed with the ways of matching subsets to channels.
Families come from the combinatorics module per selection mode; matchings
include partial ones, so leaving a channel to its CU alone is always a
candidate and the search proves rather than assumes that sharing helps.

Both searches share one candidate format: a family row of group masks, one
per subset slot, and a slot-channel row of the same length holding each
slot's channel, -1 where the slot gets none. They also share one score,
read from ``EvalContext.gain``, a (C+1, 2^G) table of each channel's gain
over its CU alone whose last row is 0.0: a candidate scores the baseline
plus ``gain[row[s], fam[s]]`` summed in slot order, so an unassigned slot
(row -1, the zero row) adds an exact 0.0. One table and one summation order
make the dominance relations between schemes (larger search space never
loses) hold exactly in floating point, not merely up to re-summation noise.

Neither search builds a per-family candidate grid. The exhaustive search
takes each family's best matching in a max-plus pass over (slot, set of
channels taken), which equals the max over every slot-order sum bitwise
because round-to-nearest addition is monotone: max_i fl(a_i + x) =
fl(max_i a_i + x). The greedy search keeps, for each set of channels a
family may already hold, a per-column table of the least entry over the
channels still open, so each round is one lookup per slot.

A selection mode only chooses which size vectors take part: its family
table is a run of whole per-vector blocks, and a family's best matching
value, like its greedy row, does not depend on the mode that admitted it.
So both searches keep their per-family scores on the EvalContext, keyed by
size vector, and score families only through that cache: each call names
the blocks of the rows it searches, and a context that holds none of them
scores the whole table in one pass. The schemes run on one context score
each block once, and each scheme applies its tie rules to its own mode's
blocks in enumeration order.

Powers follow the closed-form feasibility interval: each assigned group
transmits at the top of its interval on its channel, and a group whose
interval is empty is muted (kept in the subset at zero power, zero rate)
rather than vetoing the whole subset. The optional grid policy then runs a
small coordinate ascent downward from that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np

from .combinatorics import distinct_count, enumerate_size_vectors, parse_mode
from .geometry import scenario_key
from .kernels import build_stage2_table, build_value_table
from .params import SIR_CAP
from .power import group_power_cap, group_power_floor, power_interval
from .radio import PowerVector, draw_fading, path_gain, scenario_links
from .seeds import rng_for

# Stream tag of EvalContext's fading draw from a scenario's seed, so every
# scheme scored on one scenario sees one fading realization, at every sweep
# point that draws that scenario.
FADING_STREAM = 1

# Config tokens naming a (selection mode, assignment method) with the default
# power policy; see SchemeConfig.from_token for spelled-out schemes.
SCHEME_PRESETS = {
    "optimal": ("all", "exhaustive"),
    "almost_equal": ("almost_equal", "exhaustive"),
    "equal": ("equal", "exhaustive"),
    "fixed2": ("fixed(2)", "exhaustive"),
    "heuristic": ("all", "greedy"),
    "fixed_heuristic": ("fixed(2)", "greedy"),
}

# Limits of the exhaustive search: its tables grow as 2^G columns and its
# candidates as families times channel matchings. It takes at most 10 groups
# and as many matchings as 5 subsets have on 5 channels.
EXHAUSTIVE_GUARD = (10, 5)

# Limit of the greedy search: its family table and greedy_match's per-column
# table may each hold as many cells as the `all` family table of 12 groups on
# 3 channels (2,532,530 families), the largest size measured. The value table
# of a CU-only run, under either method, is held to the same cell count.
GREEDY_GUARD = (12, 3)
_CELL_LIMIT = distinct_count(*GREEDY_GUARD) * GREEDY_GUARD[1]

# Coordinate-ascent sweeps of the grid power policy.
_GRID_SWEEPS = 3

# Families per block in both searches: a block's per-family arrays stay in
# cache, and each search allocates the same few small arrays per block.
_BLOCK = 4096


@dataclass(eq=True)
class Assignment:
    """Channels mapped to disjoint sets of active-group indices.

    ``unassigned_subsets`` keeps the family subsets that ended up without a
    channel.
    """

    channel_to_groups: dict
    unassigned_subsets: tuple = ()

    def __post_init__(self):
        seen = set()
        for gs in self.channel_to_groups.values():
            if seen & set(gs):
                raise ValueError("a group appears on two channels")
            seen |= set(gs)


@dataclass(frozen=True)
class SchemeConfig:
    """What to search (selection_mode), how to assign (method), how to power."""

    selection_mode: str = "all"
    assignment_method: str = "exhaustive"
    power_policy: str = "max_feasible"

    def __post_init__(self):
        parse_mode(self.selection_mode)
        if self.assignment_method not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown assignment method {self.assignment_method!r}")
        self.grid_points  # parse the power policy now, so a bad one fails here

    @classmethod
    def from_token(cls, token: str) -> SchemeConfig:
        """A SCHEME_PRESETS name, or mode:method[:policy] such as "all:exhaustive:grid(3)"."""
        parts = SCHEME_PRESETS.get(token) or token.split(":")
        if len(parts) not in (2, 3):
            presets = ", ".join(sorted(SCHEME_PRESETS))
            raise ValueError(
                f"unknown scheme {token!r}; use a preset ({presets}) or mode:method[:policy]"
            )
        try:
            return cls(*parts)
        except ValueError as e:
            raise ValueError(f"bad scheme {token!r}: {e}") from e

    @property
    def fixed_size(self) -> int | None:
        """n of a fixed(n) selection mode, None for any other mode."""
        return parse_mode(self.selection_mode)[1]

    @cached_property
    def grid_points(self) -> int | None:
        """n of a grid(n) power policy, points per group; None for max_feasible."""
        if self.power_policy == "max_feasible":
            return None
        if self.power_policy.startswith("grid(") and self.power_policy.endswith(")"):
            n = int(self.power_policy[5:-1])
            if n < 1:
                raise ValueError("grid policy needs at least one point")
            return n
        raise ValueError(f"unknown power policy {self.power_policy!r}")

    def check_size(self, G: int, C: int) -> None:
        """Refuse G groups on C channels past the guard of this scheme's
        method, or, where the mode admits no family, past the CU-only guard."""
        if not _admits_family(G, C, self.selection_mode):
            check_cu_only_size(G, C, self.selection_mode)
        elif self.assignment_method == "exhaustive":
            check_exhaustive_size(G, C)
        else:
            check_greedy_size(G, C, self.selection_mode)


def matching_count(n_subsets: int, num_channels: int) -> int:
    """len(assignment_patterns(n_subsets, num_channels)), in closed form."""
    return sum(
        math.comb(n_subsets, r) * math.perm(num_channels, r)
        for r in range(min(n_subsets, num_channels) + 1)
    )


def _admits_family(G: int, C: int, mode: str) -> bool:
    """Whether the mode admits a family of min(C, G) subsets of G groups, in
    closed form: every mode but fixed(n) admits the singletons, and fixed(n)
    needs n * min(C, G) groups. Without a family a scheme runs CU-only."""
    kind, n = parse_mode(mode)
    return G > 0 and (kind != "fixed" or n * min(C, G) <= G)


@lru_cache(maxsize=None)
def check_exhaustive_size(G: int, C: int) -> None:
    """Refuse sizes past EXHAUSTIVE_GUARD, for a mode that admits a family.
    Families have at most min(C, G) subsets, so the search tries
    matching_count(min(C, G), C) matchings per family; that count is what
    the channel limit bounds. Passing sizes are cached, as allocate checks
    on every call."""
    gmax, cmax = EXHAUSTIVE_GUARD
    limit = matching_count(cmax, cmax)
    n = matching_count(min(C, G), C)
    if G > gmax or n > limit:
        raise ValueError(
            f"exhaustive search refused for G={G}, C={C} ({n} channel matchings): "
            f"it takes at most {gmax} groups and {limit} matchings, "
            f"as many as {cmax} subsets have on {cmax} channels"
        )


def _refuse_cells(refused: str, cells) -> ValueError:
    """The error for tables that would hold `cells` cells, past _CELL_LIMIT."""
    return ValueError(
        f"{refused}: its tables would hold {cells} cells, past the limit of {_CELL_LIMIT}, "
        f"as many as the families of {GREEDY_GUARD[0]} groups on {GREEDY_GUARD[1]} channels"
    )


@lru_cache(maxsize=None)
def check_greedy_size(G: int, C: int, mode: str) -> None:
    """Refuse sizes past GREEDY_GUARD, for a mode that admits a family.
    greedy_match's per-column table has a row of 2^G + 1 entries for each
    set of channels a family can hold before its last round, fewer than
    S = min(C, G) of them, and the family table has S subsets per family;
    neither may hold more than _CELL_LIMIT cells. The table is counted
    first, since it bounds G before the families are counted, and G before
    the table, so a huge G builds no 2^G. Passing sizes are cached, as
    allocate checks on every call."""
    S = min(C, G)
    refused = f"greedy search refused for G={G}, C={C}, mode {mode}"
    if G >= _CELL_LIMIT.bit_length():
        raise _refuse_cells(refused, f"more than 2^{G}")
    table = sum(math.comb(C, r) for r in range(S)) * ((1 << G) + 1)
    if table > _CELL_LIMIT:
        raise _refuse_cells(refused, table)
    families = distinct_count(G, S, mode) * S
    if families > _CELL_LIMIT:
        raise _refuse_cells(refused, families)


def check_cu_only_size(G: int, C: int, mode: str) -> None:
    """Refuse sizes, for a mode that admits no family, whose CU-only run
    (under either method) reads a (C, 2^G) value table of more than
    _CELL_LIMIT cells. G is compared first, so a huge G builds no 2^G."""
    if G >= _CELL_LIMIT.bit_length() or C << G > _CELL_LIMIT:
        raise _refuse_cells(f"CU-only run refused for G={G}, C={C}, mode {mode}", f"{C} x 2^{G}")


# ---------------------------------------------------------------------------
# per-scenario evaluation context


class EvalContext:
    """Link gains, feasible powers, and score tables for one scenario.

    Built once per (scenario, fading); the allocation searches then run on
    table lookups. Tables are lazy: the heuristic's interference table is
    only built when the heuristic runs.

    The searches' per-family scores are kept per size vector:
    ``exhaustive_scores`` holds each vector's families' best exhaustive
    values, ``greedy_scores`` their greedy (rows, values), both in the form
    ``_scores_by_vector`` stores. A selection mode only chooses which
    vectors take part, so every scheme run on the context reads the blocks
    its mode admits and scores only those not yet held.

    A context of the same draw under other parameters (the next point of a
    P_G or R_c_min sweep) is built with ``prev``, the previous point's
    context; a ``prev`` of another draw (another scenario seed or
    ``geometry.scenario_key``) is refused. It takes the links and fading
    from ``prev`` and adopts each table, as the very object ``prev`` holds,
    whose inputs besides them are bitwise equal to the ones ``prev`` read
    (``_reads``; the powers and thresholds are positive and finite, so
    ``==`` compares their bits):

    - path gains, unit-power link strengths and the rescoring lists of
      ``channel_value``: the maximum CU power;
    - the silenced value table, ``gain``, ``baseline`` and
      ``exhaustive_scores``: the maximum CU power, the feasible powers
      ``p_gk`` byte for byte, and both decode thresholds;
    - ``stage2``: both maximum powers;
    - ``avail``: both maximum powers and the CU threshold;
    - ``greedy_scores``: whenever ``gain``, ``stage2`` and ``avail`` all are.

    Every context computes its own feasible powers, which read the powers,
    thresholds, outage budgets and densities. Each score cache is shared
    only together with every table its scores read, so a cache never
    outlives a table it read: a context that rebuilds a table starts that
    table's caches empty.
    """

    def __init__(self, scenario, fading=None, *, prev=None):
        self.scenario = scenario
        self.params = p = scenario.params
        if prev is None:
            self.links = scenario_links(scenario)
            if fading is None:
                fading = draw_fading(self.links, rng_for(scenario.scenario_seed, FADING_STREAM))
            self.fading = fading
        else:
            if (scenario.scenario_seed, scenario_key(p)) != (
                prev.scenario.scenario_seed, scenario_key(prev.params)
            ):
                raise ValueError("prev is a context of another draw, so its links do not fit")
            self.links, self.fading = prev.links, prev.fading
        L = self.links
        self.C = p.num_channels
        self.G = L.num_groups
        cu_w, mg_w = p.max_cu_power_w, p.max_mg_power_w
        self._mg_th, self._cu_th = mg_th, cu_th = p.mg_sir_threshold, p.cu_sir_threshold

        # feasible power interval per (group, channel): the floor binds at the
        # group's farthest member, the cap at the channel CU's distance, so
        # one floor per group and one cap per channel meet in the clamp
        own_d = L.d_mg_rx[L.rx_group, np.arange(L.num_rx)]
        worst_d = np.maximum.reduceat(own_d, L.offsets) if self.G else np.zeros(0)
        lam_g = p.group_density_per_m2
        floors = [
            group_power_floor(
                p.cu_density_per_m2, lam_g, cu_w, p.exclusion_radius_m, d, mg_th,
                p.mg_outage_budget,
            )
            for d in worst_d
        ]
        caps = [group_power_cap(lam_g, cu_w, d, cu_th, p.cu_outage_budget) for d in L.d_cu_bs]
        self.p_inf = np.zeros(self.G)
        self.p_gk = np.zeros((self.G, self.C))
        for g, floor in enumerate(floors):
            for k, cap in enumerate(caps):
                b = power_interval(floor, cap, mg_w)
                if b.feasible:
                    self.p_gk[g, k] = b.p_sup_w
            self.p_inf[g] = b.p_inf_w

        self._reads = {
            "strengths": (cu_w,),
            "value": (cu_w, self.p_gk.tobytes(), mg_th, cu_th),
            "stage2": (cu_w, mg_w),
            "avail": (cu_w, mg_w, cu_th),
        }
        self._reads["greedy"] = (self._reads["value"], self._reads["stage2"], self._reads["avail"])
        self.exhaustive_scores: dict = {}
        self.greedy_scores: dict = {}
        if prev is not None:
            held = vars(prev)
            for name, reads in _SHARED.items():
                if name in held and prev._reads[reads] == self._reads[reads]:
                    setattr(self, name, held[name])
        if "sig_cu" not in vars(self):
            self._link_strengths(cu_w)

    def _link_strengths(self, cu_w: float) -> None:
        """Path gains and unit-power link strengths (powers multiply in
        afterwards), which read the links, the fading and the CU power."""
        L, fading = self.links, self.fading
        self._g_cu_bs = path_gain(L.d_cu_bs)
        self._g_mg_bs = path_gain(L.d_mg_bs)
        self._g_cu_rx = path_gain(L.d_cu_rx)
        self._g_mg_rx = path_gain(L.d_mg_rx)
        self.cu_power_w = np.full(self.C, cu_w)
        self.sig_cu = self.cu_power_w * fading.h_cu_bs * self._g_cu_bs
        self.base_I_rx = self.cu_power_w[:, None] * fading.h_cu_rx * self._g_cu_rx
        self.u_contrib_rx = fading.h_mg_rx * self._g_mg_rx[:, :, None]
        self.u_contrib_bs = fading.h_mg_bs * self._g_mg_bs[:, None]

    # -- tables ---------------------------------------------------------------

    @cached_property
    def _silenced(self) -> tuple:
        """(value, survivors) after the one-shot silencing step.

        Every granted group transmits at the top of its feasible interval; a
        group whose realized worst member SIR still misses the decode
        threshold at those powers earns nothing while interfering with
        everyone else, so it is muted. Muting can only raise the remaining
        SIRs, hence nobody new fails and one pass settles. The silenced score
        is therefore just the raw entry at the surviving sub-mask, which
        keeps the kernel the single arithmetic authority.
        """
        contrib_rx = self.u_contrib_rx * self.p_gk[:, None, :]
        contrib_bs = self.u_contrib_bs * self.p_gk
        raw, surv = build_value_table(
            self.base_I_rx,
            contrib_rx,
            self.sig_cu,
            contrib_bs,
            self.links.offsets,
            self.links.group_sizes,
            self._mg_th,
            self._cu_th,
        )
        return np.take_along_axis(raw, surv, axis=1), surv

    @property
    def value(self) -> np.ndarray:
        """(C, 2^G) channel score for every co-channel group mask, silenced."""
        return self._silenced[0]

    @property
    def survivors(self) -> np.ndarray:
        """(C, 2^G) sub-mask of each mask still transmitting after silencing."""
        return self._silenced[1]

    @cached_property
    def stage2(self) -> np.ndarray:
        p = self.params
        cu_victim = p.max_cu_power_w * self._g_cu_rx
        mg_victim = p.max_mg_power_w * self._g_mg_rx
        return build_stage2_table(cu_victim, mg_victim, self.links.rx_group)

    @cached_property
    def avail(self) -> np.ndarray:
        """Stage-1 channel availability: some group alone could keep the CU
        decodable at maximum powers under unit fading."""
        p = self.params
        sig = p.max_cu_power_w * self._g_cu_bs[:, None]
        den = p.max_mg_power_w * self._g_mg_bs[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (den <= 0.0) | (sig / den >= self._cu_th)
        return ok.any(axis=1)

    @cached_property
    def baseline(self) -> float:
        """Throughput with every channel CU-only."""
        return float(self.value[:, 0].sum())

    @cached_property
    def gain(self) -> np.ndarray:
        """(C+1, 2^G) gain of each mask on each channel over the CU alone,
        ``value[k, m] - value[k, 0]``; row C (row -1) is 0.0 for a slot
        left without a channel."""
        value = self.value
        out = np.zeros((self.C + 1, value.shape[1]))
        np.subtract(value, value[:, :1], out=out[:-1])
        return out

    @cached_property
    def _rescore(self) -> tuple:
        """What ``channel_value`` reads, as Python ints and floats: each
        group's range of receiver indices, and per channel k the tuple
        (sig_cu[k], u_contrib_bs[:, k], base_I_rx[k], u_contrib_rx[:, :, k]
        receiver-major)."""
        L = self.links
        members = [range(o, o + n) for o, n in zip(L.offsets.tolist(), L.group_sizes.tolist())]
        channels = zip(
            self.sig_cu.tolist(),
            self.u_contrib_bs.T.tolist(),
            self.base_I_rx.tolist(),
            self.u_contrib_rx.transpose(2, 1, 0).tolist(),
        )
        return members, list(channels)

    def channel_value(self, k: int, mask: int, mg_power_w: np.ndarray) -> float:
        """Recompute one channel's score for arbitrary group powers.

        Used by the grid power ascent where powers leave the precomputed
        operating point. It sums in the kernel's order, interference highest
        group first and rates lowest group first, so at the table powers it
        reproduces the raw value table bitwise. It reads the strengths as
        Python floats from ``_rescore``; float and numpy float64 arithmetic
        round alike, and log2 is libm's, as in the kernel. A group's least
        member SIR is capped once, which equals the least of the capped
        SIRs, as min is exact.
        """
        cap = SIR_CAP
        members, channels = self._rescore
        sig_cu, bs, base, rx = channels[k]
        power = mg_power_w.tolist()
        live = _groups_of(mask)
        down = live[::-1]
        I_bs = 0.0
        for g in down:
            I_bs += power[g] * bs[g]
        gam = cap if I_bs <= 0.0 else min(sig_cu / I_bs, cap)
        total = math.log2(1.0 + gam) if gam >= self._cu_th else 0.0
        mg_th = self._mg_th
        for g in live:
            others = [g2 for g2 in down if g2 != g]
            own = power[g]
            worst = math.inf
            for j in members[g]:
                row = rx[j]
                den = base[j]
                for g2 in others:
                    den += power[g2] * row[g2]
                gr = cap if den <= 0.0 else own * row[g] / den
                if gr < worst:
                    worst = gr
            if members[g]:
                worst = min(worst, cap)
            if worst >= mg_th:
                total += math.log2(1.0 + worst)
        return total


# The attributes a context built with ``prev`` adopts from it, each with the
# entry of ``EvalContext._reads`` that must be equal in both.
_SHARED = {
    **dict.fromkeys(
        ("_g_cu_bs", "_g_mg_bs", "_g_cu_rx", "_g_mg_rx", "cu_power_w", "sig_cu", "base_I_rx",
         "u_contrib_rx", "u_contrib_bs", "_rescore"),
        "strengths",
    ),
    **dict.fromkeys(("_silenced", "gain", "baseline", "exhaustive_scores"), "value"),
    "stage2": "stage2",
    "avail": "avail",
    "greedy_scores": "greedy",
}


def build_context(scenario, fading=None, *, prev=None) -> EvalContext:
    return EvalContext(scenario, fading, prev=prev)


# ---------------------------------------------------------------------------
# candidate enumeration (cached: same shapes recur across scenarios)


@lru_cache(maxsize=None)
def assignment_patterns(n_subsets: int, num_channels: int) -> np.ndarray:
    """Injective partial matchings of subset slots to channels, as a
    read-only (P, n_subsets) array of slot-channel rows (-1: no channel).

    Complete matchings come first (lexicographic), then patterns with one
    dropped subset, and so on. The all-dropped pattern is last and stands
    for a fully CU-only cell.
    """
    rows = []
    slots = range(n_subsets)
    for n_drop in range(n_subsets + 1):
        r = n_subsets - n_drop
        if r > num_channels:
            continue
        for dropped in combinations(slots, n_drop):
            kept = [s for s in slots if s not in dropped]
            for chans in permutations(range(num_channels), r):
                row = [-1] * n_subsets
                for s, k in zip(kept, chans):
                    row[s] = k
                rows.append(row)
    out = np.array(rows, dtype=np.int64).reshape(len(rows), n_subsets)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _subset_masks(G: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of combinations(range(G), s) in lexicographic order, and the
    lowest set bit of each."""
    masks = np.array(
        [sum(1 << g for g in c) for c in combinations(range(G), s)], dtype=np.int64
    )
    return masks, masks & -masks


def _vector_family_masks(G: int, sizes: tuple) -> np.ndarray:
    """The families of one size vector as bitmask rows, in the canonical
    order of `combinatorics.enumerate_families`.

    The rows grow one subset at a time: every current row is paired with
    every subset mask, row-major, and a pair is kept when the subset is
    disjoint from the row's groups and, after a subset of the same size, has
    a higher lowest group (the dedup rule of `enumerate_families`).
    np.nonzero keeps the pairs in lexicographic order.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    low = np.zeros(1, dtype=np.int64)
    prev = 0
    for s in sizes:
        masks, lows = _subset_masks(G, s)
        ok = (used[:, None] & masks) == 0
        if s == prev:
            ok &= lows > low[:, None]
        r, c = np.nonzero(ok)
        rows = np.column_stack((rows[r], masks[c]))
        used = used[r] | masks[c]
        low = lows[c]
        prev = s
    return rows


@lru_cache(maxsize=None)
def _family_table(G: int, C: int, mode: str) -> tuple[np.ndarray, tuple]:
    """All families for (G, C, mode) as read-only bitmask rows, the blocks
    of ``_vector_family_masks`` over the size vectors of
    `enumerate_size_vectors` in that order, and each block's bounds
    (sizes, start, end) in the rows, taken from the blocks' lengths.

    Blocks are built per mode, not cached per size vector: a cache of them
    would hold every family a second time, beside the concatenated rows.
    """
    blocks, bounds, start = [], [], 0
    for sizes in enumerate_size_vectors(G, C, mode):
        blocks.append(_vector_family_masks(G, sizes))
        bounds.append((sizes, start, start + len(blocks[-1])))
        start += len(blocks[-1])
    out = np.concatenate(blocks) if blocks else np.zeros((0, C), dtype=np.int64)
    out.flags.writeable = False
    return out, tuple(bounds)


def _groups_of(mask) -> list:
    """Indices of the set bits of a group mask, lowest first."""
    out = []
    m = int(mask)
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


# ---------------------------------------------------------------------------
# greedy heuristic (availability, interference ranking, greedy matching)


def greedy_match(matrix: np.ndarray, row_ok, col_sets: np.ndarray) -> np.ndarray:
    """Repeatedly take the globally smallest entry among free rows/columns.

    Every family f of ``col_sets`` (shape (F, S)) is matched on
    ``matrix[:, col_sets[f]]`` at once, in min(open rows, S) rounds. Ties
    break toward the lower row (channel), then the lower column (subset):
    each round takes the lexicographic (value, row, column) minimum over
    the free entries. The result is an (F, S) array holding the row each
    slot got, -1 where the slot stayed unmatched.

    Entries become integer keys, the value's rank among all entries, then
    the row, then the slot in the low bits, so one integer minimum is the
    lexicographic one and names the row and slot it took. For each set of
    rows a family can hold before its last round, a per-column table keeps
    the least key over the open rows not in the set. A round reads one key
    per slot from the family's table and takes their minimum; a matched
    slot reads a key above every real one. Families run in blocks of
    _BLOCK, so no (F, C, S) array is built.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    C, N = matrix.shape
    F, S = col_sets.shape
    open_rows = [k for k, ok in enumerate(np.asarray(row_ok, dtype=bool).tolist()) if ok]
    rounds = min(len(open_rows), S)
    row_of = np.full((S, F), -1, dtype=np.int64)
    if rounds == 0:
        return row_of.T
    flat = matrix.ravel()
    rank = np.searchsorted(np.sort(flat), flat)  # equal values share a rank
    sb, cb = (S - 1).bit_length(), (C - 1).bit_length()
    keys = (rank.reshape(C, N) << (cb + sb)) | (np.arange(C) << sb)[:, None]
    # the row sets a family can hold before its last round, each a table row
    # of W entries holding the least key over the open rows not in the set;
    # columns N and up read above every real key, and W >= C lets step, the
    # offset of each set plus one row, share the layout
    sets = [sum(1 << k for k in c) for r in range(rounds) for c in combinations(open_rows, r)]
    W = max(N + 1, C)
    table = np.full((len(sets), W), C * N << (cb + sb), dtype=np.int64)
    free = ((np.array(sets)[:, None] >> np.arange(C)) & 1) == 0
    for k in open_rows:
        np.minimum(table[:, :N], keys[k], out=table[:, :N], where=free[:, k, None])
    offset = {K: i * W for i, K in enumerate(sets)}
    step = np.zeros((len(sets), W), dtype=np.int64)
    step[:, :C] = [[offset.get(K | 1 << k, 0) for k in range(C)] for K in sets]
    slot = np.arange(S)[:, None]
    fam = np.arange(min(F, _BLOCK))
    for lo in range(0, F, _BLOCK):
        cols = col_sets[lo : lo + _BLOCK].T.copy()  # (S, n)
        n = cols.shape[1]
        f = fam[:n]
        rows = np.full((S, n), -1, dtype=np.int64)
        at_rows, at_cols = rows.reshape(-1), cols.reshape(-1)
        off = 0  # each family's table row, the empty set's at first
        for r in range(rounds):
            got = np.take(table, cols + off)
            got |= slot
            low = got.min(axis=0)
            s = low & ((1 << sb) - 1)
            k = (low >> sb) & ((1 << cb) - 1)
            at = s * n + f
            at_rows[at] = k
            if r + 1 < rounds:
                at_cols[at] = N
                off = np.take(step, off + k)
        row_of[:, lo : lo + n] = rows
    return row_of.T


# ---------------------------------------------------------------------------
# full per-scenario allocation


def _scores_by_vector(cache: dict, blocks, fam_masks: np.ndarray, score) -> tuple:
    """``score(fam_masks)``, a tuple of per-family arrays, read through a
    cache of per-size-vector blocks.

    ``blocks`` are the (sizes, start, end) bounds of ``fam_masks``. The
    blocks missing from ``cache`` are scored in one pass; when every block
    is missing, ``fam_masks`` itself is scored, with no gather. The cache
    maps each size vector to (arrays, start, end): the read-only arrays its
    block was scored in and its rows there, sliced only when read back. A
    family's scores must not depend on the other rows scored with it, so the
    result equals scoring ``fam_masks`` bitwise.
    """
    missing = [b for b in blocks if b[0] not in cache]
    if missing:
        whole = len(missing) == len(blocks)
        rows = fam_masks if whole else np.concatenate([fam_masks[lo:hi] for _, lo, hi in missing])
        out = score(rows)
        for a in out:
            a.flags.writeable = False
        at = 0
        for sizes, lo, hi in missing:
            cache[sizes] = (out, at, at + hi - lo)
            at += hi - lo
        if whole:
            return out
    parts = [[a[lo:hi] for a in out] for out, lo, hi in (cache[b[0]] for b in blocks)]
    return tuple(parts[0]) if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _slot_sums(ctx: EvalContext, rows: np.ndarray, fams: np.ndarray) -> np.ndarray:
    """The baseline plus ``gain[rows[:, s], fams[..., s]]`` added in slot
    order, one entry per row of ``rows``. ``fams`` is one family row or one
    per row. Each slot is one flat take from the gain table; a row of -1
    reads the zero row as a negative flat index."""
    width = ctx.gain.shape[1]
    tv = np.full(len(rows), ctx.baseline)
    for s in range(rows.shape[1]):
        tv += np.take(ctx.gain, rows[:, s] * width + fams[..., s])
    return tv


def _exhaustive_values(ctx: EvalContext, fam_masks: np.ndarray) -> np.ndarray:
    """Each family's best value over every channel matching.

    A candidate scores the baseline plus its assigned slots' gains added in
    slot order. Each family's best over all matchings comes from a max-plus
    pass over (slot, set K of channels taken so far): V_0[{}] = baseline
    and V_{s+1}[K] = max(V_s[K], V_s[K - k] + gain[k, fam[s]] for k in K).
    The last slot adds gain[k, fam[S-1]] to top[k], the best V_{S-1}[K]
    over the sets K without k, or nothing to the best of all. Round-to-
    nearest addition is monotone, max_i fl(a_i + x) = fl(max_i a_i + x),
    and a slot left without a channel adds nothing, so the pass equals the
    max over every matching's slot-order sum bitwise, with no (patterns,
    families) table. Families run in blocks of _BLOCK.
    """
    F, S = fam_masks.shape
    C = ctx.C
    gain = ctx.gain
    M = np.empty(F)  # each family's best value
    for lo in range(0, F, _BLOCK):
        cols = fam_masks[lo : lo + _BLOCK].T.copy()
        n = cols.shape[1]
        g = [[np.take(gain[k], col) for k in range(C)] for col in cols]  # g[s][k]
        V = {0: np.full(n, ctx.baseline)}  # channels taken -> best sum so far
        for s in range(S - 1):
            nxt = {}
            for K in {K | 1 << k for K in V for k in range(C)} | V.keys():
                most = V.get(K)
                for k in range(C):
                    if K >> k & 1 and K ^ 1 << k in V:
                        cand = V[K ^ 1 << k] + g[s][k]
                        most = cand if most is None else np.maximum(most, cand, out=cand)
                nxt[K] = most
            V = nxt
        top = [None] * (C + 1)  # top[C]: the best of all (bit C is in no set)
        for K, v in V.items():
            for k in range(C + 1):
                if not K >> k & 1:
                    top[k] = v if top[k] is None else np.maximum(top[k], v)
        m = top[C]
        for k in range(C):
            m = np.maximum(m, top[k] + g[S - 1][k])
        M[lo : lo + n] = m
    return M


def _exhaustive_best(ctx: EvalContext, fam_masks: np.ndarray, *, blocks):
    """The best candidate of ``fam_masks`` under every channel matching:
    its (family index, slot-channel row, value).

    Each family's best value comes from ``_exhaustive_values``, read through
    ``ctx.exhaustive_scores`` over the size-vector ``blocks`` of
    ``fam_masks``, so a block is scored once per context whichever modes
    admit it.

    Exact ties are common: a muted group contributes zero rate and zero
    interference, so families differing only in where they put it evaluate
    bitwise equal. Among the families reaching the optimum, the one
    covering the most groups wins (muted ones count too, so this is not the
    number that transmit), the first in enumeration order among equals,
    under the first row of ``assignment_patterns`` whose slot-order sum
    reaches the optimum.
    """
    S = fam_masks.shape[1]
    (M,) = _scores_by_vector(
        ctx.exhaustive_scores, blocks, fam_masks, lambda fams: (_exhaustive_values(ctx, fams),)
    )
    best = M.max()
    reach = np.flatnonzero(M == best)
    union = np.bitwise_or.reduce(fam_masks[reach], axis=1)
    covered = ((union[:, None] >> np.arange(ctx.G)) & 1).sum(axis=1)
    fi = int(reach[np.argmax(covered)])
    pats = assignment_patterns(S, ctx.C)
    tv = _slot_sums(ctx, pats, fam_masks[fi])
    pi = int(np.argmax(tv == best))
    return fi, pats[pi], float(best)


def _greedy_best(ctx: EvalContext, fam_masks: np.ndarray, *, blocks):
    """Greedy matching of every family of ``fam_masks``; the best family's
    (index, slot-channel row, value), the first family winning exact ties.

    The heuristic has three stages: ``avail`` closes channels whose CU could
    not decode next to even the friendliest single group at maximum powers,
    ``stage2`` scores each (channel, subset) pair by the worst sum
    interference a member would see, and greedy_match takes the smallest
    scores first. Subsets left over when channels run out stay unassigned.
    A family's row reads only its own columns, so the rows and values are
    read through ``ctx.greedy_scores`` over the size-vector ``blocks`` of
    ``fam_masks``, each block matched once per context.
    """

    def score(fams):
        row_of = greedy_match(ctx.stage2, ctx.avail, fams)
        return row_of, _slot_sums(ctx, row_of, fams)

    row_of, tv = _scores_by_vector(ctx.greedy_scores, blocks, fam_masks, score)
    fi = int(np.argmax(tv))
    return fi, row_of[fi], float(tv[fi])


def _grid_refine(
    ctx: EvalContext,
    masks_by_channel,
    mg_power: np.ndarray,
    n_points: int,
    *,
    table_value: float,
):
    """Coordinate ascent over a geometric power grid, starting at the top of
    each feasible interval.

    The ascent re-sums per-channel scores, which can land an ulp or two
    below ``table_value``, the table-backed score of the starting point. A
    result that does not exceed it returns the starting powers and
    ``table_value`` itself, so the result never falls below max_feasible,
    exactly.
    """
    start = mg_power
    mg_power = mg_power.copy()
    masks = [int(m) for m in masks_by_channel]
    chan_of = {g: k for k, m in enumerate(masks) for g in _groups_of(m)}
    vals = [ctx.channel_value(k, m, mg_power) for k, m in enumerate(masks)]
    for _ in range(_GRID_SWEEPS):
        improved = False
        for g in sorted(chan_of):
            k = chan_of[g]
            hi = mg_power[g] if mg_power[g] > 0.0 else ctx.p_gk[g, k]
            if hi <= 0.0:
                continue  # muted group stays muted
            lo = max(ctx.p_inf[g], hi * 1e-3)
            cands = [hi] + [
                lo ** (1.0 - t) * hi**t
                for t in ((i + 1.0) / (n_points + 1.0) for i in range(n_points))
            ]
            cur = mg_power[g]
            for cand in cands:
                if cand == cur:
                    continue
                mg_power[g] = cand
                new_v = ctx.channel_value(k, masks[k], mg_power)
                if new_v > vals[k]:
                    vals[k] = new_v
                    cur = cand
                    improved = True
                else:
                    mg_power[g] = cur
        if not improved:
            break
    total = float(sum(vals))
    if not total > table_value:
        return start.copy(), table_value
    return mg_power, total


def allocate(scenario, scheme: SchemeConfig, fading=None):
    """Run one scheme on one scenario: (Assignment, PowerVector, throughput).

    Iterates every family the selection mode admits, assigns each by the
    configured method, and keeps the highest-scoring candidate; the fully
    CU-only outcome is always in the running, so an infeasible cell degrades
    to CU-only rather than failing.
    """
    ctx = scenario if isinstance(scenario, EvalContext) else EvalContext(scenario, fading)
    C, G = ctx.C, ctx.G
    scheme.check_size(G, C)
    chan = np.zeros(C, dtype=np.int64)  # group mask on each channel
    mg_power = np.zeros(G)
    if not _admits_family(G, C, scheme.selection_mode):
        # no active group, or the mode admits no family at this (G, C): CU-only
        return _assignment(chan, ()), PowerVector(ctx.cu_power_w.copy(), mg_power), ctx.baseline

    fam_masks, blocks = _family_table(G, min(C, G), scheme.selection_mode)
    if scheme.assignment_method == "exhaustive":
        fi, row, tv = _exhaustive_best(ctx, fam_masks, blocks=blocks)
    else:
        fi, row, tv = _greedy_best(ctx, fam_masks, blocks=blocks)
    family = fam_masks[fi]
    chan[row[row >= 0]] = family[row >= 0]
    unassigned = family[row < 0]
    # groups the silencing step muted stay at zero power
    for k, live in enumerate(ctx.survivors[np.arange(C), chan].tolist()):
        for g in _groups_of(live):
            mg_power[g] = ctx.p_gk[g, k]
    if scheme.grid_points is not None:
        mg_power, tv = _grid_refine(ctx, chan, mg_power, scheme.grid_points, table_value=tv)
    return _assignment(chan, unassigned), PowerVector(ctx.cu_power_w.copy(), mg_power), tv


def _assignment(chan: np.ndarray, unassigned) -> Assignment:
    """The Assignment of per-channel group masks and leftover subset masks."""
    return Assignment(
        channel_to_groups={k: frozenset(_groups_of(m)) for k, m in enumerate(chan.tolist())},
        unassigned_subsets=tuple(frozenset(_groups_of(m)) for m in unassigned),
    )
