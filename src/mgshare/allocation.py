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
So on a table of at most _BLOCK families both searches keep their scores
on the EvalContext, keyed by size vector: each call names the blocks of
the rows it searches, and a context that holds none of them scores the
whole table in one pass. The schemes run on one context score each block
once, and each scheme applies its tie rules to its own mode's blocks in
enumeration order. The exhaustive search keeps only each block's best
value and the first family reaching it: the families of a block cover the
same number of groups, the sum of its size vector, so its tie rules need
no more, and a mode's pick walks its blocks. The greedy search keeps each
family's row. A greedy row reads the stage-2 table and the availability
but never the gains, so the rows are kept apart from the values and
outlive a change of powers: the pick sums them afresh.

A larger table (the `all` mode from 8 groups on 3 channels) is bounded and
pruned, branch and bound (Land & Doig 1960) kept exact by the same
monotone rounding. With ub the column maximum of the gain table, zero row
included, u_f = baseline + ub[T_0] + ub[T_1] + ... in slot order bounds
every candidate of family f, its best matching and its greedy row alike.
The _SEED families of highest u_f are scored for a lower bound lb, and
only the families with u_f >= lb are scored, in enumeration order; every
family reaching the optimum is among them, so both tie rules see the same
contenders.

On a table of either size the result (family index, row, value) is kept
per mode, keyed by the mode's blocks, so a scheme that shares a mode and
method with another (``optimal`` and ``all:exhaustive:grid(n)``) searches
once, and the next point of a run adopts it with the score cache and picks
nothing again.

Powers follow the closed-form feasibility interval: each assigned group
transmits at the top of its interval on its channel, and a group whose
interval is empty is muted (kept in the subset at zero power, zero rate)
rather than vetoing the whole subset. The optional grid policy then runs a
small coordinate ascent downward from that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations, permutations

import numpy as np

from .combinatorics import distinct_count, enumerate_size_vectors, parse_mode
from .geometry import same_draw
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
# 3 channels (2,532,530 families), the largest size measured. Every scheme's
# (C, 2^G) value table is held to the same cell count.
GREEDY_GUARD = (12, 3)
_CELL_LIMIT = distinct_count(*GREEDY_GUARD) * GREEDY_GUARD[1]

# Coordinate-ascent sweeps of the grid power policy.
_GRID_SWEEPS = 3

# Families per block in both searches: a block's per-family arrays stay in
# cache, and each search allocates the same few small arrays per block.
_BLOCK = 4096

# Families each search scores first, those of highest upper bound, for the
# lower bound that prunes a table of more than _BLOCK families; below _BLOCK.
_SEED = 256


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
            if n + 1 > _CELL_LIMIT:
                raise _refuse_cells(f"power policy grid({n}) refused: its candidate list", n + 1)
            return n
        raise ValueError(f"unknown power policy {self.power_policy!r}")

    @lru_cache(maxsize=None)
    def check_size(self, G: int, C: int) -> bool:
        """Refuse G groups on C channels past this scheme's guards; return
        whether it runs a search at that size, False where it runs CU-only.

        Every scheme reads the baseline and the gains from the (C, 2^G)
        value table, so that table is held to _CELL_LIMIT cells first, G
        compared before 2^G is built. A mode that admits no family of
        S = min(C, G) subsets (no group, or fixed(n) with n * S > G) runs
        CU-only. Otherwise the exhaustive search takes at most
        EXHAUSTIVE_GUARD groups, compared before it counts the
        matching_count(S, C) matchings of each family. The greedy search
        holds greedy_match's per-column table, a row of 2^G + 1 entries for
        each set of fewer than S channels, and its family table of S
        subsets per family to _CELL_LIMIT cells each. Passing sizes are
        cached, as allocate checks on every call.
        """
        mode, method = self.selection_mode, self.assignment_method
        if G >= _CELL_LIMIT.bit_length() or C << G > _CELL_LIMIT:
            raise _refuse_cells(f"{mode}:{method} refused for G={G}, C={C}: its value table",
                                f"{C} x 2^{G}")
        S, n = min(C, G), self.fixed_size
        if not G or n and n * S > G:
            return False
        if method == "exhaustive":
            gmax, cmax = EXHAUSTIVE_GUARD
            limit = matching_count(cmax, cmax)
            count = G <= gmax and matching_count(S, C)
            if not count or count > limit:
                raise ValueError(
                    f"exhaustive search refused for G={G}, C={C}"
                    + (f" ({count} channel matchings)" if count else "")
                    + f": it takes at most {gmax} groups and {limit} matchings, "
                    f"as many as {cmax} subsets have on {cmax} channels"
                )
            return True
        refused = f"greedy search refused for G={G}, C={C}, mode {mode}: its"
        table = sum(math.comb(C, r) for r in range(S)) * ((1 << G) + 1)
        if table > _CELL_LIMIT:
            raise _refuse_cells(f"{refused} matching table", table)
        families = distinct_count(G, S, mode) * S
        if families > _CELL_LIMIT:
            raise _refuse_cells(f"{refused} family table", families)
        return True


def matching_count(n_subsets: int, num_channels: int) -> int:
    """len(assignment_patterns(n_subsets, num_channels)), in closed form."""
    return sum(
        math.comb(n_subsets, r) * math.perm(num_channels, r)
        for r in range(min(n_subsets, num_channels) + 1)
    )


def _refuse_cells(table: str, cells) -> ValueError:
    """The error for a table that would hold `cells` cells, past _CELL_LIMIT."""
    return ValueError(
        f"{table} would hold {cells} cells, past the limit of {_CELL_LIMIT}, "
        f"as many as the families of {GREEDY_GUARD[0]} groups on {GREEDY_GUARD[1]} channels"
    )


# ---------------------------------------------------------------------------
# per-scenario evaluation context


class EvalContext:
    """Link gains, feasible powers, and score tables for one scenario.

    Built once per (scenario, fading); the allocation searches then run on
    table lookups. Tables are lazy: the heuristic's interference table is
    only built when the heuristic runs.

    The searches' scores are kept per size vector: ``exhaustive_scores``
    maps each vector to (best value, first row reaching it) over its block
    of families, the row counted from the block's start, and
    ``greedy_rows`` holds each vector's families' greedy rows in the form
    ``_scores_by_vector`` stores. A selection mode only chooses which
    vectors take part, so every scheme run on the context reads the blocks
    its mode admits and scores only those not yet held; a mode whose table
    is pruned scores no whole vector. Each mode that searched holds its
    (family index, row, value) under its blocks, in ``exhaustive_scores``
    or ``greedy_scores``. ``match_setups`` holds greedy_match's set-up per
    slot count.

    A context of the same draw under other parameters is built with
    ``prev``, the previous point's context. The same draw
    (``geometry.same_draw``) is a scenario that shares its CU and group
    lists with ``prev``'s, as ``geometry.next_scenario`` hands them on: the
    next point of a P_G or R_c_min sweep, or a D step that drops no
    receiver. A ``prev`` of another draw is refused. The context takes the
    links and fading from ``prev`` and adopts each table, as the very object
    ``prev`` holds, whose inputs besides them are bitwise equal to the ones
    ``prev`` read (``_same_reads``; the powers and thresholds are positive
    and finite, so ``==`` compares their bits):

    - path gains, unit-power link strengths and the rescoring lists of
      ``channel_value``: the maximum CU power;
    - the silenced value table, ``gain``, ``baseline`` and
      ``exhaustive_scores``: the maximum CU power, both decode thresholds,
      and the feasible powers ``p_gk`` byte for byte;
    - ``stage2``: both maximum powers;
    - ``avail``: both maximum powers and the CU threshold;
    - ``greedy_rows`` and ``match_setups``: both maximum powers, and the
      (C,) availability byte for byte, so an R_c_min step that opens and
      closes no channel keeps them;
    - ``greedy_scores``: whenever ``gain`` and ``greedy_rows`` both are.

    Where the maximum CU power and both thresholds hold and only ``p_gk``
    moved (a P_G step, or a D step of the same draw), the value table is
    spliced instead: unless every column moved, the context builds the rows
    of the channels whose ``p_gk`` column moved and takes the other rows
    from ``prev``'s (``_silenced``).

    Every context computes its own feasible powers, which read the powers,
    thresholds, outage budgets, densities and D, so D reaches the tables
    only through ``p_gk``. Each score cache is shared only where every
    table its scores read is shared or bitwise equal, so a cache never
    outlives the values it read: a context whose table differs starts that
    table's caches empty. An empty cache is not adopted.
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
            if not same_draw(scenario, prev.scenario):
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
            "kernel": (cu_w, mg_th, cu_th),
            "stage2": (cu_w, mg_w),
            "avail": (cu_w, mg_w, cu_th),
        }
        self._reads["value"] = (self._reads["kernel"], self.p_gk.tobytes())
        self.exhaustive_scores: dict = {}
        self.greedy_scores: dict = {}
        self.greedy_rows: dict = {}
        self.match_setups: dict = {}
        if prev is None or prev._reads["strengths"] != self._reads["strengths"]:
            self._link_strengths(cu_w)
        if prev is not None:
            held = vars(prev)
            for name, reads in _SHARED.items():
                # an empty cache is not worth comparing the availability for
                if (
                    name in held
                    and (not isinstance(held[name], dict) or held[name])
                    and self._same_reads(prev, reads)
                ):
                    setattr(self, name, held[name])
            if (
                "_silenced" in held
                and "_silenced" not in vars(self)
                and prev._reads["kernel"] == self._reads["kernel"]
            ):
                # only p_gk moved: rebuild the channels whose column moved
                moved = np.flatnonzero((self.p_gk != prev.p_gk).any(axis=0))
                if len(moved) < self.C:
                    self._splice = held["_silenced"], moved

    def _same_reads(self, prev: EvalContext, reads: str) -> bool:
        """Whether ``prev`` read what this context reads under ``reads``: an
        entry of ``_reads``; "match", the stage-2 reads and the
        availability's bytes; or "greedy", both "value" and "match"."""
        if reads == "greedy":
            return self._same_reads(prev, "value") and self._same_reads(prev, "match")
        if reads == "match":
            return self._same_reads(prev, "stage2") and prev.avail.tobytes() == self.avail.tobytes()
        return prev._reads[reads] == self._reads[reads]

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

        A context that holds ``_splice``, the previous context's (value,
        survivors) and the channels whose ``p_gk`` column moved, builds
        those rows only and takes the others from it: the kernel reads
        each channel's inputs alone, so a row equals that row of the full
        build bitwise. The reference is dropped here.
        """
        held, ch = vars(self).pop("_splice", (None, slice(None)))
        contrib_rx = self.u_contrib_rx[:, :, ch] * self.p_gk[:, None, ch]
        contrib_bs = self.u_contrib_bs[:, ch] * self.p_gk[:, ch]
        raw, surv = build_value_table(
            self.base_I_rx[ch],
            contrib_rx,
            self.sig_cu[ch],
            contrib_bs,
            self.links.offsets,
            self.links.group_sizes,
            self._mg_th,
            self._cu_th,
        )
        value = np.take_along_axis(raw, surv, axis=1)
        if held is None:
            return value, surv
        out = held[0].copy(), held[1].copy()
        out[0][ch], out[1][ch] = value, surv
        return out

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
# reads ``EvalContext._same_reads`` compares. The strengths come first: the
# availability compared under "match" reads them.
_SHARED = {
    **dict.fromkeys(
        ("_g_cu_bs", "_g_mg_bs", "_g_cu_rx", "_g_mg_rx", "cu_power_w", "sig_cu", "base_I_rx",
         "u_contrib_rx", "u_contrib_bs", "_rescore"),
        "strengths",
    ),
    **dict.fromkeys(("_silenced", "gain", "baseline", "exhaustive_scores"), "value"),
    "stage2": "stage2",
    "avail": "avail",
    **dict.fromkeys(("greedy_rows", "match_setups"), "match"),
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


def _match_setup(matrix: np.ndarray, row_ok, S: int) -> tuple:
    """What greedy_match reads besides the families, for families of S
    slots: (rounds, sb, cb, N, table, step), as its docstring describes.
    It depends on the matrix, the open rows and S only, so a caller matching
    several family sets on one matrix builds it once."""
    matrix = np.asarray(matrix, dtype=np.float64)
    C, N = matrix.shape
    open_rows = [k for k, ok in enumerate(np.asarray(row_ok, dtype=bool).tolist()) if ok]
    rounds = min(len(open_rows), S)
    if rounds == 0:
        return rounds, 0, 0, N, None, None
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
    return rounds, sb, cb, N, table, step


def greedy_match(matrix: np.ndarray, row_ok, col_sets: np.ndarray, setup=None) -> np.ndarray:
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
    slot reads a key above every real one. That set-up is ``setup``,
    ``_match_setup(matrix, row_ok, S)``, built here when None. Families run
    in blocks of _BLOCK, so no (F, C, S) array is built.
    """
    F, S = col_sets.shape
    rounds, sb, cb, N, table, step = setup or _match_setup(matrix, row_ok, S)
    row_of = np.full((S, F), -1, dtype=np.int64)
    if rounds == 0:
        return row_of.T
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


def _scores_by_vector(cache: dict, blocks, fam_masks: np.ndarray, score) -> np.ndarray:
    """``score(fam_masks)``, a per-family array, read through a cache of
    per-size-vector blocks.

    ``blocks`` are the (sizes, start, end) bounds of ``fam_masks``. The
    blocks missing from ``cache`` are scored in one pass; when every block
    is missing, ``fam_masks`` itself is scored, with no gather. The cache
    maps each size vector to (array, start, end): the read-only array its
    block was scored in and its rows there, sliced only when read back. A
    family's scores must not depend on the other rows scored with it, so the
    result equals scoring ``fam_masks`` bitwise.
    """
    missing = [b for b in blocks if b[0] not in cache]
    if missing:
        whole = len(missing) == len(blocks)
        rows = fam_masks if whole else np.concatenate([fam_masks[lo:hi] for _, lo, hi in missing])
        out = score(rows)
        out.flags.writeable = False
        at = 0
        for sizes, lo, hi in missing:
            cache[sizes] = (out, at, at + hi - lo)
            at += hi - lo
        if whole:
            return out
    parts = [out[lo:hi] for out, lo, hi in (cache[b[0]] for b in blocks)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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


def _upper_bounds(ctx: EvalContext, fam_masks: np.ndarray) -> np.ndarray:
    """u_f = baseline + ub[T_0] + ub[T_1] + ... added in slot order, one
    entry per family row T of ``fam_masks``, where ub is the column maximum
    of ``ctx.gain``. The zero row takes part, so ub >= 0 and ub[T_s] is at
    least every term slot s can add, the zero row's included. Round-to-
    nearest addition is monotone, so every slot-order sum of a family, its
    best matching's and its greedy row's among them, is at most u_f
    exactly."""
    ub = ctx.gain.max(axis=0)
    u = np.full(len(fam_masks), ctx.baseline)
    for s in range(fam_masks.shape[1]):
        u += np.take(ub, fam_masks[:, s])
    return u


def _search(ctx: EvalContext, cache: dict, fam_masks, blocks, whole, score, pick) -> tuple:
    """The (family index, slot-channel row, value) a search chooses over
    ``fam_masks``, held in ``cache`` under ``blocks``, the (sizes, start,
    end) bounds of the mode's whole table, so a mode searches once per
    ``cache``; the first family in enumeration order wins equal ranks.

    A table of at most _BLOCK families is searched whole by ``whole()``,
    which returns that triple. A larger one is bounded and pruned:
    ``score(fams)`` returns a per-family array and ``pick(at, fams,
    scores)``, for the families at table indices ``at``, applies the
    search's tie rules and returns its (family index, row, value, rank).
    The _SEED families of highest ``_upper_bounds`` are picked from for a
    lower bound lb on the best value, and only the families with u_f >= lb
    are scored, _BLOCK at a time in enumeration order, each block's pick
    kept when its rank beats the picks before it. Every family reaching the
    best value v has u_f >= v >= lb, so the result and its tie rules are
    unchanged. No size vector's entry is written, as no block was scored
    whole, and no bound or kept row outlives the call.
    """
    if blocks in cache:
        return cache[blocks]
    # each kept row is a copy, so it holds no block's arrays past the block
    if len(fam_masks) <= _BLOCK:
        fi, row, value = whole()
        best = fi, row.copy(), value
    else:
        u = _upper_bounds(ctx, fam_masks)
        seed = np.argpartition(u, -_SEED)[-_SEED:]
        fams = fam_masks[seed]
        keep = np.flatnonzero(u >= pick(seed, fams, score(fams))[2])
        del u  # the bound is not held while the kept families are scored
        best = None
        for lo in range(0, len(keep), _BLOCK):
            at = keep[lo : lo + _BLOCK]
            fams = fam_masks[at]
            fi, row, value, rank = pick(at, fams, score(fams))
            if best is None or rank > best[3]:
                best = fi, row.copy(), value, rank
    cache[blocks] = best[:3]
    return cache[blocks]


def _exhaustive_best(ctx: EvalContext, fam_masks: np.ndarray, *, blocks):
    """The best candidate of ``fam_masks`` under every channel matching:
    its (family index, slot-channel row, value).

    Exact ties are common: a muted group contributes zero rate and zero
    interference, so families differing only in where they put it evaluate
    bitwise equal. Among the families reaching the optimum, the one
    covering the most groups wins (muted ones count too, so this is not the
    number that transmit), the first in enumeration order among equals,
    under the first row of ``assignment_patterns`` whose slot-order sum
    reaches the optimum. A family's subsets are disjoint, so the groups it
    covers are the sum of its size vector.

    Each family's best value comes from ``_exhaustive_values`` through
    ``_search``. On a table of at most _BLOCK families, the size vectors of
    ``blocks`` missing from ``ctx.exhaustive_scores`` are scored in one pass,
    and each is held there as its block's best value and the first row of
    the block reaching it, no per-family array. The pick walks the mode's
    blocks in enumeration order: the best value wins, then the most covered
    groups, then the first block. Each mode's result is held there too,
    under its ``blocks``: a block is scored once per context whichever modes
    admit it, and ``optimal`` and ``all:exhaustive:grid(n)`` search once.
    """
    cache = ctx.exhaustive_scores

    def whole():
        missing = [b for b in blocks if b[0] not in cache]
        if missing:
            rows = fam_masks
            if len(missing) < len(blocks):
                rows = np.concatenate([fam_masks[lo:hi] for _, lo, hi in missing])
            M = _exhaustive_values(ctx, rows)
            lengths = [hi - lo for _, lo, hi in missing]
            starts = np.cumsum([0] + lengths[:-1])
            top = np.maximum.reduceat(M, starts)
            reach = np.flatnonzero(M == np.repeat(top, lengths))
            first = reach[np.searchsorted(reach, starts)] - starts
            for (sizes, _, _), value, r in zip(missing, top.tolist(), first.tolist()):
                cache[sizes] = value, r
        rank = fi = None
        for sizes, lo, _ in blocks:
            value, r = cache[sizes]
            if rank is None or (value, sum(sizes)) > rank:
                rank, fi = (value, sum(sizes)), lo + r
        return fi, _best_row(ctx, fam_masks[fi], rank[0]), rank[0]

    def pick(at, fams, M):
        best = M.max()
        reach = np.flatnonzero(M == best)
        # each family's covered groups, the sum of its block's size vector
        ends = [hi for _, _, hi in blocks]
        covered = np.take([sum(b[0]) for b in blocks], np.searchsorted(ends, at[reach], "right"))
        i = int(reach[np.argmax(covered)])
        return int(at[i]), _best_row(ctx, fams[i], best), float(best), (best, covered.max())

    return _search(ctx, cache, fam_masks, blocks, whole, partial(_exhaustive_values, ctx), pick)


def _best_row(ctx: EvalContext, fam: np.ndarray, value: float) -> np.ndarray:
    """The first row of ``assignment_patterns`` whose slot-order sum over
    the family row ``fam`` reaches ``value``, its best value."""
    pats = assignment_patterns(len(fam), ctx.C)
    return pats[int(np.argmax(_slot_sums(ctx, pats, fam) == value))]


def _greedy_best(ctx: EvalContext, fam_masks: np.ndarray, *, blocks):
    """Greedy matching of every family of ``fam_masks``; the best family's
    (index, slot-channel row, value), the first family winning exact ties.

    The heuristic has three stages: ``avail`` closes channels whose CU could
    not decode next to even the friendliest single group at maximum powers,
    ``stage2`` scores each (channel, subset) pair by the worst sum
    interference a member would see, and greedy_match takes the smallest
    scores first. Subsets left over when channels run out stay unassigned.
    A family's row reads only its own columns and never the gain table, so
    the rows go through ``_search`` per size vector in ``ctx.greedy_rows``,
    which a context adopts wherever the stage-2 table and the availability
    are unchanged, and the pick sums each row's gains afresh. Each mode's
    result is kept in ``ctx.greedy_scores`` under its ``blocks``. Past
    _BLOCK families the table is bounded and pruned, as in
    ``_exhaustive_best``. greedy_match's set-up is held per slot count in
    ``ctx.match_setups`` beside the rows.
    """
    setups = ctx.match_setups

    def score(fams):
        S = fams.shape[1]
        if S not in setups:
            setups[S] = _match_setup(ctx.stage2, ctx.avail, S)
        return greedy_match(ctx.stage2, ctx.avail, fams, setups[S])

    def pick(at, fams, row_of):
        tv = _slot_sums(ctx, row_of, fams)
        i = int(np.argmax(tv))
        return int(at[i]), row_of[i], float(tv[i]), tv[i]

    def whole():
        rows = _scores_by_vector(ctx.greedy_rows, blocks, fam_masks, score)
        return pick(range(len(fam_masks)), fam_masks, rows)[:3]

    return _search(ctx, ctx.greedy_scores, fam_masks, blocks, whole, score, pick)


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
    chan = np.zeros(C, dtype=np.int64)  # group mask on each channel
    mg_power = np.zeros(G)
    if not scheme.check_size(G, C):
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
