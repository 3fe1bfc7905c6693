"""Scalar reference implementations the package is checked against.

The radio-layer scorer (SIR per receiver, group and CU, rates, sum
throughput) recomputes one assignment's throughput from the link tables,
one term at a time; `evaluate` scores an assignment through it at the
powers allocate would grant. The table loops walk masks in increasing order
and extend each interference sum from the mask minus its lowest set bit;
the channel rescorer reads numpy scalars where the package reads floats.
The power loop evaluates both power bounds for every (group, channel) pair,
where the package evaluates each floor once per group and each cap once per
channel.
The greedy oracle matches one family at a time with its own scan; the
exhaustive oracle scores every family under every (slot, channel) pair
pattern in a (families, patterns) table with a flat tie-break. The
unpruned searches score every family of a table in one pass, with no
bound, prune or cache, and apply the package's tie rules. The
sampling oracles compute every candidate's position and test exclusion and
association for every candidate against every CU and transmitter in one
broadcast, with no candidate window and no association reach. The
vectorized code in the package must agree with these bitwise or to within
re-summation noise, as each test states. The equal-split bound counts the
equal search space a second way, from ordered selections alone.
"""

import math
from itertools import combinations, permutations

import numpy as np

from mgshare.allocation import _exhaustive_values, _slot_sums, assignment_patterns, greedy_match
from mgshare.combinatorics import ordered_selections
from mgshare.geometry import CellularUser, MulticastGroup, NetworkScenario
from mgshare.params import MIN_LINK_DISTANCE_M, PATH_LOSS_EXPONENT, SIR_CAP
from mgshare.power import group_power_cap, group_power_floor
from mgshare.radio import PowerVector, ScenarioLinks, path_gain, scenario_links
from mgshare.seeds import child_seed, rng_for

# ---------------------------------------------------------------------------
# radio-layer scoring of one assignment


def _links_of(x):
    """The links of a ScenarioLinks, an EvalContext or a scenario."""
    if isinstance(x, ScenarioLinks):
        return x
    return x.links if hasattr(x, "links") else scenario_links(x)


def _capped(signal, denom):
    return SIR_CAP if denom <= 0.0 else min(signal / denom, SIR_CAP)


def sir_mg_receiver(scenario_or_links, fading, powers, assignment, g, r, k):
    """SIR of member r of group g on channel k.

    Interference: the channel's CU plus every other group assigned to k. The
    ratio is capped at SIR_CAP, which also covers an interference-free
    channel.
    """
    links = _links_of(scenario_or_links)
    assignment = np.asarray(assignment)
    if assignment[g] != k:
        raise ValueError(f"group {g} is not assigned to channel {k}")
    if not (0 <= r < links.group_sizes[g]):
        raise IndexError("receiver index outside the group")
    j = int(links.offsets[g]) + r
    sig = powers.mg_power_w[g] * fading.h_mg_rx[g, j, k] * path_gain(links.d_mg_rx[g, j])
    den = powers.cu_power_w[k] * fading.h_cu_rx[k, j] * path_gain(links.d_cu_rx[k, j])
    for g2 in range(links.num_groups):
        if g2 != g and assignment[g2] == k:
            den += (
                powers.mg_power_w[g2]
                * fading.h_mg_rx[g2, j, k]
                * path_gain(links.d_mg_rx[g2, j])
            )
    return _capped(sig, den)


def sir_group(scenario_or_links, fading, powers, assignment, g, k):
    """Worst-member SIR of group g on channel k."""
    links = _links_of(scenario_or_links)
    size = int(links.group_sizes[g])
    if size == 0:
        raise ValueError(f"group {g} has no receivers")
    return min(
        sir_mg_receiver(links, fading, powers, assignment, g, r, k) for r in range(size)
    )


def sir_cu(scenario_or_links, fading, powers, assignment, k):
    """SIR of channel k's cellular user at the base station."""
    links = _links_of(scenario_or_links)
    assignment = np.asarray(assignment)
    sig = powers.cu_power_w[k] * fading.h_cu_bs[k] * path_gain(links.d_cu_bs[k])
    den = 0.0
    for g in range(links.num_groups):
        if assignment[g] == k:
            den += (
                powers.mg_power_w[g] * fading.h_mg_bs[g, k] * path_gain(links.d_mg_bs[g])
            )
    return _capped(sig, den)


def rate(gamma, threshold):
    """log2(1 + gamma) in bit/s/Hz, gated by the decode threshold."""
    if gamma < threshold:
        return 0.0
    return math.log2(1.0 + gamma)


def sum_throughput(scenario_or_ctx, fading, powers, assignment):
    """CU rate plus the rates of the groups assigned to it, summed over
    channels, in bit/s/Hz, at the thresholds of the scenario's or the
    EvalContext's parameters."""
    links = _links_of(scenario_or_ctx)
    p = scenario_or_ctx.params
    assignment = np.asarray(assignment)
    total = 0.0
    for k in range(p.num_channels):
        total += rate(sir_cu(links, fading, powers, assignment, k), p.cu_sir_threshold)
        for g in range(links.num_groups):
            if assignment[g] == k:
                total += rate(
                    sir_group(links, fading, powers, assignment, g, k), p.mg_sir_threshold
                )
    return total


def silenced_throughput(ctx, arr):
    """Radio-layer throughput of an assignment array at full feasible power,
    after the one-shot silencing: whoever misses the decode threshold at
    those powers goes quiet."""
    mg = np.array([ctx.p_gk[g, arr[g]] if arr[g] >= 0 else 0.0 for g in range(ctx.G)])
    full = PowerVector(ctx.cu_power_w, mg.copy())
    for g in range(ctx.G):
        if arr[g] >= 0 and (
            sir_group(ctx.links, ctx.fading, full, arr, g, int(arr[g]))
            < ctx.params.mg_sir_threshold
        ):
            mg[g] = 0.0
    return sum_throughput(ctx, ctx.fading, PowerVector(ctx.cu_power_w, mg), arr)


def as_array(assignment, num_groups):
    """Each group's channel under an Assignment, -1 where it has none."""
    arr = np.full(num_groups, -1, dtype=np.int64)
    for k, gs in assignment.channel_to_groups.items():
        for g in gs:
            arr[g] = k
    return arr


def evaluate(ctx, assignment):
    """Score an assignment through the radio-layer oracle at the powers
    allocate grants it under max_feasible: the top of each feasible
    interval, with the one-shot silencing applied."""
    return silenced_throughput(ctx, as_array(assignment, ctx.G))


# ---------------------------------------------------------------------------
# table builds


def value_table_loop(base_I_rx, contrib_rx, sig_cu, contrib_bs, offsets, sizes, mg_th, cu_th):
    cap = SIR_CAP
    C, n = base_I_rx.shape
    G = contrib_rx.shape[0]
    M = 1 << G
    out = np.zeros((C, M))
    passing = np.zeros((C, M), dtype=np.int64)
    I_rx = np.zeros((M, n))
    I_bs = np.zeros(M)
    for k in range(C):
        for j in range(n):
            I_rx[0, j] = base_I_rx[k, j]
        I_bs[0] = 0.0
        out[k, 0] = math.log2(1.0 + cap) if cap >= cu_th else 0.0
        for m in range(1, M):
            b = m & (-m)
            g = 0
            while (1 << g) != b:
                g += 1
            prev = m ^ b
            for j in range(n):
                I_rx[m, j] = I_rx[prev, j] + contrib_rx[g, j, k]
            I_bs[m] = I_bs[prev] + contrib_bs[g, k]
            den = I_bs[m]
            if den <= 0.0:
                gam = cap
            else:
                gam = sig_cu[k] / den
                if gam > cap:
                    gam = cap
            total = math.log2(1.0 + gam) if gam >= cu_th else 0.0
            ok = 0
            mm = m
            while mm:
                bb = mm & (-mm)
                g2 = 0
                while (1 << g2) != bb:
                    g2 += 1
                mm ^= bb
                worst = math.inf
                excl = m ^ bb
                for t in range(sizes[g2]):
                    j = offsets[g2] + t
                    sig = contrib_rx[g2, j, k]
                    den_r = I_rx[excl, j]
                    if den_r <= 0.0:
                        gr = cap
                    else:
                        gr = sig / den_r
                        if gr > cap:
                            gr = cap
                    if gr < worst:
                        worst = gr
                if worst >= mg_th:
                    total += math.log2(1.0 + worst)
                    ok |= bb
            out[k, m] = total
            passing[k, m] = ok
    return out, passing


def stage2_table_loop(cu_victim, mg_victim, rx_group):
    C, n = cu_victim.shape
    G = mg_victim.shape[0]
    M = 1 << G
    tot = np.zeros((M, n))
    out = np.zeros((C, M))
    for m in range(1, M):
        b = m & (-m)
        g = 0
        while (1 << g) != b:
            g += 1
        prev = m ^ b
        for j in range(n):
            tot[m, j] = tot[prev, j] + mg_victim[g, j]
    for k in range(C):
        for m in range(1, M):
            worst = 0.0
            for j in range(n):
                bit = 1 << rx_group[j]
                if m & bit:
                    v = cu_victim[k, j] + tot[m ^ bit, j]
                    if v > worst:
                        worst = v
            out[k, m] = worst
    return out


def stage2_matrix_direct(ctx, subset_masks):
    """Worst member sum interference per (channel, subset), from scratch.

    Entry (k, s): max over members r of s's groups of the interference r
    would collect from s's other groups plus channel k's CU, everything at
    maximum power with unit fading.
    """
    p = ctx.params
    L = ctx.links
    out = np.zeros((ctx.C, len(subset_masks)))
    for s, mask in enumerate(subset_masks):
        groups = [g for g in range(ctx.G) if (int(mask) >> g) & 1]
        victims = [int(L.offsets[g]) + t for g in groups for t in range(int(L.group_sizes[g]))]
        for k in range(ctx.C):
            worst = 0.0
            for j in victims:
                tot = p.max_cu_power_w * ctx._g_cu_rx[k, j]
                for g2 in groups:
                    if g2 != L.rx_group[j]:
                        tot += p.max_mg_power_w * ctx._g_mg_rx[g2, j]
                worst = max(worst, tot)
            out[k, s] = worst
    return out


def channel_value_loop(ctx, k, mask, mg_power_w):
    """One channel's score at arbitrary group powers, read from the
    context's numpy link strengths one scalar at a time, summed in the
    kernel's order: interference highest group first, rates lowest group
    first. EvalContext.channel_value reads the same strengths as Python
    floats and must agree bitwise."""
    p = ctx.params
    cap = SIR_CAP
    live = [g for g in range(ctx.G) if (mask >> g) & 1]
    down = live[::-1]
    I_bs = 0.0
    for g in down:
        I_bs += mg_power_w[g] * ctx.u_contrib_bs[g, k]
    gam = cap if I_bs <= 0.0 else min(ctx.sig_cu[k] / I_bs, cap)
    total = math.log2(1.0 + gam) if gam >= p.cu_sir_threshold else 0.0
    L = ctx.links
    for g in live:
        worst = math.inf
        for t in range(L.group_sizes[g]):
            j = L.offsets[g] + t
            sig = mg_power_w[g] * ctx.u_contrib_rx[g, j, k]
            den = ctx.base_I_rx[k, j]
            for g2 in down:
                if g2 != g:
                    den += mg_power_w[g2] * ctx.u_contrib_rx[g2, j, k]
            gr = cap if den <= 0.0 else min(sig / den, cap)
            worst = min(worst, gr)
        if worst >= p.mg_sir_threshold:
            total += math.log2(1.0 + worst)
    return total


# ---------------------------------------------------------------------------
# feasible powers


def power_table_loop(ctx):
    """(p_inf, p_gk) of a context, composed pair by pair: for every (group,
    channel) the floor at the group's farthest member, the cap at the
    channel CU's distance, and their clamp to [0, P_G], with both bounds
    evaluated again for each pair. EvalContext evaluates one floor per group
    and one cap per channel and must agree bitwise."""
    p, L = ctx.params, ctx.links
    p_inf = np.zeros(ctx.G)
    p_gk = np.zeros((ctx.G, ctx.C))
    for g in range(ctx.G):
        worst = max(L.d_mg_rx[g, L.offsets[g] + t] for t in range(L.group_sizes[g]))
        for k in range(ctx.C):
            low = group_power_floor(
                p.cu_density_per_m2, p.group_density_per_m2, p.max_cu_power_w,
                p.exclusion_radius_m, worst, p.mg_sir_threshold, p.mg_outage_budget,
            )
            high = group_power_cap(
                p.group_density_per_m2, p.max_cu_power_w, L.d_cu_bs[k],
                p.cu_sir_threshold, p.cu_outage_budget,
            )
            p_inf[g] = max(0.0, low)
            p_sup = min(p.max_mg_power_w, high)
            if p_inf[g] <= p_sup:
                p_gk[g, k] = p_sup
    return p_inf, p_gk


# ---------------------------------------------------------------------------
# greedy matching


def greedy_match_loop(matrix, row_ok):
    """The slot-channel row (-1: no channel) of the greedy matching of one
    family: each round scans the open channels and free slots row by row and
    takes the first smallest entry."""
    rows = [k for k, ok in enumerate(row_ok) if ok]
    cols = list(range(len(matrix[0]))) if len(matrix) else []
    out = [-1] * len(cols)
    while rows and cols:
        best = None
        for k in rows:
            for s in cols:
                if best is None or matrix[k][s] < best[0]:
                    best = (matrix[k][s], k, s)
        _, k, s = best
        out[s] = k
        rows.remove(k)
        cols.remove(s)
    return out


def greedy_rows_loop(ctx, fam_masks):
    """greedy_match_loop's slot-channel row for each family."""
    table = ctx.stage2.tolist()
    row_ok = ctx.avail.tolist()
    return [
        greedy_match_loop([[row[m] for m in masks] for row in table], row_ok)
        for masks in fam_masks.tolist()
    ]


def greedy_best_loop(ctx, fam_masks, family_rows):
    """(family index, row, value) of the best greedy matching, given each
    family's row; the first family wins exact ties."""
    value = ctx.value.tolist()
    base = ctx.baseline
    best = (-math.inf, None, None)
    for fi, (masks, row) in enumerate(zip(fam_masks.tolist(), family_rows)):
        v = base
        for s, k in enumerate(row):
            if k >= 0:
                v += value[k][masks[s]] - value[k][0]
        if v > best[0]:
            best = (v, fi, row)
    return best[1], best[2], best[0]


# ---------------------------------------------------------------------------
# exhaustive search over (slot, channel) pair patterns


def assignment_pairs(n_subsets, num_channels):
    """Injective partial matchings as tuples of (slot, channel) pairs sorted
    by slot: complete matchings first (lexicographic), then one dropped
    subset, and so on, the all-dropped pattern last."""
    pats = []
    slots = tuple(range(n_subsets))
    for n_drop in range(n_subsets + 1):
        r = n_subsets - n_drop
        if r > num_channels:
            continue
        for dropped in combinations(slots, n_drop):
            kept = tuple(s for s in slots if s not in dropped)
            for chans in permutations(range(num_channels), r):
                pats.append(tuple(zip(kept, chans)))
    return tuple(pats)


def exhaustive_best_table(ctx, fam_masks):
    """The exhaustive search on a (families, pair patterns) table with a
    flat tie-break: (family index, slot-channel row, value, tied candidates).

    Of the candidates tied at the optimum, the first in (family, pattern)
    order whose family covers the most groups wins.
    """
    F, S = fam_masks.shape
    pats = assignment_pairs(S, ctx.C)
    value = ctx.value
    base = ctx.baseline
    gain = np.empty((ctx.C, S, F))
    for k in range(ctx.C):
        for s in range(S):
            gain[k, s] = value[k, fam_masks[:, s]] - value[k, 0]
    tv = np.full((F, len(pats)), base)
    for pi, pat in enumerate(pats):
        for s, k in pat:
            tv[:, pi] += gain[k, s]
    flat = int(np.argmax(tv))
    best_v = tv.ravel()[flat]
    ties = np.flatnonzero(tv.ravel() == best_v)
    if len(ties) > 1:
        union = np.bitwise_or.reduce(fam_masks, axis=1)
        cov = np.zeros(F, dtype=np.int64)
        for g in range(ctx.G):
            cov += (union >> g) & 1
        flat = int(ties[np.argmax(cov[ties // len(pats)])])
    fi, pi = divmod(flat, len(pats))
    row = [-1] * S
    for s, k in pats[pi]:
        row[s] = k
    return fi, row, float(tv[fi, pi]), len(ties)


def exhaustive_best_unpruned(ctx, fam_masks):
    """The exhaustive search over every family of ``fam_masks`` in one pass:
    (family index, slot-channel row, value). Of the families reaching the
    optimum, the first covering the most groups, under its first pattern
    reaching it."""
    M = _exhaustive_values(ctx, fam_masks)
    best = M.max()
    reach = np.flatnonzero(M == best)
    union = np.bitwise_or.reduce(fam_masks[reach], axis=1)
    covered = [bin(int(m)).count("1") for m in union]
    fi = int(reach[np.argmax(covered)])
    pats = assignment_patterns(fam_masks.shape[1], ctx.C)
    pi = int(np.argmax(_slot_sums(ctx, pats, fam_masks[fi]) == best))
    return fi, pats[pi].tolist(), float(best)


def greedy_best_unpruned(ctx, fam_masks):
    """The greedy search over every family of ``fam_masks`` in one pass:
    (family index, slot-channel row, value), the first family winning
    exact ties."""
    row_of = greedy_match(ctx.stage2, ctx.avail, fam_masks)
    tv = _slot_sums(ctx, row_of, fam_masks)
    fi = int(np.argmax(tv))
    return fi, row_of[fi].tolist(), float(tv[fi])


# ---------------------------------------------------------------------------
# counting: the equal-split bound


def equal_split_bound(G: int, C: int) -> int:
    """Lower bound on search_space_size(G, C, "all"): the equal-size vectors
    only, each ordered-selection product divided by C, times C!.

    Equals search_space_size(G, C, "equal") and has the closed form
    G! (C-1)! * sum_n 1 / ((n!)^C (G - nC)!).
    """
    total = 0
    for n in range(1, G // C + 1):
        term, rem = divmod(ordered_selections(G, [n] * C), C)
        if rem:
            raise ArithmeticError("equal-split term not divisible by C")
        total += term
    return total * math.factorial(C)


# ---------------------------------------------------------------------------
# scenario sampling: exclusion and association over every candidate


def apply_exclusion_dense(candidates, cus, exclusion_radius_m):
    """`geometry.apply_exclusion` as one (n, C, 2) broadcast."""
    pts = np.atleast_2d(np.asarray(candidates, dtype=float)) if len(candidates) else np.empty((0, 2))
    centers = np.asarray(cus, dtype=float).reshape(-1, 2)
    if len(pts) == 0 or len(centers) == 0 or exclusion_radius_m == 0.0:
        return pts, 0
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    keep = d2.min(axis=1) >= exclusion_radius_m ** 2
    return pts[keep], int(len(pts) - keep.sum())


def form_groups_dense(tx_positions, receivers, tx_power_w, assoc_min_rx_power_w):
    """`geometry.form_groups` scoring every receiver at every transmitter."""
    txs = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(receivers, dtype=float)) if len(receivers) else np.empty((0, 2))
    if len(rx) == 0:
        return []
    d = np.sqrt(((rx[:, None, :] - txs[None, :, :]) ** 2).sum(axis=2))
    d_eff = np.maximum(d, MIN_LINK_DISTANCE_M)
    power = tx_power_w * d_eff ** (-PATH_LOSS_EXPONENT)
    best = power.argmax(axis=1)
    best_power = power[np.arange(len(rx)), best]
    attached = best_power >= assoc_min_rx_power_w
    groups = []
    for g in range(len(txs)):
        members = attached & (best == g)
        if members.any():
            groups.append(MulticastGroup(g, txs[g], rx[members]))
    return groups


def _disk_dense(n, radius, rng):
    """n uniform points in the disk, every position computed."""
    if n == 0:
        return np.empty((0, 2))
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * (2.0 * np.pi)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def draw_dense(params, index):
    """The CU positions, transmitter positions and every candidate position
    of scenario `index`, drawn in `geometry.generate_scenario`'s order."""
    rng = rng_for(params.master_seed, index)
    R = params.cell_radius_m
    cu_pos = _disk_dense(params.num_channels, R, rng)
    tx_pos = _disk_dense(params.num_groups, R, rng)
    n_cand = int(rng.poisson(params.receiver_density_per_m2 * params.cell_area_m2))
    return cu_pos, tx_pos, _disk_dense(n_cand, R, rng)


def generate_scenario_dense(params, index):
    """`geometry.generate_scenario` computing every candidate's position,
    then excluding and associating every candidate densely."""
    cu_pos, tx_pos, candidates = draw_dense(params, index)
    kept, _ = apply_exclusion_dense(candidates, cu_pos, params.exclusion_radius_m)
    groups = (
        form_groups_dense(tx_pos, kept, params.assoc_ref_power_w, params.assoc_min_rx_power_w)
        if len(tx_pos)
        else []
    )
    return NetworkScenario(
        params=params,
        cus=[CellularUser(position=pos) for pos in cu_pos],
        groups=groups,
        scenario_seed=child_seed(params.master_seed, index),
        candidate_receiver_count=len(candidates),
    )
