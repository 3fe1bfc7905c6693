"""Scalar loop versions of the search core, kept as test oracles.

The table loops walk masks in increasing order and extend each
interference sum from the mask minus its lowest set bit; the greedy search
runs greedy_match one family at a time. The vectorized code in the package
must agree with them bitwise.
"""

import math

import numpy as np

from mgshare.allocation import greedy_match


def value_table_loop(
    base_I_rx, contrib_rx, sig_cu, contrib_bs, offsets, sizes, mg_th, cu_th, bw, cap
):
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
        out[k, 0] = bw * math.log2(1.0 + cap) if cap >= cu_th else 0.0
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
            total = bw * math.log2(1.0 + gam) if gam >= cu_th else 0.0
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
                    total += bw * math.log2(1.0 + worst)
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


def greedy_pairs_loop(ctx, fam_masks):
    """greedy_match's (slot, channel) pairs for each family, one at a time."""
    return [greedy_match(ctx.stage2[:, masks], ctx.avail) for masks in fam_masks]


def greedy_best_loop(ctx, fam_masks, family_pairs):
    """(family index, pairs, value) of the best greedy matching, given each
    family's pairs; the first family wins exact ties."""
    value = ctx.value
    base = ctx.baseline
    best = (-math.inf, None, None)
    for fi, pairs in enumerate(family_pairs):
        masks = fam_masks[fi]
        v = base
        for s, k in pairs:
            v += float(value[k, masks[s]]) - float(value[k, 0])
        if v > best[0]:
            best = (v, fi, pairs)
    return best[1], best[2], best[0]
