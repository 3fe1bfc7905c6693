"""Hot per-scenario table builds, as numpy subset-sum doublings.

Two tables drive every allocation search. The value table holds, for each
channel k and each bitmask m over active groups, the throughput of channel k
when exactly the groups in m share it with the CU, along with the sub-mask
of m that clears the decode threshold at those powers. The co-channel
interference table holds, for the same (k, m) grid, the worst sum
interference any member of m's groups would see, evaluated at maximum powers
with unit fading, which is what the assignment heuristic ranks channels by.

Both builds start from the interference sums over every mask, made by
doubling (the sum-over-subsets or fast zeta transform, Yates 1937): adding
group g to every mask built so far fills the masks whose lowest member is g
in one vector add, so all 2^G sums cost 2^G row adds. Groups are added
highest index first. The sum at mask m is then ((base + c_top) + ...) +
c_lowest, which is exactly what the recursion I[m] = I[m minus its lowest
bit] + c_lowest gives when unrolled, so the tables are bitwise equal to that
scalar recursion (tests/ keeps it as the oracle). Adding the lowest group
first would sum in a different order and drift by an ulp or so.

A receiver's own-group term is excluded by reading the sum at the mask with
that group's bit cleared, never by subtracting it back out of the inclusive
sum: the own term dominates by orders of magnitude and the subtraction would
wipe out the co-channel digits. Each group's worst member SIR is gathered
over the masks that hold it, and group rates are added onto the CU rate in
increasing group order, a failing group adding 0.0, which is exact. A rate
is the spectral efficiency log2(1 + SIR) in bit/s/Hz, with every SIR capped
at params.SIR_CAP. Rates take log2 from libm one value at a time rather than
from numpy's vectorized log2, which may differ in the last bit depending on
the SIMD extensions of the CPU; the tables, and so the results, are then the
same on every machine.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SIR_CAP


def _subset_sums(base: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """(2^G, *base.shape) sums: row m is base plus terms[g] for each g in m.

    Group G-1 goes in first and group 0 last, so every row sums from the
    highest group down, the lowest-bit recursion's order.
    """
    G = terms.shape[0]
    out = np.empty((1 << G,) + base.shape)
    out[0] = base
    for g in range(G - 1, -1, -1):
        # masks whose bits below g are clear: without g at [:, 0, 0], with g at [:, 1, 0]
        blocks = out.reshape((-1, 2, 1 << g) + base.shape)
        blocks[:, 1, 0] = blocks[:, 0, 0] + terms[g]
    return out


def _with_group(table: np.ndarray, g: int) -> np.ndarray:
    """View of a (2^G, ...) table as (masks without g, masks with g) halves.

    Index [:, 0] holds the masks that lack g and [:, 1] the same masks with
    g set, both in increasing mask order, shaped (2^(G-g-1), 2^g, ...).
    """
    return table.reshape((-1, 2, 1 << g) + table.shape[1:])


def _sir(sig, den):
    """sig / den capped at SIR_CAP; a non-positive denominator gives the cap."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den <= 0.0, SIR_CAP, np.minimum(sig / den, SIR_CAP))


def _rate(sir: np.ndarray) -> np.ndarray:
    """log2(1 + sir), with libm's log2 applied value by value."""
    logs = np.fromiter(map(math.log2, (1.0 + sir).ravel().tolist()), float, sir.size)
    return logs.reshape(sir.shape)


def _gated_rate(sir: np.ndarray, threshold: float):
    """Rates where sir clears the threshold, 0.0 elsewhere, and that gate."""
    ok = sir >= threshold
    rate = np.zeros(sir.shape)
    rate[ok] = _rate(sir[ok])
    return rate, ok


def build_value_table(base_I_rx, contrib_rx, sig_cu, contrib_bs, offsets, sizes, mg_th, cu_th):
    """Per-channel score and decode pass-mask for every co-channel group mask.

    Returns a (C, 2^G) float table and a (C, 2^G) int64 table. Entry [k, m]
    of the second holds the sub-bitmask of m whose groups clear the worst
    member SIR threshold when all of m transmits on channel k, which is what
    the one-shot silencing step in the allocator keys off.
    """
    base_I_rx = np.asarray(base_I_rx, dtype=np.float64)  # (C, n)
    contrib_rx = np.asarray(contrib_rx, dtype=np.float64)  # (G, n, C)
    sig_cu = np.asarray(sig_cu, dtype=np.float64)  # (C,)
    contrib_bs = np.asarray(contrib_bs, dtype=np.float64)  # (G, C)
    mg_th, cu_th = float(mg_th), float(cu_th)
    C = base_I_rx.shape[0]
    G = contrib_rx.shape[0]

    I_rx = _subset_sums(base_I_rx, contrib_rx.transpose(0, 2, 1))  # (M, C, n)
    I_bs = _subset_sums(np.zeros(C), contrib_bs)  # (M, C)
    total, _ = _gated_rate(_sir(sig_cu, I_bs), cu_th)
    passing = np.zeros(total.shape, dtype=np.int64)
    for g in range(G):
        lo = int(offsets[g])
        hi = lo + int(sizes[g])
        den = _with_group(I_rx, g)[:, 0, :, :, lo:hi]  # (.., .., C, members)
        sig = contrib_rx[g, lo:hi, :].T  # (C, members)
        worst = _sir(sig, den).min(axis=-1, initial=math.inf)
        rate, ok = _gated_rate(worst, mg_th)
        _with_group(total, g)[:, 1] += rate
        _with_group(passing, g)[:, 1] |= ok.astype(np.int64) << g
    return np.ascontiguousarray(total.T), np.ascontiguousarray(passing.T)


def build_stage2_table(cu_victim, mg_victim, rx_group) -> np.ndarray:
    """(C, 2^G) worst member sum interference at max power, unit fading."""
    cu_victim = np.asarray(cu_victim, dtype=np.float64)  # (C, n)
    mg_victim = np.asarray(mg_victim, dtype=np.float64)  # (G, n)
    rx_group = np.asarray(rx_group, dtype=np.int64)
    C, n = cu_victim.shape
    G = mg_victim.shape[0]
    tot = _subset_sums(np.zeros(n), mg_victim)  # (M, n)
    out = np.zeros((1 << G, C))
    for g in range(G):
        members = np.flatnonzero(rx_group == g)
        others = _with_group(tot, g)[:, 0][..., members]  # (.., .., members)
        victim = cu_victim[:, members] + others[..., None, :]  # (.., .., C, members)
        worst = victim.max(axis=-1, initial=0.0)
        side = _with_group(out, g)[:, 1]
        np.maximum(side, worst, out=side)
    return np.ascontiguousarray(out.T)
