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

The value table is built in one pass over all groups. Its sums hold one row
per receiver and a last row for the base station, so a single doubling
gives every denominator. A receiver's own-group term enters the doubling as
+0.0: adding an exact zero in its slot leaves, bitwise, the sum at the mask
with that group's bit cleared, in the same order. It is never subtracted
back out of the inclusive sum, where the own term dominates by orders of
magnitude and the subtraction would wipe out the co-channel digits. The
SIRs are computed in place over those sums, a non-positive denominator
(0/0 included) giving the cap. The masks run along the last axis, so each
group's worst member SIR at every mask is one min over the group's whole
rows, and the CU's SIR is the last row. Every value is gated once, and
group rates are added onto the CU rate in increasing group order, a
failing group or one outside the mask adding 0.0, which is exact. A rate
is the spectral efficiency log2(1 + SIR) in bit/s/Hz, with every SIR
capped at params.SIR_CAP. Rates take log2 from libm one value at a time
rather than from numpy's vectorized log2, which may differ in the last bit
depending on the SIMD extensions of the CPU; the tables, and so the
results, are then the same on every machine.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import SIR_CAP


def _subset_sums(base: np.ndarray, terms: np.ndarray, out=None) -> np.ndarray:
    """(2^G, *base.shape) sums: row m is base plus terms[g] for each g in m.

    Group G-1 goes in first and group 0 last, so every row sums from the
    highest group down, the lowest-bit recursion's order. The sums fill
    ``out`` when given, which may be a strided view.
    """
    G = terms.shape[0]
    if out is None:
        out = np.empty((1 << G,) + base.shape)
    out[0] = base
    for g in range(G - 1, -1, -1):
        # masks whose bits below g are clear: without g at [:, 0, 0], with g at [:, 1, 0]
        blocks = _with_group(out, g)
        blocks[:, 1, 0] = blocks[:, 0, 0] + terms[g]
    return out


def _with_group(table: np.ndarray, g: int) -> np.ndarray:
    """View of a (2^G, ...) table as (masks without g, masks with g) halves.

    Index [:, 0] holds the masks that lack g and [:, 1] the same masks with
    g set, both in increasing mask order, shaped (2^(G-g-1), 2^g, ...).
    """
    return table.reshape((-1, 2, 1 << g) + table.shape[1:])


_CAP_RATE = math.log2(1.0 + SIR_CAP)


def _rate(sir: np.ndarray) -> np.ndarray:
    """log2(1 + sir) of a 1-D array, with libm's log2 applied value by
    value; the SIRs at the cap, often half of them, share one call."""
    out = np.full(len(sir), _CAP_RATE)
    below = sir < SIR_CAP
    out[below] = np.fromiter(map(math.log2, (1.0 + sir[below]).tolist()), float)
    return out


@lru_cache(maxsize=None)
def _members(G: int) -> np.ndarray:
    """Read-only (G+1, 2^G) bools: row g < G says whether g is in each
    mask, and row G, the CU's, is all set."""
    out = (np.arange(1 << G) >> np.arange(G + 1)[:, None]) & 1 == 1
    out[G] = True
    out.flags.writeable = False
    return out


def build_value_table(base_I_rx, contrib_rx, sig_cu, contrib_bs, offsets, sizes, mg_th, cu_th):
    """Per-channel score and decode pass-mask for every co-channel group mask.

    Returns a (C, 2^G) float table and a (C, 2^G) int64 table. Entry [k, m]
    of the second holds the sub-bitmask of m whose groups clear the worst
    member SIR threshold when all of m transmits on channel k, which is what
    the one-shot silencing step in the allocator keys off. Receivers lie
    group-major: group g holds receivers offsets[g] to offsets[g] +
    sizes[g] - 1, and no group is empty.
    """
    base_I_rx = np.asarray(base_I_rx, dtype=np.float64)  # (C, n)
    contrib_rx = np.asarray(contrib_rx, dtype=np.float64)  # (G, n, C)
    sig_cu = np.asarray(sig_cu, dtype=np.float64)  # (C,)
    contrib_bs = np.asarray(contrib_bs, dtype=np.float64)  # (G, C)
    sizes = np.asarray(sizes, dtype=np.int64)
    C, n = base_I_rx.shape
    G = contrib_rx.shape[0]
    # each group's first row, then the base station's (row n), then the end
    rows = [0, *np.cumsum(sizes).tolist(), n + 1]
    if sizes.min(initial=1) < 1 or rows[:G] != np.asarray(offsets).tolist() or rows[G] != n:
        raise ValueError("offsets and sizes must tile the receivers group-major, no group empty")

    # rows: receivers, whose own group adds +0.0, then the base station
    rx = np.arange(n)
    own = np.repeat(np.arange(G), sizes)
    terms = np.empty((G, n + 1, C))
    terms[:, :n] = contrib_rx
    terms[own, rx] = 0.0
    terms[:, n] = contrib_bs
    base = np.zeros((n + 1, C))
    base[:n] = base_I_rx.T
    sig = np.empty((n + 1, C, 1))
    sig[:n, :, 0] = contrib_rx[own, rx]
    sig[n, :, 0] = sig_cu

    sir = np.empty((n + 1, C, 1 << G))  # masks last: the denominators, then the SIRs
    _subset_sums(base, terms, out=sir.transpose(2, 0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        capped = sir <= 0.0
        np.divide(sig, sir, out=sir)
    np.minimum(sir, SIR_CAP, out=sir)
    sir[capped] = SIR_CAP
    # each group's worst member, then the CU, one min over whole rows each:
    # np.minimum.reduceat would loop once per (channel, mask) cell
    worst = np.empty((G + 1, C, 1 << G))
    for g in range(G + 1):
        np.minimum.reduce(sir[rows[g] : rows[g + 1]], axis=0, out=worst[g])
    del sir, capped
    ok = worst >= float(mg_th)
    ok[G] = worst[G] >= float(cu_th)
    ok &= _members(G)[:, None, :]
    rate = worst  # in place: the rate where a value passes, 0.0 elsewhere
    rate[ok] = _rate(worst[ok])
    rate[~ok] = 0.0
    total = rate[G].copy()
    for g in range(G):
        total += rate[g]
    passing = (1 << np.arange(G)) @ ok[:G].reshape(G, C << G)
    return total, passing.reshape(C, 1 << G)


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
