"""Counting and enumeration checks.

The distinct-count goldens (1701, 140, ...) were computed by the brute-force
set-of-frozensets oracle below before the library routines existed; the test
keeps both the frozen literals and the live oracle comparison.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare.combinatorics import (
    distinct_count,
    enumerate_families,
    enumerate_size_vectors,
    ordered_selections,
    reference_count,
    reference_count_by_total,
    search_space_size,
    vector_distinct_term,
)
from oracles import equal_split_bound


def brute_force_families(ids, sizes):
    """Independent oracle: all ordered selections, deduplicated as a set of
    frozensets of frozensets. Shares no code with enumerate_families."""
    ids = tuple(ids)
    found = set()

    def rec(pool, remaining_sizes, acc):
        if not remaining_sizes:
            found.add(frozenset(acc))
            return
        s = remaining_sizes[0]
        for combo in combinations(pool, s):
            rec(
                tuple(x for x in pool if x not in combo),
                remaining_sizes[1:],
                acc + [frozenset(combo)],
            )

    rec(ids, list(sizes), [])
    return found


def all_modes(G, C):
    yield "all"
    yield "almost_equal"
    yield "equal"
    for n in range(1, G // C + 1):
        yield f"fixed({n})"


# ---------------------------------------------------------------------------
# size vectors


def test_size_vectors_7_3_all_exact_sequence():
    expected = [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 2, 2),
        (3, 1, 1),
        (3, 2, 1),
        (3, 2, 2),
        (3, 3, 1),
        (4, 1, 1),
        (4, 2, 1),
        (5, 1, 1),
    ]
    assert enumerate_size_vectors(7, 3, "all") == expected


def test_size_vectors_7_3_almost_equal_and_equal():
    assert enumerate_size_vectors(7, 3, "almost_equal") == [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 2, 2),
        (3, 2, 2),
    ]
    assert enumerate_size_vectors(7, 3, "equal") == [(1, 1, 1), (2, 2, 2)]


def test_size_vectors_edge_cases():
    assert enumerate_size_vectors(3, 3, "equal") == [(1, 1, 1)]
    assert enumerate_size_vectors(7, 3, "fixed(2)") == [(2, 2, 2)]
    assert enumerate_size_vectors(7, 3, "fixed(3)") == []  # 3*3 > 7
    with pytest.raises(ValueError):
        enumerate_size_vectors(2, 3, "all")
    with pytest.raises(ValueError):
        enumerate_size_vectors(7, 3, "fixed(x)")


def test_size_vector_mode_nesting():
    for G in range(2, 9):
        for C in range(1, min(G, 4) + 1):
            allv = set(enumerate_size_vectors(G, C, "all"))
            ae = set(enumerate_size_vectors(G, C, "almost_equal"))
            eq = set(enumerate_size_vectors(G, C, "equal"))
            assert eq <= ae <= allv
            for n in range(1, G // C + 1):
                assert set(enumerate_size_vectors(G, C, f"fixed({n})")) <= eq


# ---------------------------------------------------------------------------
# reference tallies


def test_reference_count_goldens_7_3():
    assert reference_count_by_total(7, 3, "all") == {
        3: 70,
        4: 210,
        5: 525,
        6: 735,
        7: 301,
    }
    assert reference_count(7, 3, "all") == 1841
    assert reference_count(7, 3, "almost_equal") == 875
    assert reference_count(7, 3, "equal") == 280


def test_reference_terms_are_integers_small_grid():
    for G in range(1, 9):
        for C in range(1, min(G, 4) + 1):
            for mode in all_modes(G, C):
                assert reference_count(G, C, mode) >= 0


def test_search_space_size():
    assert search_space_size(7, 3, "all") == 1841 * 6
    # At G=C=3 the lone vector [1,1,1] tallies 3*2*1/3 = 2, so the search
    # space is 2 * 3! = 12.
    assert reference_count(3, 3, "all") == 2
    assert search_space_size(3, 3, "all") == 12
    assert search_space_size(5, 1, "all") == reference_count(5, 1, "all")


# ---------------------------------------------------------------------------
# distinct counts vs the brute-force oracle


def test_distinct_count_goldens_7_3():
    assert distinct_count(7, 3, "all") == 1701
    assert distinct_count(7, 3, "equal") == 140  # 35 + 105
    assert distinct_count(3, 3, "all") == 1


def test_distinct_count_equals_bruteforce_enumeration():
    for G in range(1, 9):
        for C in range(1, min(G, 4) + 1):
            for mode in all_modes(G, C):
                total = 0
                for vec in enumerate_size_vectors(G, C, mode):
                    total += len(brute_force_families(range(G), vec))
                assert distinct_count(G, C, mode) == total, (G, C, mode)


def test_reference_at_least_distinct_with_equality_condition():
    for G in range(1, 9):
        for C in range(1, min(G, 4) + 1):
            for mode in all_modes(G, C):
                ref = reference_count(G, C, mode)
                dis = distinct_count(G, C, mode)
                assert ref >= dis, (G, C, mode)
                vecs = enumerate_size_vectors(G, C, mode)
                if vecs and all(
                    max(vec.count(s) for s in set(vec)) <= 2 for vec in vecs
                ):
                    assert ref == dis, (G, C, mode)


# ---------------------------------------------------------------------------
# family enumeration


def test_enumerate_families_pairs_example():
    fams = list(enumerate_families("abcd", [2, 2]))
    assert fams == [
        (("a", "b"), ("c", "d")),
        (("a", "c"), ("b", "d")),
        (("a", "d"), ("b", "c")),
    ]


def test_enumerate_families_singletons_of_seven():
    fams = list(enumerate_families(range(7), [1, 1, 1]))
    assert len(fams) == 35
    assert len(set(fams)) == 35


def test_enumerate_families_matches_oracle_and_term_formula():
    cases = [
        (range(7), (3, 2, 2)),
        (range(7), (2, 2, 1)),
        (range(6), (2, 2, 2)),
        (range(8), (2, 2, 2, 2)),
        (range(5), (3, 1)),
    ]
    for ids, sizes in cases:
        fams = list(enumerate_families(ids, sizes))
        oracle = brute_force_families(ids, sizes)
        assert len(fams) == len(set(fams)) == len(oracle)
        assert {frozenset(frozenset(b) for b in f) for f in fams} == oracle
        assert len(fams) == vector_distinct_term(len(tuple(ids)), sizes)


def test_enumerate_families_canonical_and_disjoint():
    for fam in enumerate_families(range(7), (3, 2, 2)):
        # canonical form: each subset sorted, subsets by size descending,
        # then by smallest element ascending
        assert all(list(b) == sorted(b) for b in fam)
        keys = [(-len(b), b[0]) for b in fam]
        assert keys == sorted(keys)
        flat = [x for b in fam for x in b]
        assert len(flat) == len(set(flat))


def test_enumerate_families_errors():
    with pytest.raises(ValueError):
        list(enumerate_families(range(4), [3, 2]))
    with pytest.raises(ValueError):
        list(enumerate_families(range(4), [0, 2]))


@settings(max_examples=60, deadline=None)
@given(
    G=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_family_enumeration_property(G, data):
    C = data.draw(st.integers(min_value=1, max_value=min(G, 3)))
    vecs = enumerate_size_vectors(G, C, "all")
    vec = data.draw(st.sampled_from(vecs))
    fams = list(enumerate_families(range(G), vec))
    assert len(fams) == vector_distinct_term(G, vec)
    assert len(set(fams)) == len(fams)
    for f in fams:
        assert tuple(len(b) for b in f) == tuple(vec)


# ---------------------------------------------------------------------------
# lower bound identities


def test_equal_split_bound_identities():
    # closed form G!(C-1)! * sum_n 1/((n!)^C (G-nC)!)
    for G in range(2, 9):
        for C in range(1, min(G, 4) + 1):
            closed = 0
            for n in range(1, G // C + 1):
                closed += (
                    math.factorial(G)
                    * math.factorial(C - 1)
                    // (math.factorial(n) ** C * math.factorial(G - n * C))
                )
            assert equal_split_bound(G, C) == closed, (G, C)
            assert equal_split_bound(G, C) == search_space_size(G, C, "equal")
            assert search_space_size(G, C, "all") >= equal_split_bound(G, C)
    assert equal_split_bound(7, 3) == 1680
    assert equal_split_bound(6, 1) == reference_count(6, 1, "equal")


def test_ordered_selections_basic():
    assert ordered_selections(7, [1, 1, 1]) == 210
    assert ordered_selections(7, [3, 2, 2]) == 210
    assert ordered_selections(4, [2, 2]) == 6
