"""Pattern containment and the avoidance counting formulas."""

import itertools
import tracemalloc
from itertools import chain, islice
from math import comb

import pytest

from grassperm import kernels
from grassperm.grassmann import enumerate_grassmannian, grassmannian_blocks
from grassperm.patterns import (
    catalan,
    contains_pattern,
    count_avoiders_by_scan,
    count_avoiders_closed_form,
    enumerate_avoiders,
    finite_class_count,
    one_descent_patterns,
    weiner_formula,
)
from grassperm.perms import descent_positions, reverse_complement

# counts of the finite classes G_m(12...k) for k <= m <= 2k-2
FINITE_CLASS_ROWS = {
    2: [1],
    3: [4, 2],
    4: [11, 10, 5],
    5: [26, 32, 28, 14],
    6: [57, 84, 98, 84, 42],
    7: [120, 198, 276, 312, 264, 132],
    8: [247, 438, 687, 924, 1023, 858, 429],
    9: [502, 932, 1584, 2398, 3146, 3432, 2860, 1430],
    10: [1013, 1936, 3476, 5720, 8437, 10868, 11726, 9724, 4862],
    11: [2036, 3962, 7384, 12896, 20696, 29926, 38012, 40664, 33592, 16796],
    12: [4083, 8034, 15353, 27976, 47762, 75140, 106964, 134368, 142766,
         117572, 58786],
}

# |G_n(sigma)| for n = 1..10, by size of the one-descent pattern sigma
AVOIDANCE_SEQUENCES = {
    3: [1, 2, 4, 7, 11, 16, 22, 29, 37, 46],
    4: [1, 2, 5, 11, 21, 36, 57, 85, 121, 166],
    5: [1, 2, 5, 12, 26, 51, 92, 155, 247, 376],
    6: [1, 2, 5, 12, 27, 57, 113, 211, 373, 628],
    7: [1, 2, 5, 12, 27, 58, 120, 239, 457, 838],
    8: [1, 2, 5, 12, 27, 58, 121, 247, 493, 958],
    9: [1, 2, 5, 12, 27, 58, 121, 248, 502, 1003],
    10: [1, 2, 5, 12, 27, 58, 121, 248, 503, 1013],
}


def reference_avoiders(n, sigma):
    """The filter that enumerate_avoiders was before it walked the class:
    every member tested with contains_pattern, and the whole family for
    a pattern with two or more descents."""
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("pattern must be non-empty")
    members = enumerate_grassmannian(n)
    if len(descent_positions(sigma)) > 1:
        return members
    return (p for p in members if not contains_pattern(p, sigma))


def test_contains_pattern_basics():
    assert contains_pattern((2, 4, 1, 3), (2, 1, 3))
    assert not contains_pattern((2, 3, 1), (1, 3, 2))
    assert contains_pattern((5, 3, 4, 1, 2), (3, 1, 2))
    assert not contains_pattern((1, 2, 3), (2, 1))
    with pytest.raises(ValueError):
        contains_pattern((1, 2), ())


def test_every_permutation_contains_itself():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert contains_pattern(p, p)
            assert contains_pattern(p, (1,))


def test_contains_pattern_against_exhaustive_search():
    # independent O(n^k) matcher: check all index subsets
    def brute(p, sigma):
        k = len(sigma)
        order = sorted(range(k), key=lambda i: sigma[i])
        for idx in itertools.combinations(range(len(p)), k):
            vals = [p[i] for i in idx]
            ranks = sorted(range(k), key=lambda i: vals[i])
            if ranks == order:
                return True
        return False

    patterns = [(1, 2), (2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2),
                (2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2), (1, 2, 3, 4)]
    for p in itertools.permutations(range(1, 7)):
        for sigma in patterns:
            assert contains_pattern(p, sigma) == brute(p, sigma)


def test_avoidance_sequences_closed_form():
    for size, row in AVOIDANCE_SEQUENCES.items():
        sigma = tuple(range(2, size + 1)) + (1,)  # descent at size-1
        assert [count_avoiders_closed_form(n, sigma)
                for n in range(1, 11)] == row


def test_closed_form_steps_the_binomials():
    # each binomial is stepped from the one before; the sum must be the
    # one of independent binomials, also where k - 1 exceeds n
    for n in range(1, 41):
        for k in range(2, 46):
            sigma = tuple(range(2, k + 1)) + (1,)
            assert count_avoiders_closed_form(n, sigma) == 1 + sum(
                comb(n, j - 1) for j in range(3, k + 1)), (n, k)


def test_avoidance_sequence_is_pattern_independent():
    # every one-descent pattern of one size gives the same sequence
    for size in range(3, 6):
        rows = {tuple(count_avoiders_closed_form(n, sigma)
                      for n in range(1, 11))
                for sigma in one_descent_patterns(size)}
        assert rows == {tuple(AVOIDANCE_SEQUENCES[size])}


def test_closed_form_matches_enumeration():
    for size in range(3, 6):
        for sigma in one_descent_patterns(size):
            for n in range(1, 9):
                brute = sum(1 for _ in reference_avoiders(n, sigma))
                assert brute == count_avoiders_closed_form(n, sigma)
                assert brute == count_avoiders_by_scan(n, sigma)


def test_single_descent_size_three():
    # every one-descent pattern of size 3 gives 1 + n(n-1)/2
    for sigma in ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)):
        for n in range(1, 13):
            assert count_avoiders_closed_form(n, sigma) == 1 + comb(n, 2)
    for n in range(1, 13):
        got = count_avoiders_by_scan(n, (1, 3, 2))
        assert got == 1 + comb(n, 2)


def test_multi_descent_patterns_restrict_nothing():
    for sigma in ((3, 2, 1), (2, 1, 4, 3), (3, 1, 4, 2), (2, 1, 5, 4, 3)):
        assert len(descent_positions(sigma)) >= 2
        for n in range(1, 10):
            assert count_avoiders_closed_form(n, sigma) == 2 ** n - n
            assert count_avoiders_by_scan(n, sigma) == 2 ** n - n


def test_reverse_complement_symmetry():
    # |G_n(sigma)| is invariant under reverse-complement of the pattern
    pats = [p for size in (3, 4, 5)
            for p in itertools.permutations(range(1, size + 1))]
    for sigma in pats:
        rc = reverse_complement(sigma)
        for n in range(1, 10):
            assert count_avoiders_by_scan(n, sigma) == \
                count_avoiders_by_scan(n, rc)


def test_finite_class_rows():
    for k, row in FINITE_CLASS_ROWS.items():
        assert [finite_class_count(m, k) for m in range(k, 2 * k - 1)] == row


def test_finite_class_regimes():
    for k in range(2, 9):
        # below the pattern size nothing contains it
        for m in range(1, k):
            assert finite_class_count(m, k) == 2 ** m - m
        # at the pattern size only the identity is lost
        assert finite_class_count(k, k) == 2 ** k - k - 1
        # from 2k-1 on, every member contains the rising pattern
        for m in range(2 * k - 1, 2 * k + 3):
            assert finite_class_count(m, k) == 0


def test_finite_class_catalan_endpoints():
    for k in range(3, 13):
        row = [finite_class_count(m, k) for m in range(k, 2 * k - 1)]
        assert row[-1] == catalan(k - 1)
        if k >= 4:
            assert row[-2] == 2 * catalan(k - 1)


def test_finite_class_matches_enumeration():
    for k in range(2, 6):
        sigma = tuple(range(1, k + 1))
        for m in range(1, 2 * k + 1):
            brute = sum(1 for _ in reference_avoiders(m, sigma))
            assert brute == finite_class_count(m, k)


def test_class_walk_matches_the_filter():
    # every rising and one-descent pattern of sizes 1-5, as lists, so
    # the walk keeps the filter's lexicographic order too
    for size in range(1, 6):
        for sigma in itertools.permutations(range(1, size + 1)):
            if len(descent_positions(sigma)) > 1:
                continue
            for n in range(1, 11):
                assert list(enumerate_avoiders(n, sigma)) == \
                    list(reference_avoiders(n, sigma)), (sigma, n)


def test_enumerate_avoiders_checks_its_size_at_the_call():
    # the refusal comes before any item is asked for, for every shape
    for sigma in ((2, 4, 1, 3), (1, 2, 3), (3, 1, 4, 2)):
        for n, cap in ((0, None), (26, None), (9, 8)):
            with pytest.raises(ValueError):
                enumerate_avoiders(n, sigma, cap=cap)
    with pytest.raises(ValueError, match="non-empty"):
        enumerate_avoiders(5, ())


def test_class_walk_streams_in_bounded_memory():
    # the walk's stack holds a prefix and a low per level, n^2 values in
    # all, whatever the number of members: 166,651 at n = 100
    tracemalloc.start()
    try:
        items = islice(enumerate_avoiders(100, (2, 4, 1, 3), cap=100), 10_000)
        count = sum(len(p) == 100 for p in items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 10_000
    assert peak < 1 << 18, peak


def test_class_text_walk_streams_in_bounded_memory():
    # the text walk of the same class keeps the same stack, and its
    # completion tables hold at most 2^TAIL_VALUES lines per state
    tracemalloc.start()
    try:
        lines = chain.from_iterable(map(str.splitlines, grassmannian_blocks(
            100, cap=100, automaton=kernels.avoiding((2, 4, 1, 3)))))
        count = sum(line.count(",") == 99 for line in islice(lines, 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 10_000
    assert peak < 1 << 18, peak


def test_weiner_formula_values():
    assert weiner_formula(4, 4) == 11
    assert weiner_formula(6, 6) == 57
    assert weiner_formula(10, 6) == 42
    assert weiner_formula(12, 9) == 2398
    assert weiner_formula(22, 12) == 58786


def test_weiner_formula_domain():
    for m, k in ((3, 4), (7, 4), (1, 1), (2, 1)):
        with pytest.raises(ValueError):
            weiner_formula(m, k)
    weiner_formula(2, 2)  # smallest admissible pair


def test_verify_weiner():
    # the alternating sum against the lattice-walk count over its whole
    # claimed range k <= m <= 2k - 2
    for k in range(2, 10):
        for m in range(k, 2 * k - 1):
            assert weiner_formula(m, k) == finite_class_count(m, k), (m, k)


def test_catalan():
    assert [catalan(j) for j in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_one_descent_patterns():
    assert len(list(one_descent_patterns(3))) == 4
    assert len(list(one_descent_patterns(4))) == 11
    assert len(list(one_descent_patterns(5))) == 26
    for sigma in one_descent_patterns(4):
        assert len(descent_positions(sigma)) == 1


def test_rising_pattern_convention():
    # k = 2: only the identity avoids 12, and only for n = 1
    assert [count_avoiders_closed_form(n, (1, 2)) for n in range(1, 5)] == \
        [1, 1, 0, 0]
    # k = 1: nothing avoids the one-letter pattern
    assert [count_avoiders_closed_form(n, (1,)) for n in range(1, 4)] == \
        [0, 0, 0]
    assert list(enumerate_avoiders(3, (1,))) == []

