"""The kernel counters, held to brute force and, at the top of their
size guards, to the closed forms."""

import itertools
from bisect import bisect_left
from collections import Counter

import pytest

from grassperm import kernels
from grassperm.grassmann import count_union_with_inverse, enumerate_grassmannian
from grassperm.patterns import (
    contains_pattern,
    count_avoiders_closed_form,
    weiner_formula,
)
from grassperm.parity import odd_count
from grassperm.perms import inverse, inversion_count

PATTERNS = [(1, 2), (1, 2, 3), (1, 3, 2), (2, 3, 1), (1, 2, 3, 4),
            (2, 4, 1, 3), (3, 1, 2, 4), (1, 2, 3, 4, 5), (3, 5, 1, 2, 4),
            (3, 2, 1), (2, 1, 4, 3)]


def brute_avoiders(n, sigma):
    return sum(1 for p in enumerate_grassmannian(n)
               if not contains_pattern(p, sigma))


def test_avoider_count_matches_enumeration():
    for sigma in PATTERNS:
        for n in range(1, 13):
            assert kernels.count_grassmannian_avoiders(n, sigma) == \
                brute_avoiders(n, sigma), (sigma, n)


def longest_rising(p):
    # patience sorting: the number of piles is the longest rising
    # subsequence
    tails = []
    for v in p:
        i = bisect_left(tails, v)
        tails[i:i + 1] = [v]
    return len(tails)


def test_increasing_count_matches_enumeration():
    # a member avoids 12...k exactly when its longest rising
    # subsequence is shorter than k
    for m in range(1, 19):
        lengths = Counter(longest_rising(p) for p in enumerate_grassmannian(m))
        for k in range(1, 10):
            brute = sum(count for length, count in lengths.items()
                        if length < k)
            assert kernels.count_grassmannian_avoiding_increasing(m, k) == \
                brute, (m, k)


def test_two_pattern_count_matches_brute_force():
    for n in range(1, 10):
        brute = sum(
            1 for p in itertools.permutations(range(1, n + 1))
            if not contains_pattern(p, (3, 2, 1))
            and not contains_pattern(p, (2, 1, 4, 3)))
        assert kernels.count_sn_avoiding_321_2143(n) == brute, n


def test_two_pattern_count_matches_family_union():
    for n in range(1, 9):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        assert kernels.count_sn_avoiding_321_2143(n) == len(union)


def test_counters_at_guard_edge():
    # exhaustive scans took hours here: 2^26 subsets and 12! orderings
    n = kernels.MAX_SCAN_SIZE
    for sigma in ((1, 3, 2), (2, 4, 1, 3), (3, 5, 1, 2, 4), (4, 1, 2, 3)):
        assert kernels.count_grassmannian_avoiders(n, sigma) == \
            count_avoiders_closed_form(n, sigma)
    for k in range(14, 27):  # Weiner's range k <= n <= 2k - 2
        assert kernels.count_grassmannian_avoiding_increasing(n, k) == \
            weiner_formula(n, k)
    for k in (2, 13, 27, 40):
        assert kernels.count_grassmannian_avoiding_increasing(n, k) == \
            count_avoiders_closed_form(n, tuple(range(1, k + 1)))
    n = kernels.MAX_FULL_SN_SIZE
    assert kernels.count_sn_avoiding_321_2143(n) == count_union_with_inverse(n)


def test_scan_guards():
    with pytest.raises(ValueError):
        kernels.count_grassmannian_avoiding_increasing(0, 3)
    with pytest.raises(ValueError):
        kernels.count_grassmannian_avoiding_increasing(
            kernels.MAX_SCAN_SIZE + 1, 3)
    with pytest.raises(ValueError):
        kernels.count_grassmannian_avoiders(0, (1, 3, 2))
    with pytest.raises(ValueError):
        kernels.count_grassmannian_avoiders(kernels.MAX_SCAN_SIZE + 1,
                                            (1, 3, 2))
    with pytest.raises(ValueError):
        kernels.count_grassmannian_avoiders(5, ())
    with pytest.raises(ValueError):
        kernels.count_sn_avoiding_321_2143(0)
    with pytest.raises(ValueError):
        kernels.count_sn_avoiding_321_2143(kernels.MAX_FULL_SN_SIZE + 1)


def test_odd_member_count_matches_enumeration():
    for n in range(1, 15):
        odd = sum(inversion_count(p) % 2 for p in enumerate_grassmannian(n))
        assert kernels.count_odd_members(n) == odd, n


def test_odd_member_count_matches_closed_form():
    for n in range(1, 201):
        assert kernels.count_odd_members(n) == odd_count(n), n
    with pytest.raises(ValueError):
        kernels.count_odd_members(0)


def test_module_level_reexports():
    assert kernels.count_grassmannian_avoiders(6, (1, 3, 2)) == 16
    assert kernels.count_grassmannian_avoiding_increasing(4, 3) == 2
    assert kernels.count_grassmannian_avoiding_increasing(5, 4) == 10
    assert kernels.count_sn_avoiding_321_2143(6) == 80
    assert kernels.MAX_SCAN_SIZE == 26
    assert kernels.MAX_FULL_SN_SIZE == 12
