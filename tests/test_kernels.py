"""The kernel counters, held to brute force and, at the top of their
size guards, to the closed forms."""

import itertools
from bisect import bisect_left
from collections import Counter

import pytest

from grassperm import kernels
from grassperm.grassmann import (
    count_union_with_inverse,
    enumerate_grassmannian,
    inverse_is_grassmannian,
    sole_descent,
)
from grassperm.patterns import (
    avoider_counts,
    contains_pattern,
    count_avoiders_closed_form,
    weiner_formula,
)
from grassperm.parity import odd_count
from grassperm.perms import descent_positions, inverse, inversion_count

PATTERNS = [(1, 2), (1, 2, 3), (1, 3, 2), (2, 3, 1), (1, 2, 3, 4),
            (2, 4, 1, 3), (3, 1, 2, 4), (1, 2, 3, 4, 5), (3, 5, 1, 2, 4)]
TWO_DESCENT_PATTERNS = [(3, 2, 1), (2, 1, 4, 3)]


def brute_avoiders(n, sigma):
    return sum(1 for p in enumerate_grassmannian(n)
               if not contains_pattern(p, sigma))


def test_avoider_count_matches_enumeration():
    for sigma in PATTERNS:
        for n in range(1, 13):
            assert kernels.count_grassmannian_avoiders(n, sigma) == \
                brute_avoiders(n, sigma), (sigma, n)
    # the oracle column scans these by enumeration
    for sigma in TWO_DESCENT_PATTERNS:
        assert list(avoider_counts(sigma, range(1, 13))) == [
            brute_avoiders(n, sigma) for n in range(1, 13)], sigma


def test_two_descent_count_is_the_scan():
    # the whole family avoids a pattern with two or more descents, so
    # the kernel counts every word; the oracle column still scans
    for sigma in itertools.permutations(range(1, 5)):
        if len(descent_positions(sigma)) < 2:
            continue
        assert [kernels.count_grassmannian_avoiders(n, sigma)
                for n in range(1, 9)] == list(
            avoider_counts(sigma, range(1, 9))), sigma


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


def sn_completions(n, seen):
    """The plain search the two-pattern kernel memoises: permutations
    grow value by value, and a prefix dies once an unplaced value would
    close a 321 or a 2143.  Each live prefix's (used, top, cut) is
    passed to seen with its number of completions."""
    full = (2 << n) - 2

    def grow(used, blocked, top, cut):
        rest = full & ~used
        if blocked & rest:
            return 0
        total = 0 if rest else 1
        free = rest
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            block = bit
            if cut < v:
                block |= (bit - 1) & ~((2 << cut) - 1)
            lowest = cut
            if v < top:
                block |= bit - 1
                above = used >> v
                lowest = min(cut, v + (above & -above).bit_length() - 1)
            total += grow(used | bit, blocked | block, max(top, v), lowest)
        seen(used, top, cut, total)
        return total

    return grow(0, 0, 0, n + 1)


def signature(n, used, top, cut):
    """The key the kernel memoises on, from its definition."""
    placed = {v for v in range(1, n + 1) if used >> v & 1}
    rest = set(range(1, n + 1)) - placed
    below = [v for v in rest if v < top]
    s = min(v for v in placed if v > min(below)) if below else n + 1
    return (sum(v > top for v in rest), len(below),
            sum(cut < v < top for v in rest),
            sum(v < min(s, cut) for v in rest), s < cut, cut <= n)


def test_two_pattern_count_matches_brute_force():
    for n in range(1, 10):
        brute = sum(
            1 for p in itertools.permutations(range(1, n + 1))
            if not contains_pattern(p, (3, 2, 1))
            and not contains_pattern(p, (2, 1, 4, 3)))
        assert kernels.count_sn_avoiding_321_2143(n) == brute, n
        assert sn_completions(n, lambda *state: None) == brute, n


def test_live_prefixes_with_one_signature_have_one_count():
    for n in range(1, 12):
        counts = {}

        def seen(used, top, cut, total):
            key = signature(n, used, top, cut)
            assert counts.setdefault(key, total) == total, (n, key)
        assert sn_completions(n, seen) == \
            kernels.count_sn_avoiding_321_2143(n), n


def test_two_pattern_count_matches_family_union():
    for n in range(1, 9):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        assert kernels.count_sn_avoiding_321_2143(n) == len(union)


def test_counters_at_guard_edge():
    # exhaustive scans took hours here: 2^26 subsets
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
    # a pattern longer than any member is cut, not built whole
    assert kernels.count_grassmannian_avoiding_increasing(n, 10 ** 9) == \
        2 ** n - n


def test_two_pattern_count_matches_closed_form():
    for n in range(1, kernels.MAX_SCAN_SIZE + 1):
        assert kernels.count_sn_avoiding_321_2143(n) == \
            count_union_with_inverse(n), n


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
    assert kernels.count_grassmannian_avoiders(5, (3, 2, 1)) == 2 ** 5 - 5
    with pytest.raises(ValueError):
        kernels.count_sn_avoiding_321_2143(0)
    with pytest.raises(ValueError):
        kernels.count_sn_avoiding_321_2143(kernels.MAX_SCAN_SIZE + 1)


def word(p):
    """The member's word: A for each value of its first rising block,
    B for every other; the identity's is B^n."""
    block = set(p[:sole_descent(p) or 0])
    return "".join("A" if v in block else "B" for v in range(1, len(p) + 1))


def read(automaton, letters):
    """The state the automaton ends in on the letters, None if dead."""
    start, step, _, _ = automaton
    state = start
    for letter in letters:
        state = step(state, letter)
        if state is None:
            return None
    return state


def test_automata_read_each_members_word():
    for n in range(1, 13):
        words = set()
        for p in enumerate_grassmannian(n):
            letters = word(p)
            words.add(letters)
            assert read(kernels.ONE_DESCENT, letters) is not None
            # the inverse descends where the word reads BA
            assert (read(kernels.ONE_BA, letters) is not None) == \
                inverse_is_grassmannian(p), p
            assert letters.count("A") == (sole_descent(p) or 0), p
            assert read(kernels.ODD, letters)[1] == inversion_count(p) % 2, p
            # a core's word runs from B to A
            _, _, accepts, _ = kernels.CORES
            state = read(kernels.CORES, letters)
            assert (state is not None and accepts(state)) == (
                p[0] != 1 and p[-1] != n), p
            # descent_at(k) accepts at k = the descent, and nowhere near
            d = sole_descent(p) or 0
            for k in range(max(d - 1, 1), d + 2):
                _, _, accepts, _ = automaton = kernels.descent_at(k)
                state = read(automaton, letters)
                assert (state is not None and accepts(state)) == (k == d), \
                    (p, k)
        # one word per member: the identity's is one of its n + 1
        assert len(words) == 2 ** n - n, n


def test_word_counts_give_each_size_of_a_column():
    # one pass yields what a pass per size gives, for any start
    for automaton in (kernels.ONE_DESCENT, kernels.ONE_BA, kernels.ODD,
                      kernels.EVEN, kernels.descent_at(3)):
        column = list(kernels.word_counts(automaton, range(3, 41)))
        assert column == [next(kernels.word_counts(automaton, range(n, n + 1)))
                          for n in range(3, 41)]
    assert list(kernels.word_counts(kernels.ONE_BA, range(1, 8))) == [
        1, 2, 5, 11, 21, 36, 57]  # 1 + C(n+1, 3)


def test_odd_member_count_matches_enumeration():
    for n in range(1, 15):
        odd = sum(inversion_count(p) % 2 for p in enumerate_grassmannian(n))
        assert next(kernels.word_counts(kernels.ODD, range(n, n + 1))) == \
            odd, n


def test_odd_member_count_matches_closed_form():
    column = kernels.word_counts(kernels.ODD, range(1, 201))
    assert list(column) == [odd_count(n) for n in range(1, 201)]


def test_module_level_reexports():
    assert kernels.count_grassmannian_avoiders(6, (1, 3, 2)) == 16
    assert kernels.count_grassmannian_avoiding_increasing(4, 3) == 2
    assert kernels.count_grassmannian_avoiding_increasing(5, 4) == 10
    assert kernels.count_sn_avoiding_321_2143(6) == 80
    assert kernels.MAX_SCAN_SIZE == 26
