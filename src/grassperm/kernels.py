"""Counters for the brute-force checks: polynomial where the family
allows it, a pruned search where it does not.

A one-descent member of size n is fixed by its first rising block S.
Reading the values 1..n in order and writing A for a value in S and B
for one outside turns each member into a word over {A, B}; the n + 1
words A^j B^(n-j) all give the identity, every other word gives one
member of its own.  The one-descent counters walk these words letter
by letter, and the avoider counters subtract the n surplus identity
words at the end.  The two-pattern count over the whole symmetric
group shares nothing with this encoding: it grows permutations one
value at a time.
"""

from __future__ import annotations

from collections import defaultdict

from grassperm.grassmann import enumerate_grassmannian
from grassperm.perms import descent_positions

# Size guards, kept from the exhaustive scans these counters replace
# so that callers see the same domain: 2^26 subsets, 12! permutations.
MAX_SCAN_SIZE = 26
MAX_FULL_SN_SIZE = 12


def _check_scan_size(n: int) -> None:
    if not 1 <= n <= MAX_SCAN_SIZE:
        raise ValueError(f"scan size {n} outside 1..{MAX_SCAN_SIZE}")


def count_grassmannian_avoiding_increasing(m: int, k: int) -> int:
    """Count one-descent permutations of size m with no rising
    subsequence of length k.

    Read the word as a walk, A a step up and B a step down.  The
    member's longest rising subsequence is #B plus the walk's highest
    point (counting the start at 0), so a walk survives while that sum
    stays below k; both terms only grow, so a walk is dropped the
    moment it fails.  After t letters the height is t - 2 #B, so the
    state is (highest point, #B).

    >>> count_grassmannian_avoiding_increasing(5, 4)
    10
    """
    _check_scan_size(m)
    if k < 1:
        raise ValueError(f"pattern length {k} must be at least 1")
    walks = {(0, 0): 1}  # (highest point, #B) -> number of words
    for t in range(m):
        grown: dict[tuple[int, int], int] = defaultdict(int)
        for (top, downs), ways in walks.items():
            up = max(top, t - 2 * downs + 1)
            if up + downs < k:
                grown[up, downs] += ways
            if top + downs + 1 < k:
                grown[top, downs + 1] += ways
        walks = grown
    # the identity words have longest rising run m: they all survive
    # exactly when m < k, and then stand for one permutation, not m + 1
    return sum(walks.values()) - (m if m < k else 0)


def count_grassmannian_avoiders(n: int, sigma: tuple[int, ...]) -> int:
    """Count one-descent permutations of size n containing no
    occurrence of the pattern sigma.

    A one-descent sigma is itself a word over {A, B}, and a member
    contains sigma exactly when that word is a subsequence of the
    member's word.  A k + 1 state automaton, matching the pattern's
    word greedily, counts the words that never reach state k.  Rising
    patterns go to count_grassmannian_avoiding_increasing; patterns
    with two or more descents are counted by enumeration.

    >>> count_grassmannian_avoiders(6, (1, 3, 2))
    16
    """
    _check_scan_size(n)
    k = len(sigma)
    if k < 1:
        raise ValueError("pattern must be non-empty")
    descents = descent_positions(sigma)
    if not descents:
        return count_grassmannian_avoiding_increasing(n, k)
    if len(descents) > 1:
        # patterns imports this module, so import its matcher late
        from grassperm.patterns import contains_pattern
        return sum(1 for p in enumerate_grassmannian(n)
                   if not contains_pattern(p, sigma))
    block = set(sigma[:descents[0]])
    word = ["A" if v in block else "B" for v in sorted(sigma)]
    matched = [1] + [0] * k  # words by automaton state
    for _ in range(n):
        step = [0] * (k + 1)
        for state in range(k):
            for letter in "AB":
                step[state + (letter == word[state])] += matched[state]
        matched = step
    return sum(matched[:k]) - n


def count_odd_members(n: int) -> int:
    """Count one-descent permutations of size n with an odd number of
    inversions.

    The inversions are the pairs of a B-value below an A-value, so an
    A adds #B inversions and a B adds none: the state is (#B mod 2,
    inversion parity).  The identity words have no inversions, so
    every odd word is one member.

    >>> [count_odd_members(n) for n in range(1, 8)]
    [0, 1, 2, 6, 12, 28, 56]
    """
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    # words by #B mod 2, then inversion parity: even_odd counts the
    # words with an even #B and an odd inversion count
    even_even, even_odd, odd_even, odd_odd = 1, 0, 0, 0
    for _ in range(n):
        # an A flips the parity when #B is odd; a B flips #B
        even_even, even_odd, odd_even, odd_odd = (
            even_even + odd_even, even_odd + odd_odd,
            even_even + odd_odd, even_odd + odd_even)
    return even_odd + odd_odd


def count_sn_avoiding_321_2143(n: int) -> int:
    """Count permutations of size n, one-descent or not, avoiding both
    321 and 2143.

    Permutations grow one value at a time, and a prefix is dropped as
    soon as it contains either pattern: an occurrence in a prefix is
    an occurrence in every completion of it.

    >>> count_sn_avoiding_321_2143(6)
    80
    """
    if n < 1 or n > MAX_FULL_SN_SIZE:
        raise ValueError(f"full scan size {n} outside 1..{MAX_FULL_SN_SIZE}")

    full = (2 << n) - 2  # bit v stands for the value v

    def grow(length: int, used: int, blocked: int, top: int, cut: int) -> int:
        # blocked: values that would close a 321 or 2143 if placed now,
        # plus those already used; top: largest value placed; cut:
        # smallest upper end of a falling pair placed so far
        if length == n:
            return 1
        total = 0
        free = full & ~blocked
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            block = bit
            if cut < v:
                # v can be the 4 of a 2143 above any earlier falling
                # pair: a later value between cut and v closes one
                block |= (bit - 1) & ~((2 << cut) - 1)
            lowest = cut
            if v < top:
                # v ends a falling pair: a later value below v closes
                # a 321, and the pair's upper end may lower the cut
                block |= bit - 1
                above = used >> v
                lowest = min(cut, v + (above & -above).bit_length() - 1)
            total += grow(length + 1, used | bit, blocked | block,
                          max(top, v), lowest)
        return total

    return grow(0, 0, 0, 0, n + 1)
