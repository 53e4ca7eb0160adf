"""Counters for the oracle columns and the brute-force checks, each
polynomial in the size.

A one-descent member of size n is fixed by its first rising block S.
Reading the values 1..n in order and writing A for a value in S and B
for one outside turns each member into a word over {A, B}; the n + 1
words A^j B^(n-j) all give the identity, every other word gives one
member of its own.  Each one-descent count here counts words with an
automaton (the transfer-matrix method), and one stepper runs them all;
avoiding(sigma) builds the one automaton of each pattern class.  The
family's walk, grassmann.enumerate_grassmannian, lists the members
whose words an automaton accepts, cutting each dead prefix.  The
two-pattern count over the whole symmetric group shares nothing with
this encoding: it grows permutations one value at a time and memoises
on a signature of the prefix.
"""

from __future__ import annotations

from collections.abc import Iterator

from grassperm.perms import descent_positions

# Size guard of the counters below.  They are polynomial, so it bounds
# the cost of the sizes a user can type: count rows, verify weiner and
# prop31 --kmax, verify prop22 and theorem34 --max-n.  It also bounds
# the two oracles that enumerate, count involutions' walk of the CORES
# words and the avoider scan of a pattern with two or more descents,
# whatever --cap.
MAX_SCAN_SIZE = 26


def check_scan_size(n: int) -> None:
    if not 1 <= n <= MAX_SCAN_SIZE:
        raise ValueError(f"scan size {n} outside 1..{MAX_SCAN_SIZE}")


def word_counts(automaton: tuple, sizes: range) -> Iterator[int]:
    """The count of an automaton (start, step, accepts, surplus) at each
    size n in sizes: the words ending in a state that accepts, less
    surplus(n), the identity words it accepts beyond the first.
    step(state, letter) is the state after the letter "A" or "B", None
    once the word is dead.  One pass over the letters takes each step
    once, when its state is first reached: O(sizes[-1] x states) work.

    >>> list(word_counts(ONE_DESCENT, range(1, 6)))
    [1, 2, 5, 12, 27]
    """
    start, step, accepts, surplus = automaton
    number = {start: 0}  # state -> its number, in the order reached
    moves: list[list[int]] = []  # by number: where its letters lead
    ways = [1]  # by number: the words of the last size ending there
    for n in range(1, sizes[-1] + 1):
        if len(moves) < len(number):  # states first reached at n - 1
            for state in list(number)[len(moves):]:
                moves.append([number.setdefault(after, len(number))
                              for after in (step(state, "A"), step(state, "B"))
                              if after is not None])
        grown = [0] * len(number)
        for targets, count in zip(moves, ways):
            if count:
                for target in targets:
                    grown[target] += count
        ways = grown
        if n in sizes:
            yield sum(count for state, count in zip(number, ways)
                      if accepts(state)) - surplus(n)


def count_words(automaton: tuple, n: int) -> int:
    """The automaton's count at the one size n."""
    return next(word_counts(automaton, range(n, n + 1)))


# every word: 2^n - n members
ONE_DESCENT = (0, lambda state, letter: 0, lambda state: True, lambda n: n)


def _one_ba_step(state: tuple[str, bool], letter: str) -> tuple | None:
    # (last letter, BA seen): the inverse of a member descends at i
    # exactly where its word reads BA at i, i + 1
    last, seen = state
    if last + letter == "BA":
        return None if seen else (letter, True)
    return letter, seen


# the biGrassmannian members: the words with at most one BA factor
ONE_BA = (("", False), _one_ba_step, lambda state: True, lambda n: n)

# the cores, the members p with p(1) != 1 and p(n) != n: the words that
# run from B to A, as 1 is outside the first rising block exactly when
# p(1) != 1 and n inside it exactly when p(n) != n.  The state is the
# last letter read, "" before the first; no identity word is accepted
CORES = ("", lambda last, letter: letter if last or letter == "B" else None,
         lambda last: last == "A", lambda n: 0)


def _parity_step(state: tuple[int, int], letter: str) -> tuple[int, int]:
    # (#B mod 2, inversion parity): the inversions are the pairs of a
    # B-value below an A-value, so an A adds #B inversions and a B none
    downs, odd = state
    return (downs, odd ^ downs) if letter == "A" else (downs ^ 1, odd)


# by inversion parity; the identity words have none, so are all even
ODD = ((0, 0), _parity_step, lambda state: state[1] == 1, lambda n: 0)
EVEN = ((0, 0), _parity_step, lambda state: state[1] == 0, lambda n: n)


def descent_at(k: int) -> tuple:
    """The members descending at k: the words with k letters A, cut at
    k, less the identity word A^k B^(n-k)."""
    def step(a: int, letter: str) -> int | None:
        return a if letter == "B" else a + 1 if a < k else None
    return 0, step, lambda a: a == k, lambda n: n >= k


def avoiding(sigma: tuple[int, ...]) -> tuple:
    """The members avoiding a pattern sigma with fewer than two
    descents; one with more is refused, as every member avoids it.

    A one-descent sigma is itself a word over {A, B}, and a member
    contains it exactly when that word is a subsequence of the member's
    word: k + 1 states match it greedily, a word dies at the k-th match,
    and every identity word survives.  A rising sigma, 12...k, reads the
    word as a walk, A a step up and B a step down.  The member's longest
    rising subsequence, lis, is #B plus the walk's highest point
    (counting the start at 0), and only grows, so a walk dies once lis
    reaches k.  The state is (d, lis), d the highest point less the
    height: a B raises both, an A lowers d or, at d = 0, lis.  The
    identity words all survive exactly when n < k, and then stand for
    one permutation, not n + 1.
    """
    k = len(sigma)
    if k < 1:
        raise ValueError("pattern must be non-empty")
    descents = descent_positions(sigma)
    if len(descents) > 1:
        raise ValueError("pattern has two or more descents")
    if not descents:
        def rise(state: tuple[int, int], letter: str) -> tuple | None:
            d, lis = state
            d, lis = ((d + 1, lis + 1) if letter == "B"
                      else (d - 1, lis) if d else (0, lis + 1))
            return (d, lis) if lis < k else None
        return (0, 0), rise, lambda state: True, lambda n: n if n < k else 0
    block = set(sigma[:descents[0]])
    word = ["A" if v in block else "B" for v in sorted(sigma)]

    def match(matched: int, letter: str) -> int | None:
        matched += letter == word[matched]
        return matched if matched < k else None
    return 0, match, lambda state: True, lambda n: n


def count_grassmannian_avoiding_increasing(m: int, k: int) -> int:
    """Count one-descent permutations of size m with no rising
    subsequence of length k: avoiding(12...k) at size m, with k cut to
    m + 1, as no member has a longer one.

    >>> count_grassmannian_avoiding_increasing(5, 4)
    10
    """
    check_scan_size(m)
    if k < 1:
        raise ValueError(f"pattern length {k} must be at least 1")
    return count_words(avoiding(tuple(range(1, min(k, m + 1) + 1))), m)


def count_grassmannian_avoiders(n: int, sigma: tuple[int, ...]) -> int:
    """Count one-descent permutations of size n containing no
    occurrence of the pattern sigma: avoiding(sigma) at size n.

    >>> count_grassmannian_avoiders(6, (1, 3, 2))
    16
    """
    check_scan_size(n)
    return count_words(avoiding(sigma), n)


def count_sn_avoiding_321_2143(n: int) -> int:
    """Count permutations of size n, one-descent or not, avoiding both
    321 and 2143.

    Permutations grow one value at a time.  A prefix is dead as soon as
    an unplaced value would close either pattern, since that value
    still has to be placed.  The completions of a live prefix depend
    only on its signature.  Let T be its top, c its cut (n + 1 if it
    has none), R its unplaced values, and s the smallest placed value
    above the lowest value of R below T (n + 1 if there is none).  The
    signature is #R above T, #R below T, #R between c and T, #R below
    min(s, c), whether s < c and whether c <= n.  Each signature is
    expanded once, so the search takes polynomial time.

    >>> count_sn_avoiding_321_2143(6)
    80
    >>> count_sn_avoiding_321_2143(20)
    2095781
    """
    check_scan_size(n)
    full = (2 << n) - 2  # bit v stands for the value v
    counts: dict[tuple[int, ...], int] = {}  # completions by signature

    def grow(used: int, blocked: int, top: int, cut: int) -> int:
        # blocked: values that would close a 321 or 2143 if placed now,
        # plus those already used; top: largest value placed; cut:
        # smallest upper end of a falling pair placed so far
        rest = full & ~used
        if blocked & rest:
            return 0  # dead: an unplaced value closes a pattern
        if not rest:
            return 1
        below = rest & ((1 << top) - 1)
        # the bit of s: the smallest placed value above min(below)
        over = used & -((below & -below) << 1)
        s = over & -over or 2 << n
        key = ((rest >> top).bit_count(), below.bit_count(),
               (below >> (cut + 1)).bit_count(),
               (rest & (min(s, 1 << cut) - 1)).bit_count(),
               s < 1 << cut, cut <= n)
        if key in counts:
            return counts[key]
        total = 0
        while rest:  # place each unplaced value next
            bit = rest & -rest
            rest ^= bit
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
            total += grow(used | bit, blocked | block, max(top, v), lowest)
        counts[key] = total
        return total

    return grow(0, 0, 0, n + 1)
