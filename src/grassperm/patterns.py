"""Pattern containment and avoidance inside the one-descent family.

The headline facts implemented here:

* Any pattern with two or more descents is avoided by the whole
  family, so only one-descent patterns and rising patterns matter.
* All one-descent patterns of a given size k are equally hard to
  contain: the avoider count is 1 + sum_{j=3..k} C(n, j-1), a single
  class for each size.
* Rising patterns 12...k cut the family down to a finite class: empty
  from size 2k-1 on, with an alternating-sum count (conjectured by
  Weiner) on the sizes k..2k-2 where the count is still shrinking.

contains_pattern is the correctness reference.  avoider_counts, the
oracle column of every pattern, picks by its shape the automaton of
kernels.avoiding, which shares no code with the formulas and which the
tests hold to the reference, or a scan with contains_pattern.
enumerate_avoiders lists a rising or one-descent pattern's class by a
walk over the live words of the same automaton, so it tests no member
for the pattern and costs time in proportion to its output; the tests
hold it to the filter by contains_pattern.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import islice
from math import comb

from grassperm import kernels
from grassperm.grassmann import enumerate_grassmannian
from grassperm.perms import (
    Perm,
    check_cap,
    check_size,
    descent_positions,
    identity,
)


def contains_pattern(p: Sequence[int], sigma: Sequence[int]) -> bool:
    """True iff some subsequence of p is order-isomorphic to sigma.

    Backtracking over candidate positions; a candidate only has to be
    compared against the tightest previously chosen values below and
    above it, and runs out of room n - k letters from the end.

    >>> contains_pattern((2, 4, 1, 3), (2, 1, 3))
    True
    >>> contains_pattern((2, 3, 1), (1, 3, 2))
    False
    """
    n = len(p)
    k = len(sigma)
    if k < 1:
        raise ValueError("pattern must be non-empty")
    if k > n:
        return False
    lo = [-1] * k
    hi = [-1] * k
    for t in range(k):
        for s in range(t):
            if sigma[s] < sigma[t]:
                if lo[t] == -1 or sigma[s] > sigma[lo[t]]:
                    lo[t] = s
            else:
                if hi[t] == -1 or sigma[s] < sigma[hi[t]]:
                    hi[t] = s
    chosen = [0] * k

    def extend(t: int, start: int) -> bool:
        for i in range(start, n - (k - t) + 1):
            v = p[i]
            if lo[t] != -1 and v <= chosen[lo[t]]:
                continue
            if hi[t] != -1 and v >= chosen[hi[t]]:
                continue
            chosen[t] = v
            if t + 1 == k or extend(t + 1, i + 1):
                return True
        return False

    return extend(0, 0)


def enumerate_avoiders(n: int, sigma: Sequence[int],
                       *, cap: int | None = None) -> Iterator[Perm]:
    """Members of the size-n one-descent family avoiding sigma, in
    lexicographic order, streamed; n is checked against the cap at the
    call.  A pattern with two or more descents is avoided by the whole
    family, which is returned as it is.  Any other pattern's class is
    walked on the live words of kernels.avoiding(sigma), with no member
    tested for the pattern, in time proportional to the output.

    The walk is enumerate_grassmannian's, over the rising prefixes S in
    preorder: last = max S, and the node's member is S, then low (the
    values below last missing from S), then the values above last.  Its
    word reads A at each value of S and B at every other, so a node
    carries the state of its word's first last letters, and its child v
    reads B^(v-last-1) and then A.  A child whose state dies is cut
    with its whole subtree, as a dead word stays dead.  A node is
    emitted when low is non-empty, which spends the descent, or when
    last = n, the identity, and then only if its state still accepts
    after B^(n-last).  The identity words all share one fate in
    avoiding(sigma), so A^n stands for them all.

    >>> list(enumerate_avoiders(4, (1, 2, 3)))
    [(2, 4, 1, 3), (3, 4, 1, 2)]
    """
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("pattern must be non-empty")
    if len(descent_positions(sigma)) > 1:
        return enumerate_grassmannian(n, cap=cap)
    check_size(n)
    check_cap(n, cap)
    return _class_walk(n, kernels.avoiding(sigma))


def _class_walk(n: int, automaton: tuple) -> Iterator[Perm]:
    start, step, accepts, _ = automaton
    ident = identity(n)
    # state -> (the states after B^0, B^1, ..., B^(n-1) up to the first
    # dead one; (j, the state after B^j A) for each of them that an A
    # leaves alive, in increasing j)
    known: dict = {}
    # a frame is a node and the index of the next child it has to give
    stack = [((), (), 0, start, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, low, last, state, i = pop()
        if state not in known:
            run = [state]
            while len(run) < n and (b := step(run[-1], "B")) is not None:
                run.append(b)
            known[state] = run, [(j, a) for j, a in enumerate(
                step(s, "A") for s in run) if a is not None]
        run, live = known[state]
        room = n - last
        if not i and (low or not room):  # the node's first visit
            if room < len(run) and accepts(run[room]):
                yield prefix + low + ident[last:]
        if i < len(live) and live[i][0] < room:
            j, after = live[i]
            push((prefix, low, last, state, i + 1))
            v = last + j + 1
            push((prefix + (v,), low + ident[last:v - 1], v, after, 0))


def avoider_counts(sigma: Sequence[int], sizes: range,
                   *, cap: int | None = None) -> Iterator[int]:
    """The avoiders of sigma in the size-n family for each n in sizes,
    independent of the closed forms: one pass of kernels.avoiding(sigma)
    or, for two or more descents, a scan of each family under cap.  The
    kernels' size guard holds each size as its count comes due."""
    sigma = tuple(sigma)
    if len(descent_positions(sigma)) < 2:
        counts = kernels.word_counts(kernels.avoiding(sigma), sizes)
    else:
        counts = (sum(not contains_pattern(p, sigma)
                      for p in enumerate_grassmannian(n, cap=cap))
                  for n in sizes)
    for n in sizes:
        kernels.check_scan_size(n)
        yield next(counts)


def count_avoiders_by_scan(n: int, sigma: Sequence[int],
                           *, cap: int | None = None) -> int:
    """avoider_counts at the one size n."""
    return next(avoider_counts(sigma, range(n, n + 1), cap=cap))


def count_avoiders_closed_form(n: int, sigma: Sequence[int]) -> int:
    """Avoider count predicted by the closed forms, by pattern shape.

    Two or more descents: nothing to avoid, 2^n - n.  Exactly one
    descent, size k: 1 + sum_{j=3..k} C(n, j-1), regardless of which
    one-descent pattern it is.  Rising: finite_class_formula.

    >>> count_avoiders_closed_form(10, (2, 4, 1, 3))
    166
    >>> count_avoiders_closed_form(3, (1, 3, 2))
    4
    """
    check_size(n)
    sigma = tuple(sigma)
    if len(sigma) < 1:
        raise ValueError("pattern must be non-empty")
    des = len(descent_positions(sigma))
    if des >= 2:
        return 2 ** n - n
    if des == 0:
        return finite_class_formula(n, len(sigma))
    # 1 + the sum of C(n, i) for i = 2..k-1, each binomial stepped from
    # the one before: C(n, i) = C(n, i-1) (n - i + 1) / i, and zero
    # once i > n
    total = 1
    term = n  # C(n, 1)
    for i in range(2, min(len(sigma) - 1, n) + 1):
        term = term * (n - i + 1) // i
        total += term
    return total


@lru_cache(maxsize=None)
def finite_class_count(m: int, k: int) -> int:
    """Members of the size-m family with no rising subsequence of
    length k, counted by the kernels' lattice-walk DP in time
    polynomial in m; kernels.MAX_SCAN_SIZE bounds m, and so the cost
    of the count rows and verify --kmax sweeps that call it.
    finite_class_formula is the closed form it checks.

    >>> [finite_class_count(m, 4) for m in range(1, 8)]
    [1, 2, 5, 11, 10, 5, 0]
    """
    return kernels.count_grassmannian_avoiding_increasing(m, k)


def finite_class_formula(m: int, k: int) -> int:
    """The closed form for finite_class_count: the whole family
    (2^m - m) while m < k, all but the identity (2^k - k - 1) at
    m = k, Weiner's alternating sum up to m = 2k - 2, and zero from
    m = 2k - 1 on.

    >>> [finite_class_formula(m, 4) for m in range(1, 8)]
    [1, 2, 5, 11, 10, 5, 0]
    """
    check_size(m)
    if k < 1:
        raise ValueError(f"pattern length {k} must be at least 1")
    if m < k:
        return 2 ** m - m
    if m == k:
        return 2 ** k - k - 1
    if m <= 2 * k - 2:
        return weiner_formula(m, k)
    return 0


def catalan(j: int) -> int:
    """The j-th Catalan number C(2j, j) / (j + 1).

    >>> [catalan(j) for j in range(8)]
    [1, 1, 2, 5, 14, 42, 132, 429]
    """
    if j < 0:
        raise ValueError(f"index must be non-negative, got {j}")
    return comb(2 * j, j) // (j + 1)


def weiner_formula(m: int, k: int) -> int:
    """Weiner's alternating sum for the rising-pattern avoider count
    on the finite range k <= m <= 2k - 2:

        sum_{j=1..k-floor(m/2)} (-1)^(j-1) j C(2k-m-j, j) Cat(k-j)

    >>> weiner_formula(4, 4)
    11
    >>> weiner_formula(10, 6)
    42
    """
    if k < 2:
        raise ValueError(f"pattern length {k} must be at least 2")
    if not k <= m <= 2 * k - 2:
        raise ValueError(f"size {m} outside {k}..{2 * k - 2}")
    return sum((-1) ** (j - 1) * j * comb(2 * k - m - j, j) * catalan(k - j)
               for j in range(1, k - m // 2 + 1))


def one_descent_patterns(k: int) -> Iterator[Perm]:
    """All size-k patterns with exactly one descent: the size-k family
    but its first member, the identity, in lexicographic order and
    streamed; k is checked against the enumeration cap at the call."""
    return islice(enumerate_grassmannian(k), 1, None)
