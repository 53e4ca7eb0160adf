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
enumerate_avoiders lists any pattern's class by the family's walk on
class_automaton(sigma), the same automaton or, past one descent, the
whole family's, so it tests no member for the pattern and costs time
in proportion to its output; the tests hold it to the filter by
contains_pattern.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import islice
from math import comb

from grassperm import kernels
from grassperm.grassmann import enumerate_grassmannian
from grassperm.perms import Perm, check_size, descent_positions


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


def class_automaton(sigma: Sequence[int]) -> tuple:
    """The automaton of sigma's class in the one-descent family:
    kernels.avoiding(sigma), or kernels.ONE_DESCENT for a pattern with
    two or more descents, which the whole family avoids."""
    sigma = tuple(sigma)
    if len(descent_positions(sigma)) > 1:
        return kernels.ONE_DESCENT
    return kernels.avoiding(sigma)


def enumerate_avoiders(n: int, sigma: Sequence[int],
                       *, cap: int | None = None) -> Iterator[Perm]:
    """Members of the size-n one-descent family avoiding sigma, in
    lexicographic order, streamed; n is checked against the cap at the
    call.  The family's walk runs on class_automaton(sigma) and cuts
    every prefix whose word is dead, so no member is tested for the
    pattern, and the time is proportional to the output.

    >>> list(enumerate_avoiders(4, (1, 2, 3)))
    [(2, 4, 1, 3), (3, 4, 1, 2)]
    """
    return enumerate_grassmannian(n, cap=cap, automaton=class_automaton(sigma))


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
