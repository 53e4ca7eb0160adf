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

contains_pattern is the correctness reference.  The counts that check
the closed forms come from the kernels, which share no code with the
formulas and which the tests hold to the reference.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import comb
from typing import NamedTuple

from grassperm import kernels
from grassperm.grassmann import enumerate_grassmannian
from grassperm.perms import Perm, descent_positions


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
    lexicographic order."""
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("pattern must be non-empty")
    members = enumerate_grassmannian(n, cap=cap)
    return (p for p in members if not contains_pattern(p, sigma))


def count_avoiders_by_scan(n: int, sigma: Sequence[int]) -> int:
    """Avoider count from the kernels, independent of the closed forms."""
    return kernels.count_grassmannian_avoiders(n, tuple(sigma))


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
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    sigma = tuple(sigma)
    if len(sigma) < 1:
        raise ValueError("pattern must be non-empty")
    des = len(descent_positions(sigma))
    if des >= 2:
        return 2 ** n - n
    if des == 0:
        return finite_class_formula(n, len(sigma))
    k = len(sigma)
    return 1 + sum(comb(n, j - 1) for j in range(3, k + 1))


@lru_cache(maxsize=None)
def finite_class_count(m: int, k: int) -> int:
    """Members of the size-m family with no rising subsequence of
    length k, counted by the kernels' lattice-walk DP at every size up
    to kernels.MAX_SCAN_SIZE; finite_class_formula is the closed form
    it checks.

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
    if m < 1:
        raise ValueError(f"size must be at least 1, got {m}")
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


class CountReport(NamedTuple):
    """One verified count: a closed-form value next to its brute-force
    check, if one was run."""
    family: str
    n: int
    formula: int
    oracle: int | None
    agree: bool | None


def verify_weiner(k_max: int) -> list[CountReport]:
    """Compare the alternating sum against the lattice-walk count over
    its whole claimed range, for every pattern length up to k_max."""
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    rows = []
    for k in range(2, k_max + 1):
        for m in range(k, 2 * k - 1):
            formula = weiner_formula(m, k)
            scanned = finite_class_count(m, k)
            rows.append(CountReport(f"rising k={k}", m, formula,
                                    scanned, formula == scanned))
    return rows


def one_descent_patterns(k: int) -> tuple[Perm, ...]:
    """All size-k patterns with exactly one descent (the non-identity
    members of the size-k one-descent family), in lexicographic order."""
    return tuple(p for p in enumerate_grassmannian(k)
                 if descent_positions(p))
