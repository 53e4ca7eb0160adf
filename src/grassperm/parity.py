"""Odd and even members of the one-descent family.

A member is odd or even by its inversion count.  The counts satisfy
a(n) = 2 a(n-2) + 2^(n-2) on the odd side, closing to
2^(n-1) - 2^floor((n-1)/2), and the parity of a member equals the
parity of its path's number of even-height peaks.

Two explicit size-raising maps witness the recurrence: one takes odd
members of even size 2m to the odd members of size 2m+1 that do not
end in 2m+1; the other takes odd members of odd size 2m+1 to the odd
members of size 2m+2 whose descent sits at an even position.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from grassperm.grassmann import is_grassmannian, sole_descent
from grassperm.perms import (
    Perm,
    check_size,
    direct_sum,
    inversion_count,
    shown,
)


def odd_count(n: int) -> int:
    """Members with an odd inversion count: 2^(n-1) - 2^floor((n-1)/2).

    >>> [odd_count(n) for n in range(1, 11)]
    [0, 1, 2, 6, 12, 28, 56, 120, 240, 496]
    """
    check_size(n)
    return 2 ** (n - 1) - 2 ** ((n - 1) // 2)


def even_count(n: int) -> int:
    """Members with an even inversion count, identity included:
    2^(n-1) + 2^floor((n-1)/2) - n.

    >>> [even_count(n) for n in range(1, 7)]
    [1, 1, 3, 6, 15, 30]
    >>> all(odd_count(n) + even_count(n) == 2**n - n for n in range(1, 40))
    True
    """
    check_size(n)
    return 2 ** (n - 1) + 2 ** ((n - 1) // 2) - n


def odd_count_descent_at(n: int, k: int) -> int:
    """Odd members of even size n with the descent at odd position k:
    exactly half of C(n, k).

    >>> odd_count_descent_at(4, 1)
    2
    >>> sum(odd_count_descent_at(8, k) for k in (1, 3, 5, 7))
    64
    """
    if n < 2 or n % 2:
        raise ValueError(f"size must be even and positive, got {n}")
    if not 1 <= k <= n - 1 or k % 2 == 0:
        raise ValueError(f"descent position {k} must be odd and below {n}")
    return comb(n, k) // 2


def _check_odd_member(p: Sequence[int], want_even_size: bool) -> None:
    n = len(p)
    if want_even_size != (n % 2 == 0):
        raise ValueError(f"size {n} has the wrong parity for this map")
    if not is_grassmannian(p):
        raise ValueError(f"{shown(tuple(p))} has more than one descent")
    if inversion_count(p) % 2 == 0:
        raise ValueError(f"{shown(tuple(p))} has an even inversion count")


def extend_to_odd_size(p: Sequence[int]) -> Perm:
    """Send an odd member of even size 2m to an odd member of size
    2m+1 that does not end in 2m+1.

    Members not ending in 2m get a new smallest value in front.  The
    rest surrender their final 2m, shift up, and take the pair
    (2m+1, 1) just after the descent, which adds 2m inversions.

    >>> extend_to_odd_size((3, 5, 1, 2, 4, 6))
    (4, 6, 7, 1, 2, 3, 5)
    >>> extend_to_odd_size((2, 1))
    (1, 3, 2)
    """
    _check_odd_member(p, want_even_size=True)
    n = len(p)
    if p[-1] != n:
        return direct_sum((1,), p)
    j = sole_descent(p)
    shifted = tuple(v + 1 for v in p[:-1])
    return shifted[:j] + (n + 1, 1) + shifted[j:]


def extend_to_even_size(p: Sequence[int]) -> Perm:
    """Send an odd member of odd size 2m+1 to an odd member of size
    2m+2 whose descent lands at an even position.

    An even-position descent stays put while 2m+2 is appended; an
    odd-position descent absorbs 2m+2 right after its top, pushing the
    descent one step later.

    >>> extend_to_even_size((3, 5, 1, 2, 4))
    (3, 5, 1, 2, 4, 6)
    >>> extend_to_even_size((2, 4, 5, 1, 3))
    (2, 4, 5, 6, 1, 3)
    """
    _check_odd_member(p, want_even_size=False)
    n = len(p)
    j = sole_descent(p)
    if j % 2 == 0:
        return tuple(p) + (n + 1,)
    return tuple(p[:j]) + (n + 1,) + tuple(p[j:])
