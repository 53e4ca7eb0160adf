"""Permutations with at most one descent, and their relatives.

The family of size n has exactly 2^n - n members: the identity plus one
permutation for every subset of 1..n that is not a prefix (the subset
forms the rising block before the descent).  This module recognizes
and enumerates the family, its intersection and union with the family
of inverses, and its involutions.  All counting here is closed-form;
brute-force cross-checks live with the pattern tooling and the tests.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice
from math import comb
from operator import gt, itemgetter

from grassperm.perms import (
    Perm,
    check_cap,
    descent_positions,
    direct_sum,
    identity,
    inverse,
    shown,
    skew_sum,
)


def is_grassmannian(p: Sequence[int]) -> bool:
    """True iff p has at most one descent.

    >>> is_grassmannian((2, 4, 1, 3))
    True
    >>> is_grassmannian((3, 1, 4, 2))
    False
    """
    return sum(map(gt, p, islice(p, 1, None))) <= 1


def sole_descent(p: Sequence[int]) -> int | None:
    """The unique descent position, or None for the identity.

    Raises if p has two or more descents.
    """
    ds = descent_positions(p)
    if len(ds) > 1:
        raise ValueError(f"{shown(p)} has {len(ds)} descents")
    return ds[0] if ds else None


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")


def _rising_prefix_walk(n: int, atoms: Sequence) -> Iterator:
    """Every member of the size-n family, built from atoms[1..n].

    Each node of the walk is a rising prefix S, with last = max S: the
    member whose first rising block is S is the prefix, then low (the
    values below last missing from S, carried down the tree), then
    every value above last.  A node is emitted when low is non-empty,
    which spends the descent, or when last = n, which gives the
    identity; the prefixes 1..j with j < n would repeat the identity.
    Children, one per value above last, come in increasing order after
    their parent, so the members come in lexicographic order; every
    member costs a few concatenations of atoms.
    """
    empty = atoms[0]
    tails = [empty] * (n + 1)        # tails[v]: the values above v
    for v in range(n - 1, -1, -1):
        tails[v] = atoms[v + 1] + tails[v + 1]
    # gaps[a][v]: the values strictly between a and v, for a < v
    gaps = [[empty] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for v in range(a + 2, n + 1):
            gaps[a][v] = gaps[a][v - 1] + atoms[v - 1]
    stack = [(empty, empty, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, low, last = pop()
        if low or last == n:
            yield prefix + low + tails[last]
        below = gaps[last]
        for v in range(n, last, -1):
            push((prefix + atoms[v], low + below[v], v))


def enumerate_grassmannian(n: int, *, cap: int | None = None) -> Iterator[Perm]:
    """All permutations of size n with at most one descent, in
    lexicographic order.

    Values are placed left to right while the prefix rises; dropping to
    the smallest unplaced value spends the one allowed descent and
    forces the rest, so every member appears exactly once and no
    filtering or deduplication is involved.

    >>> [p for p in enumerate_grassmannian(3)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    _require_positive(n)
    check_cap(n, cap)
    return _rising_prefix_walk(n, [()] + [(v,) for v in range(1, n + 1)])


def grassmannian_lines(n: int, *, cap: int | None = None) -> Iterator[str]:
    """The members of enumerate_grassmannian(n) as format_permutation
    prints them, built as strings by the same walk.

    >>> list(grassmannian_lines(3))
    ['123', '132', '213', '231', '312']
    >>> next(grassmannian_lines(10))
    '1,2,3,4,5,6,7,8,9,10'
    """
    _require_positive(n)
    check_cap(n, cap)
    if n <= 9:
        return _rising_prefix_walk(n, [""] + [str(v) for v in range(1, n + 1)])
    # every member ends in "v,"; drop the final comma
    return map(itemgetter(slice(None, -1)), _rising_prefix_walk(
        n, [""] + [f"{v}," for v in range(1, n + 1)]))


def count_grassmannian(n: int) -> int:
    """Closed-form size of the family: 2^n - n.

    >>> [count_grassmannian(n) for n in range(1, 7)]
    [1, 2, 5, 12, 27, 58]
    """
    _require_positive(n)
    return 2 ** n - n


def count_descent_at(n: int, k: int) -> int:
    """How many members of the size-n family have their descent at
    position k: C(n, k) - 1, every k-subset but the prefix one.

    >>> count_descent_at(4, 1)
    3
    >>> sum(count_descent_at(6, k) for k in range(1, 6)) == 2**6 - 6 - 1
    True
    """
    _require_positive(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"descent position {k} outside 1..{n - 1}")
    return comb(n, k) - 1


def is_bigrassmannian(p: Sequence[int]) -> bool:
    """True iff both p and its inverse have at most one descent."""
    return is_grassmannian(p) and is_grassmannian(inverse(p))


def count_bigrassmannian(n: int) -> int:
    """Closed form 1 + C(n+1, 3).

    >>> count_bigrassmannian(4)
    11
    """
    _require_positive(n)
    return 1 + comb(n + 1, 3)


def count_union_with_inverse(n: int) -> int:
    """Permutations that have at most one descent or whose inverse
    does: 2^(n+1) - C(n+1, 3) - 2n - 1.

    This same family is cut out of all size-n permutations by avoiding
    321 and 2143 simultaneously.

    >>> [count_union_with_inverse(n) for n in range(1, 8)]
    [1, 2, 5, 13, 33, 80, 185]
    """
    _require_positive(n)
    return 2 ** (n + 1) - comb(n + 1, 3) - 2 * n - 1


def enumerate_involutions(n: int, *, cap: int | None = None) -> Iterator[Perm]:
    """Self-inverse members of the size-n family, in lexicographic
    order.

    Each one is id_a + (id_b above id_b) + id_c with a + 2b + c = n:
    a flat start, a block of b values swapped with the following b, and
    a flat finish.  All choices with b = 0 collapse to the identity.
    """
    _require_positive(n)
    check_cap(n, cap)
    out = {identity(n)}
    for b in range(1, n // 2 + 1):
        middle = skew_sum(identity(b), identity(b))
        for a in range(n - 2 * b + 1):
            out.add(direct_sum(direct_sum(identity(a), middle),
                               identity(n - 2 * b - a)))
    return iter(sorted(out))


def count_involutions(n: int) -> int:
    """Closed form 1 + mn - m^2 with m = floor(n/2); equivalently
    (n^2 + 3) / 4 for odd n and (n^2 + 4) / 4 for even n.

    >>> [count_involutions(n) for n in range(1, 12)]
    [1, 2, 3, 5, 7, 10, 13, 17, 21, 26, 31]
    """
    _require_positive(n)
    m = n // 2
    return 1 + m * n - m * m
