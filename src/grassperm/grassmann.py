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
from itertools import chain, islice
from math import comb
from operator import add, gt

from grassperm.perms import (
    Perm,
    check_cap,
    check_size,
    descent_positions,
    identity,
    inverse,
    shown,
)


def is_grassmannian(p: Sequence[int]) -> bool:
    """True iff p has at most one descent.

    >>> is_grassmannian((2, 4, 1, 3))
    True
    >>> is_grassmannian((3, 1, 4, 2))
    False
    """
    return sum(map(gt, p, islice(p, 1, None))) <= 1


def inverse_is_grassmannian(p: Sequence[int]) -> bool:
    """True iff p is a permutation whose inverse has at most one
    descent; a sequence that is not a permutation gives False.

    >>> inverse_is_grassmannian((3, 1, 4, 2))
    True
    >>> inverse_is_grassmannian((2, 4, 1, 3))
    False
    >>> inverse_is_grassmannian((1, 1))
    False
    """
    try:
        return is_grassmannian(inverse(p))
    except (TypeError, ValueError):
        return False


def sole_descent(p: Sequence[int]) -> int | None:
    """The unique descent position, or None for the identity.

    Raises if p has two or more descents.
    """
    ds = descent_positions(p)
    if len(ds) > 1:
        raise ValueError(f"{shown(p)} has {len(ds)} descents")
    return ds[0] if ds else None


# a node with this many values or fewer above its last one, and the
# descent spent, is emitted from tables of at most 2^TAIL_VALUES
# entries.  At 9, not 8, the text walk of size 19 took a tenth less
# time; at 10 it was barely faster, and its peak RSS was above dyck's
TAIL_VALUES = 9


def _rising_prefix_walk(n: int, atoms: Sequence,
                        firsts: Sequence | None = None,
                        mark: Sequence | None = None) -> Iterator:
    """Every member of the size-n family, built from atoms[1..n], in
    lexicographic order; a member's first value v is firsts[v] (atoms[v]
    by default), so that atoms may carry a separator before their
    value.  Tuple atoms give the members one at a time.  String atoms
    give text: the members, each followed by a newline, in one string
    per subtree below and one per node above it.  With a mark, only the
    members whose first value is at least 2, the mark put after their
    first rising block, not in lexicographic order.

    Each node of the walk is a rising prefix S, with last = max S: the
    member whose first rising block is S is the prefix, then low (the
    values below last missing from S, carried down the tree), then
    every value above last.  A node is emitted when low is non-empty,
    which spends the descent, or when last = n, which gives the
    identity; the prefixes 1..j with j < n would repeat the identity.
    A mark starts every low, so it stands right after the prefix.
    Children, one per value above last, come in increasing order after
    their parent: the members come in preorder, which is lexicographic.

    Every run of values is a slice of run = atoms[1] + ... + atoms[n]:
    with at[v] where atoms[v] starts in it, the values above a are
    tail(a) = run[at[a+1]:], and those strictly between a and v are
    gap(a, v) = run[at[a+1]:at[v]].

    Below a node (P, L, last) with L non-empty every node is emitted,
    and its subtree is P + Q + L + C for every Q within (last, n] in
    preorder, C being the rest of (last, n] in increasing order.  With
    empty = atoms[0], two tables list those Q and C in step,

        heads[last] = [empty] + [atoms[v] + q   for v > last, q in heads[v]]
        rests[last] = [tail(last)]
                      + [gap(last, v) + c  for v > last, c in rests[v]]

    built once per call for last >= n - TAIL_VALUES only, so each has
    at most 2^TAIL_VALUES entries whatever n is.  Member by member,
    such a subtree is emitted by map, three concatenations in C per
    member.  As text, lines[last] holds "" and then Q + "\0" + C + a
    newline for every pair, and the subtree is P joined by lines[last]
    with L put in place of each "\0", which no atom holds: one join
    and one replace in C, and no call or string per member.

    Only the nodes above those tails are visited one at a time, depth
    first.  A stack frame is a node and the next child it has to give:
    a pop emits the node on its first visit, then pushes the frame back
    for the child after and that one child on top.  The stack holds at
    most one frame per level, each with a prefix and a low of at most n
    values, so memory grows with n^2 and not with the members.
    """
    empty = atoms[0]
    text = isinstance(empty, str)
    run = empty
    at = [0, 0]  # at[v]: where atoms[v] starts in run, for v <= n + 1
    for atom in atoms[1:]:
        run += atom
        at.append(len(run))
    base = max(n - TAIL_VALUES, 0)
    heads: list[list] = [[]] * (n + 1)
    rests: list[list] = [[]] * (n + 1)
    for last in range(n, base - 1, -1):
        start = at[last + 1]
        heads[last] = [empty] + [atoms[v] + q for v in range(last + 1, n + 1)
                                 for q in heads[v]]
        rests[last] = [run[start:]] + [run[start:at[v]] + c
                                       for v in range(last + 1, n + 1)
                                       for c in rests[v]]
    lines = [[""] + [q + "\0" + c + "\n" for q, c in zip(h, r)]
             for h, r in zip(heads, rests)] if text else []
    end = "\n" if text else empty
    firsts = atoms if firsts is None else firsts
    mark = empty if mark is None else mark
    stack: list[tuple] = []
    pop, push = stack.pop, stack.append
    # the root, the empty prefix, has only its children to give
    for first in range(2 if mark else 1, n + 1):
        push((firsts[first], mark + run[:at[first]], first, first + 1))
        while stack:
            prefix, low, last, v = pop()
            if v == last + 1:  # the node's first visit
                if low and last >= base:
                    if text:
                        yield prefix.join(lines[last]).replace("\0", low)
                    else:
                        yield from map(add, map(prefix.__add__, heads[last]),
                                       map(low.__add__, rests[last]))
                    continue
                if low or last == n:
                    yield prefix + low + run[at[last + 1]:] + end
            if v <= n:
                push((prefix, low, last, v + 1))
                push((prefix + atoms[v], low + run[at[last + 1]:at[v]], v,
                      v + 1))


def enumerate_grassmannian(n: int, *, cap: int | None = None,
                           core: bool = False) -> Iterator[Perm]:
    """All permutations of size n with at most one descent, in
    lexicographic order, streamed; with core, only the cores, the
    members p with p(1) != 1 and p(n) != n, not in lexicographic order.

    Values are placed left to right while the prefix rises; dropping to
    the smallest unplaced value spends the one allowed descent and
    forces the rest, so every member appears exactly once and no
    filtering or deduplication is involved.  The walk visits the rising
    prefixes in preorder and emits each subtree within the last
    TAIL_VALUES values from two fixed-size completion tables; see
    _rising_prefix_walk.

    A core is T within 2..n-1, then n, then the rest increasing: one of
    the size-(n-1) members whose first value is at least 2 with n put
    after its first rising block, or (n, 1, ..., n-1).

    >>> [p for p in enumerate_grassmannian(3)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    >>> [p for p in enumerate_grassmannian(4, core=True)]
    [(2, 4, 1, 3), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    """
    check_size(n)
    check_cap(n, cap)
    atoms = [()] + [(v,) for v in range(1, n + 1)]
    if not core:
        return _rising_prefix_walk(n, atoms)
    rotated = [atoms[n] + identity(n - 1)] if n > 1 else []
    return chain(_rising_prefix_walk(n - 1, atoms[:n], mark=atoms[n]),
                 rotated)


def grassmannian_blocks(n: int, *, cap: int | None = None) -> Iterator[str]:
    """The members of enumerate_grassmannian(n) as format_permutation
    prints them, each followed by a newline, built as text by the same
    walk: one string per completion-table subtree, of at most
    2^TAIL_VALUES lines made by one join and one replace, and one per
    node above the tables.

    >>> list(grassmannian_blocks(3))
    ['123\\n', '132\\n', '213\\n231\\n', '312\\n']
    >>> next(grassmannian_blocks(10))
    '1,2,3,4,5,6,7,8,9,10\\n'
    """
    check_size(n)
    check_cap(n, cap)
    digits = [""] + [str(v) for v in range(1, n + 1)]
    if n <= 9:
        return _rising_prefix_walk(n, digits)
    # a comma goes before every value but the first
    return _rising_prefix_walk(n, [""] + [f",{v}" for v in range(1, n + 1)],
                               digits)


def count_grassmannian(n: int) -> int:
    """Closed-form size of the family: 2^n - n.

    >>> [count_grassmannian(n) for n in range(1, 7)]
    [1, 2, 5, 12, 27, 58]
    """
    check_size(n)
    return 2 ** n - n


def count_descent_at(n: int, k: int) -> int:
    """How many members of the size-n family have their descent at
    position k: C(n, k) - 1, every k-subset but the prefix one.

    >>> count_descent_at(4, 1)
    3
    >>> sum(count_descent_at(6, k) for k in range(1, 6)) == 2**6 - 6 - 1
    True
    """
    check_size(n)
    if not 1 <= k <= n - 1:
        valid = f"; use sizes from {k + 1}" if k >= 1 else ""
        raise ValueError(f"descent position {k} outside 1..{n - 1}{valid}")
    return comb(n, k) - 1


def is_bigrassmannian(p: Sequence[int]) -> bool:
    """True iff both p and its inverse have at most one descent; a
    sequence that is not a permutation gives False, as the inverse
    test, which goes first, refuses it.
    """
    return inverse_is_grassmannian(p) and is_grassmannian(p)


def enumerate_bigrassmannian(n: int, *,
                             cap: int | None = None) -> Iterator[Perm]:
    """Members of the size-n family whose inverses are members too, in
    lexicographic order, streamed.

    Each but the identity is id_a, then the c values above a + b, then
    the b values above a, then the rest, for the C(n+1, 3) cuts 0 <= a
    < a + b < a + b + c <= n; it descends after a + c and its inverse
    after a + b.

    >>> list(enumerate_bigrassmannian(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    check_size(n)
    check_cap(n, cap)
    ident = identity(n)
    swapped = (ident[:a] + ident[a + b:a + b + c] + ident[a:a + b]
               + ident[a + b + c:]
               for a in range(n - 2, -1, -1) for b in range(1, n - a)
               for c in range(1, n - a - b + 1))
    return chain((ident,), swapped)


def count_bigrassmannian(n: int) -> int:
    """Closed form 1 + C(n+1, 3).

    >>> count_bigrassmannian(4)
    11
    """
    check_size(n)
    return 1 + comb(n + 1, 3)


def count_union_with_inverse(n: int) -> int:
    """Permutations that have at most one descent or whose inverse
    does: 2^(n+1) - C(n+1, 3) - 2n - 1.

    This same family is cut out of all size-n permutations by avoiding
    321 and 2143 simultaneously.

    >>> [count_union_with_inverse(n) for n in range(1, 8)]
    [1, 2, 5, 13, 33, 80, 185]
    """
    check_size(n)
    return 2 ** (n + 1) - comb(n + 1, 3) - 2 * n - 1


def enumerate_involutions(n: int, *, cap: int | None = None) -> Iterator[Perm]:
    """Self-inverse members of the size-n family, in lexicographic
    order, streamed.

    Each one is id_a + (id_b above id_b) + id_c with a + 2b + c = n:
    a flat start, a block of b values swapped with the following b, and
    a flat finish.  All choices with b = 0 collapse to the identity,
    which comes first.  The others put a + b + 1 after a fixed points,
    so a longer flat start comes earlier and, after the same start, a
    narrower block.

    >>> list(enumerate_involutions(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    check_size(n)
    check_cap(n, cap)
    ident = identity(n)
    swapped = (ident[:a] + ident[a + b:a + 2 * b] + ident[a:a + b]
               + ident[a + 2 * b:]
               for a in range(n - 2, -1, -1)
               for b in range(1, (n - a) // 2 + 1))
    return chain((ident,), swapped)


def count_involutions(n: int) -> int:
    """Closed form 1 + mn - m^2 with m = floor(n/2); equivalently
    (n^2 + 3) / 4 for odd n and (n^2 + 4) / 4 for even n.

    >>> [count_involutions(n) for n in range(1, 12)]
    [1, 2, 3, 5, 7, 10, 13, 17, 21, 26, 31]
    """
    check_size(n)
    m = n // 2
    return 1 + m * n - m * m
