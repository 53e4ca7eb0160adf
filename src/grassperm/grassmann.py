"""Permutations with at most one descent, and their relatives.

The family of size n has exactly 2^n - n members: the identity plus one
permutation for every subset of 1..n that is not a prefix (the subset
forms the rising block before the descent).  This module recognizes
the family and its intersection with the family of inverses, counts
both, their union and the involutions, and enumerates the involutions
by shape.  Its one walk lists the members whose words a kernels
automaton accepts: every member, the biGrassmannian ones (ONE_BA), a
pattern class or the cores.  All counting here is closed-form;
brute-force cross-checks live with the pattern tooling and the tests.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import chain, islice
from math import comb
from operator import add, gt

from grassperm import kernels
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


def _rising_prefix_walk(n: int, atoms: Sequence, automaton: tuple,
                        firsts: Sequence | None = None) -> Iterator:
    """The members of the size-n family whose words the automaton
    accepts (see kernels), built from atoms[1..n], in lexicographic
    order; a member's first value v is firsts[v] (atoms[v] by default),
    so that atoms may carry a separator before their value.  Tuple
    atoms give the members one at a time.  String atoms give text: the
    members, each followed by a newline, in one string per subtree
    below and one per node above it, and no empty string.

    Each node of the walk is a rising prefix S, with last = max S: the
    member whose first rising block is S is the prefix, then low (the
    values below last missing from S, carried down the tree), then
    every value above last.  Its word reads A at each value of S and B
    at every other, so a node carries the state of its first last
    letters, and its child v, one per value above last, reads
    B^(v-last-1) A; a dead child is cut with its subtree.  A node is
    emitted when low is non-empty, which spends the descent, or when
    last = n, the identity, and then only if its state accepts after
    B^(n-last).  The prefixes 1..j with j < n would repeat the
    identity, so A^n stands for every identity word, which the
    automaton must treat alike, as ONE_DESCENT, ONE_BA, CORES and
    avoiding(sigma) do.  Children come after their parent in increasing
    order, so the members come in preorder, which is lexicographic.

    Every run of values is a slice of run = atoms[1] + ... + atoms[n]:
    with at[v] where atoms[v] starts in it, the values above a are
    tail(a) = run[at[a+1]:], and those strictly between a and v are
    gap(a, v) = run[at[a+1]:at[v]].

    Below a node (P, L, last) with L non-empty and state s, the members
    are P + Q + L + C for every Q within (last, n] in preorder whose
    node is emitted, C being the rest of (last, n] in increasing order.
    With empty = atoms[0], two tables list those Q and C in step,

        heads[last, s] = [empty if s accepts after B^(n-last)]
            + [atoms[v] + q    for each live child v, in state t,
                               q in heads[v, t]]
        rests[last, s] = [tail(last) if s accepts after B^(n-last)]
            + [gap(last, v) + c  for the same v and t, c in rests[v, t]]

    built once per call and state for last >= n - TAIL_VALUES only, so
    each has at most 2^TAIL_VALUES entries whatever n is.  Member by
    member, such a subtree is emitted by map, three concatenations in C
    per member.  As text, lines[last, s] holds "" and then Q +
    "\0" + C + a newline for every pair, and the subtree is P joined by
    it with L put in place of each "\0", which no atom holds: one join
    and one replace in C, and no call or string per member.

    Only the nodes above those tails are visited one at a time, depth
    first.  A stack frame is a node's last, its live children, the
    index of the next one and the lengths of its prefix and low: a pop
    visits its children in turn, and one with children of its own
    pushes the frame back, then its own frame on top.  The walk keeps
    the prefix and low of the node pushed last, and every frame on the
    stack is an ancestor of that node, so a popped frame's prefix and
    low are the current ones cut to its lengths.  The stack holds at
    most one frame per level, of five values, beside one prefix and one
    low of at most n values, so memory grows with n, as do the
    automaton's moves from each state it reaches, and not with the
    members.
    """
    start, step, accepts, _ = automaton
    empty = atoms[0]
    text = isinstance(empty, str)
    run = empty
    at = [0, 0]  # at[v]: where atoms[v] starts in run, for v <= n + 1
    for atom in atoms[1:]:
        run += atom
        at.append(len(run))
    # state -> (for r = 0..n, whether it accepts after B^r; (d, the
    # state after B^(d-1) A) for each d <= n that leaves it alive; by
    # last, its table's heads, rests and, as text, lines, once built)
    known: dict = {}

    def moves(state: object) -> tuple[list, list, list]:
        states = [state]
        while len(states) < n and (b := step(states[-1], "B")) is not None:
            states.append(b)
        known[state] = ([accepts(s) for s in states]
                        + [False] * (n + 1 - len(states)),
                        [(d, a) for d, s in enumerate(states, 1)
                         if (a := step(s, "A")) is not None],
                        [None] * (n + 1))
        return known[state]

    # table is handed itself: naming itself would make a reference
    # cycle that keeps every table alive until the cyclic collector runs
    def table(last: int, state: object, table: Callable) -> tuple:
        ok, live, tabled = known.get(state) or moves(state)
        if not tabled[last]:
            above = at[last + 1]  # where the values above last start
            heads, rests = ([empty], [run[above:]]) if ok[n - last] \
                else ([], [])
            # each live child's atom, gap and table
            below = [(atoms[v], run[above:at[v]], table(v, after, table))
                     for d, after in live if (v := last + d) <= n]
            heads += [atom + q for atom, _, t in below for q in t[0]]
            rests += [gap + c for _, gap, t in below for c in t[1]]
            tabled[last] = heads, rests, [""] + [
                q + "\0" + c + "\n" for q, c in zip(heads, rests)] \
                if text else None
        return tabled[last]

    base = max(n - TAIL_VALUES, 0)
    end = "\n" if text else empty
    firsts = atoms if firsts is None else firsts
    # the root, the empty prefix, gives its children firsts[v]
    stack = [(0, 0, 0, moves(start)[1], 0)]
    pop, push = stack.pop, stack.append
    prefix = low = empty  # those of the node pushed last
    while stack:
        plen, llen, last, live, i = pop()
        # an ancestor of the node pushed last, so its prefix and low
        # begin the current ones
        prefix, low = prefix[:plen], low[:llen]
        grow = atoms if last else firsts
        for i in range(i, len(live)):  # the first visit of each child v
            d, state = live[i]
            v = last + d
            if v > n:
                break
            ok, kids, tabled = known.get(state) or moves(state)
            prefix_v, low_v = prefix + grow[v], low + run[at[last + 1]:at[v]]
            if low_v and v >= base:
                heads, rests, lines = tabled[v] or table(v, state, table)
                if not text:
                    yield from map(add, map(prefix_v.__add__, heads),
                                   map(low_v.__add__, rests))
                elif heads:
                    yield prefix_v.join(lines).replace("\0", low_v)
                continue
            room = n - v
            if (low_v or not room) and ok[room]:
                yield prefix_v + low_v + run[at[v + 1]:] + end
            if kids and kids[0][0] <= room:
                push((plen, llen, last, live, i + 1))
                push((len(prefix_v), len(low_v), v, kids, 0))
                prefix, low = prefix_v, low_v
                break


def enumerate_grassmannian(n: int, *, cap: int | None = None,
                           automaton: tuple = kernels.ONE_DESCENT
                           ) -> Iterator[Perm]:
    """All permutations of size n with at most one descent whose words
    the automaton accepts, by default every one, in lexicographic
    order, streamed.

    Values are placed left to right while the prefix rises; dropping to
    the smallest unplaced value spends the one allowed descent and
    forces the rest, so every member appears exactly once and no
    filtering or deduplication is involved.  The walk visits the rising
    prefixes in preorder, cuts each one whose word is dead, and emits
    each subtree within the last TAIL_VALUES values from two fixed-size
    completion tables; see _rising_prefix_walk.  kernels.ONE_BA keeps
    the biGrassmannian members, whose inverses are members too, and
    kernels.CORES the cores, the members p with p(1) != 1 and
    p(n) != n.

    >>> [p for p in enumerate_grassmannian(3)]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    >>> len(list(enumerate_grassmannian(4, automaton=kernels.ONE_BA)))
    11
    >>> [p for p in enumerate_grassmannian(4, automaton=kernels.CORES)]
    [(2, 3, 4, 1), (2, 4, 1, 3), (3, 4, 1, 2), (4, 1, 2, 3)]
    """
    check_size(n)
    check_cap(n, cap)
    return _rising_prefix_walk(
        n, [()] + [(v,) for v in range(1, n + 1)], automaton)


def grassmannian_blocks(n: int, *, cap: int | None = None,
                        automaton: tuple = kernels.ONE_DESCENT
                        ) -> Iterator[str]:
    """The members of enumerate_grassmannian(n, automaton=automaton) as
    format_permutation prints them, each followed by a newline, built
    as text by the same walk: one string per completion-table subtree,
    of at most 2^TAIL_VALUES lines made by one join and one replace,
    and one per node above the tables; no string is empty.

    >>> list(grassmannian_blocks(3))
    ['123\\n', '132\\n', '213\\n231\\n', '312\\n']
    >>> next(grassmannian_blocks(10))
    '1,2,3,4,5,6,7,8,9,10\\n'
    """
    check_size(n)
    check_cap(n, cap)
    digits = [""] + [str(v) for v in range(1, n + 1)]
    # above size 9, a comma goes before every value but the first
    comma = "," if n > 9 else ""
    return _rising_prefix_walk(
        n, [""] + [comma + digit for digit in digits[1:]], automaton, digits)


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
