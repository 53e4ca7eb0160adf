"""Dyck paths and the peak-labeling bijection onto 321-avoiders.

A path is a string over U and D, balanced, never dipping below the
start.  Input may use run-length digits ("U3D3" for "UUUDDD"); output
is always the flat string.

The bijection labels the down-steps 1..n left to right, hands each
peak's up-step the label of the down-step it touches, fills the
remaining up-steps with the smallest unused labels, working up each
ascent from its base, ascents left to right, and then reads the
up-step labels off left to right.  One-descent permutations correspond
exactly to the paths with at most one long ascent (two or more U's).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, islice

from grassperm.perms import Perm, check_cap, shown

Path = str


# parse_path refuses longer paths before expanding them, so that a
# short run-length input has a bounded cost; semilength 100,000 is far
# beyond what the enumerations and bijections here are used for.
MAX_PATH_STEPS = 200_000


def parse_path(text: str) -> str:
    """Expand run-length digits and validate the letters.

    Refuses a path of more than MAX_PATH_STEPS steps (semilength
    100,000) before expanding the run that crosses the limit.

    >>> parse_path("U3D3UD")
    'UUUDDDUD'
    """
    text = text.strip()
    out: list[str] = []
    steps = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "UD":
            raise ValueError(f"bad step {ch!r} in {shown(text)}")
        i += 1
        j = i
        while j < len(text) and "0" <= text[j] <= "9":
            j += 1
        if j - i > len(str(MAX_PATH_STEPS)):
            raise ValueError(f"run length with {j - i} digits; paths are"
                             f" limited to {MAX_PATH_STEPS} steps")
        count = int(text[i:j]) if j > i else 1
        if count < 1:
            raise ValueError(f"zero-length run in {shown(text)}")
        steps += count
        if steps > MAX_PATH_STEPS:
            raise ValueError(f"path longer than {MAX_PATH_STEPS} steps")
        out.append(ch * count)
        i = j
    return "".join(out)


def validate_dyck(path: str) -> str:
    """Check balance and the never-below-start condition."""
    h = 0
    for i, step in enumerate(path):
        if step == "U":
            h += 1
        elif step == "D":
            h -= 1
        else:
            raise ValueError(f"bad step {step!r} at position {i + 1}")
        if h < 0:
            raise ValueError(f"path dips below the start at step {i + 1}")
    if h != 0:
        raise ValueError(f"path ends at height {h}, not 0")
    return path


def parse_dyck_path(text: str) -> str:
    return validate_dyck(parse_path(text))


def peak_heights(path: str) -> tuple[int, ...]:
    """Heights of the UD corners, left to right.

    The j-th piece of path.split("D") is the ascent after j down-steps;
    a non-empty one ends at a peak, whose height is the up-steps so far
    less j.

    >>> peak_heights("UUUDDDUUDUDUUDDD")
    (3, 2, 2, 3)
    """
    out = []
    ups = 0
    for j, ascent in enumerate(path.split("D")[:-1]):
        if ascent:
            ups += len(ascent)
            out.append(ups - j)
    return tuple(out)


def max_height(path: str) -> int:
    return max(peak_heights(path), default=0)


def long_ascent_count(path: str) -> int:
    """Number of maximal U-runs of length two or more.

    >>> long_ascent_count("UUUDDDUUDUDUUDDD")
    3
    """
    return sum(len(ascent) >= 2 for ascent in path.split("D"))


def peaks_above_height_one(path: str) -> int:
    return sum(1 for h in peak_heights(path) if h > 1)


def peaks_at_even_height(path: str) -> int:
    return sum(1 for h in peak_heights(path) if h % 2 == 0)


def is_grassmannian_path(path: str) -> bool:
    """True iff the path has at most one long ascent; these are the
    paths whose image under the labeling has at most one descent."""
    return long_ascent_count(path) <= 1


# once this many steps or fewer remain, the rest of the walk is read
# from a table of suffixes no longer than this, so a fixed size; longer
# suffixes saved little more time and cost memory
TAIL_STEPS = 12


def _dyck_walk(n: int, most: int) -> Iterator[str]:
    """Dyck paths of semilength n with at most `most` long ascents,
    lexicographic (D before U), each followed by a newline, as text:
    one string per subtree below and one per path completed above it.
    The walk is a preorder in which a node's D branch comes before its
    U branch.

    A node is a prefix and its key (h, r, run, left): its height, the
    up-steps still to place, its current U-run (0 after a D, 1 after
    its first U, 2 beyond) and the long ascents it may still start.
    moves(key) gives the node's steps in order, each with the key it
    leads to: D if h > 0, then U if r > 0, unless run = 1 and left = 0,
    since that U would make the run long; the U that does make a run
    long spends one of left.  left is capped at r, which is all a
    suffix with r up-steps can use, so keys that differ only in an
    unusable allowance are one key.  Each key's moves are made once per
    call, as it is met.

    Once at most TAIL_STEPS steps remain (2r + h of them) the node's
    whole subtree is the prefix plus each entry, in order, of
    completions(key): each step of moves(key) followed by each entry
    for the key it leads to, or the empty suffix for a finished path.
    The table is filled as keys are met, once per call; it holds
    suffixes of at most TAIL_STEPS steps, a fixed size whatever n is.
    A subtree is the prefix, then the entries joined by a newline and
    the prefix, then a newline: one join in C and no string per path.
    Only the nodes above the tails are visited one at a time, each
    pushing its moves on a stack, the last first.  The stack holds at
    most one waiting branch per step of the current prefix, each with a
    prefix of at most 2n steps, so memory grows with n^2.
    """
    known: dict[tuple[int, int, int, int], list[tuple[str, tuple]]] = {}

    def moves(key: tuple[int, int, int, int]) -> list[tuple[str, tuple]]:
        h, r, run, left = key
        out = [("D", (h - 1, r, 0, left))] if h > 0 else []
        if r and (run != 1 or left):
            out.append(("U", (h + 1, r - 1, 1 if run == 0 else 2,
                              min(left - (run == 1), r - 1))))
        known[key] = out
        return out

    table: dict[tuple[int, int, int, int], list[str]] = {}

    def completions(key: tuple[int, int, int, int]) -> list[str]:
        if key not in table:
            # only a finished path, at height 0 with no up-step left,
            # has no move; its one completion is the empty suffix
            table[key] = [step + s
                          for step, nxt in known.get(key) or moves(key)
                          for s in completions(nxt)] or [""]
        return table[key]

    stack = [("", (0, n, 0, min(most, n)))]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, key = pop()
        h, r, _, _ = key
        if 2 * r + h <= TAIL_STEPS:
            yield prefix + ("\n" + prefix).join(completions(key)) + "\n"
            continue
        # a node above the tails has one move or two; the second is
        # pushed first, so that the first comes out first
        steps = known.get(key) or moves(key)
        if len(steps) == 2:
            step, nxt = steps[1]
            push((prefix + step, nxt))
        step, nxt = steps[0]
        push((prefix + step, nxt))


def enumerate_dyck_paths(n: int, *, cap: int | None = None) -> Iterator[str]:
    """All Dyck paths of semilength n, lexicographic (D before U): the
    lines of dyck_path_blocks(n), one path at a time.

    >>> list(enumerate_dyck_paths(2))
    ['UDUD', 'UUDD']
    >>> list(enumerate_dyck_paths(0))
    ['']
    """
    return chain.from_iterable(map(str.splitlines, dyck_path_blocks(
        n, cap=cap)))


def enumerate_grassmannian_paths(n: int, *, cap: int | None = None) -> Iterator[str]:
    """Dyck paths of semilength n with at most one long ascent,
    lexicographic, exactly 2^n - n of them: the lines of
    dyck_path_blocks(n, grassmannian_only=True), one path at a time."""
    return chain.from_iterable(map(str.splitlines, dyck_path_blocks(
        n, grassmannian_only=True, cap=cap)))


def dyck_path_blocks(n: int, *, grassmannian_only: bool = False,
                     cap: int | None = None) -> Iterator[str]:
    """The Dyck paths of semilength n, only those with at most one long
    ascent if grassmannian_only, lexicographic, each followed by a
    newline, as text: one string per subtree of at most TAIL_STEPS
    steps, and one per path completed above those.  An n or cap the
    enumeration does not take is refused here, not on the first block.

    >>> list(dyck_path_blocks(2))
    ['UDUD\\nUUDD\\n']
    """
    if grassmannian_only:
        if n < 1:
            raise ValueError(f"semilength must be at least 1, got {n}")
    elif n < 0:
        raise ValueError(f"semilength must be non-negative, got {n}")
    check_cap(n, cap)
    return _dyck_walk(n, 1 if grassmannian_only else n)


def path_to_permutation(path: str) -> Perm:
    """Read the permutation off a Dyck path's up-step labels.

    >>> path_to_permutation("UUDD")
    (2, 1)
    >>> path_to_permutation("UUUDDDUUDUDUUDDD")
    (2, 3, 1, 7, 4, 5, 8, 6)
    """
    validate_dyck(path)
    # the ascent after j down-steps ends at a peak labelled j + 1; its
    # other up-steps take the labels of no peak, smallest first
    ascents = path.split("D")
    peaks = {j + 1 for j, ascent in enumerate(ascents) if ascent}
    spare = (label for label in range(1, len(ascents)) if label not in peaks)
    out: list[int] = []
    for j, ascent in enumerate(ascents):
        if ascent:
            out.extend(islice(spare, len(ascent) - 1))
            out.append(j + 1)
    return tuple(out)


def permutation_to_path(p: Sequence[int]) -> str:
    """Rebuild the Dyck path of a 321-avoiding permutation.

    Cut p after each of its right-to-left minima; a block of length a
    ending at the minimum m, with the next minimum m' (or n+1 at the
    end), contributes U^a D^(m'-m).

    >>> permutation_to_path((2, 3, 1, 7, 4, 5, 8, 6))
    'UUUDDDUUDUDUUDDD'
    """
    n = len(p)
    if _has_321(p):
        raise ValueError(f"{shown(tuple(p))} contains 321; no path corresponds")
    minima = []
    low = n + 1
    for i in range(n - 1, -1, -1):
        if p[i] < low:
            low = p[i]
            minima.append(i)
    minima.reverse()
    out = []
    prev = -1
    for w, i in enumerate(minima):
        nxt = p[minima[w + 1]] if w + 1 < len(minima) else n + 1
        out.append("U" * (i - prev) + "D" * (nxt - p[i]))
        prev = i
    return "".join(out)


def _has_321(p: Sequence[int]) -> bool:
    m1 = 0
    m2 = 0
    for v in p:
        if v < m2:
            return True
        if v < m1:
            if v > m2:
                m2 = v
        else:
            m1 = v
    return False
