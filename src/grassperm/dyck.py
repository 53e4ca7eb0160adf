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


def semilength(path: str) -> int:
    return len(path) // 2


def heights(path: str) -> tuple[int, ...]:
    """Height after each step."""
    out = []
    h = 0
    for step in path:
        h += 1 if step == "U" else -1
        out.append(h)
    return tuple(out)


def peak_heights(path: str) -> tuple[int, ...]:
    """Heights of the UD corners, left to right.

    >>> peak_heights("UUUDDDUUDUDUUDDD")
    (3, 2, 2, 3)
    """
    out = []
    h = 0
    for i, step in enumerate(path):
        h += 1 if step == "U" else -1
        if step == "U" and i + 1 < len(path) and path[i + 1] == "D":
            out.append(h)
    return tuple(out)


def max_height(path: str) -> int:
    return max(heights(path), default=0)


def long_ascent_count(path: str) -> int:
    """Number of maximal U-runs of length two or more.

    >>> long_ascent_count("UUUDDDUUDUDUUDDD")
    3
    """
    count = 0
    run = 0
    for step in path:
        if step == "U":
            run += 1
        else:
            if run >= 2:
                count += 1
            run = 0
    return count


def peaks_above_height_one(path: str) -> int:
    return sum(1 for h in peak_heights(path) if h > 1)


def peaks_at_even_height(path: str) -> int:
    return sum(1 for h in peak_heights(path) if h % 2 == 0)


def is_grassmannian_path(path: str) -> bool:
    """True iff the path has at most one long ascent; these are the
    paths whose image under the labeling has at most one descent."""
    return long_ascent_count(path) <= 1


def _dyck_walk(n: int, most: int) -> Iterator[str]:
    """Dyck paths of semilength n with at most `most` long ascents,
    lexicographic (D before U)."""
    # once all n up-steps are placed the rest of the path is forced
    downs = ["D" * h for h in range(n + 1)]
    # prefix, height, up-steps so far, the current U-run (0 after a D,
    # 1 after its first U, 2 beyond) and the long ascents so far
    stack = [("", 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, h, ups, run, longs = pop()
        if ups == n:
            yield prefix + downs[h]
            continue
        # pushed U first so that the D branch comes out first; a run's
        # second U makes it long, and is refused once `most` are spent
        if run != 1:
            push((prefix + "U", h + 1, ups + 1, 1 if run == 0 else 2, longs))
        elif longs != most:
            push((prefix + "U", h + 1, ups + 1, 2, longs + 1))
        if h > 0:
            push((prefix + "D", h - 1, ups, 0, longs))


def enumerate_dyck_paths(n: int, *, cap: int | None = None) -> Iterator[str]:
    """All Dyck paths of semilength n, lexicographic (D before U)."""
    if n < 0:
        raise ValueError(f"semilength must be non-negative, got {n}")
    check_cap(n, cap)
    return _dyck_walk(n, n)


def enumerate_grassmannian_paths(n: int, *, cap: int | None = None) -> Iterator[str]:
    """Dyck paths of semilength n with at most one long ascent,
    lexicographic; exactly 2^n - n of them."""
    if n < 1:
        raise ValueError(f"semilength must be at least 1, got {n}")
    check_cap(n, cap)
    return _dyck_walk(n, 1)


def path_to_permutation(path: str) -> Perm:
    """Read the permutation off a Dyck path's up-step labels.

    >>> path_to_permutation("UUDD")
    (2, 1)
    >>> path_to_permutation("UUUDDDUUDUDUUDDD")
    (2, 3, 1, 7, 4, 5, 8, 6)
    """
    validate_dyck(path)
    down_number = {}
    d = 0
    for i, step in enumerate(path):
        if step == "D":
            d += 1
            down_number[i] = d
    labels: dict[int, int] = {}
    for i, step in enumerate(path):
        if step == "U" and i + 1 < len(path) and path[i + 1] == "D":
            labels[i] = down_number[i + 1]
    spare = iter(sorted(set(range(1, d + 1)) - set(labels.values())))
    return tuple(labels[i] if i in labels else next(spare)
                 for i, step in enumerate(path) if step == "U")


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
