"""Output checks for the benchmark's grassperm commands.

Nothing here imports grassperm.  Every expected value comes from the
paper's closed forms written out afresh, and the small sizes of each
closed form are checked against a brute force over
``itertools.permutations`` before the form is trusted at larger sizes.
No stored copy of an earlier output is used.

``check_command(argv, returncode, stdout, stderr)`` raises
``CheckFailed`` naming the first thing that is wrong.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb

# Sizes up to this are also counted by brute force over S_n.
BRUTE_MAX = 8


class CheckFailed(Exception):
    """A command's output disagrees with the independently computed one."""


# ------------------------------------------------------------ brute force

def descents(p) -> int:
    return sum(map(operator.gt, p, p[1:]))


def inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def inversions(p) -> int:
    return sum(a > b for a, b in combinations(p, 2))


def contains(p, sigma) -> bool:
    """Whether some subsequence of p is order-isomorphic to sigma."""
    k = len(sigma)
    for sub in combinations(p, k):
        ranks = sorted(sub)
        if all(ranks.index(v) + 1 == s for v, s in zip(sub, sigma)):
            return True
    return False


def longest_rise(p) -> int:
    """Length of the longest increasing subsequence (quadratic DP)."""
    best = [1] * len(p)
    for j in range(len(p)):
        for i in range(j):
            if p[i] < p[j] and best[i] + 1 > best[j]:
                best[j] = best[i] + 1
    return max(best, default=0)


@lru_cache(maxsize=None)
def one_descent_brute(n: int) -> tuple[tuple[int, ...], ...]:
    """The one-descent family of size n, filtered from all of S_n."""
    return tuple(p for p in permutations(range(1, n + 1))
                 if descents(p) <= 1)


@lru_cache(maxsize=None)
def one_descent(n: int) -> tuple[tuple[int, ...], ...]:
    """The one-descent family of size n, sorted, built from subsets.

    Any set S of values followed by its complement, each in rising
    order, has at most one descent, and every such permutation arises
    this way; distinct subsets can give the same identity permutation.
    Cross-checked against ``one_descent_brute`` on small sizes.
    """
    out = set()
    for mask in range(1 << n):
        first = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        rest = [v for v in range(1, n + 1) if not mask >> (v - 1) & 1]
        out.add(tuple(first + rest))
    family = tuple(sorted(out))
    if n <= BRUTE_MAX - 1 and family != one_descent_brute(n):
        raise CheckFailed(f"benchmark: subset family differs at n={n}")
    return family


BRUTE_COUNTS = {
    "grassmannian": lambda n: len(one_descent_brute(n)),
    "bigrassmannian": lambda n: sum(
        descents(inverse(p)) <= 1 for p in one_descent_brute(n)),
    "union-inverse": lambda n: len(
        set(one_descent_brute(n))
        | {inverse(p) for p in one_descent_brute(n)}),
    "odd": lambda n: sum(inversions(p) % 2 for p in one_descent_brute(n)),
    "involutions": lambda n: sum(
        inverse(p) == p for p in one_descent_brute(n)),
}


# ------------------------------------------------------------ closed forms

def catalan(j: int) -> int:
    return comb(2 * j, j) // (j + 1)


def weiner_sum(m: int, k: int) -> int:
    """Weiner's alternating sum for the one-descent members of size m
    with no rising subsequence of length k, valid for k <= m <= 2k-2."""
    return sum((-1) ** (j - 1) * j * comb(2 * k - m - j, j) * catalan(k - j)
               for j in range(1, k - m // 2 + 1))


def one_descent_class(n: int, size: int) -> int:
    """Theorem 3.4: avoiders of any one-descent pattern of this size."""
    return 1 + sum(comb(n, j - 1) for j in range(3, size + 1))


CLOSED_FORMS = {
    "grassmannian": lambda n: 2 ** n - n,
    "bigrassmannian": lambda n: 1 + comb(n + 1, 3),
    "union-inverse": lambda n: 2 ** (n + 1) - comb(n + 1, 3) - 2 * n - 1,
    "odd": lambda n: 2 ** (n - 1) - 2 ** ((n - 1) // 2),
    "involutions": lambda n: n * n // 4 + 1,
}


@lru_cache(maxsize=None)
def family_count(family: str, n: int) -> int:
    """Closed form, confirmed by brute force where S_n is small."""
    value = CLOSED_FORMS[family](n)
    if n <= BRUTE_MAX and BRUTE_COUNTS[family](n) != value:
        raise CheckFailed(f"benchmark: {family} closed form wrong at n={n}")
    return value


@lru_cache(maxsize=None)
def rising_class(m: int, k: int) -> int:
    """One-descent members of size m with no rising run of length k,
    by Weiner's sum on k <= m <= 2k-2, confirmed by brute force."""
    value = weiner_sum(m, k)
    if m <= BRUTE_MAX and value != sum(
            longest_rise(p) < k for p in one_descent(m)):
        raise CheckFailed(f"benchmark: Weiner sum wrong at m={m} k={k}")
    return value


@lru_cache(maxsize=None)
def pattern_class(n: int, sigma: tuple[int, ...]) -> int:
    """Avoiders of a one-descent sigma, confirmed by brute force."""
    value = one_descent_class(n, len(sigma))
    if n <= BRUTE_MAX - 2 and value != sum(
            not contains(p, sigma) for p in one_descent(n)):
        raise CheckFailed(f"benchmark: Theorem 3.4 wrong at n={n}")
    return value


# ------------------------------------------------------------ expected text

def name(p) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


def one_descent_patterns(size: int) -> list[tuple[int, ...]]:
    return [p for p in one_descent(size) if descents(p) == 1]


def verify_lines(target: str) -> list[str]:
    """The stdout rows of ``grassperm verify TARGET`` at its defaults."""
    rows: list[tuple[str, object]] = []
    if target == "weiner":
        for k in range(2, 11):
            for m in range(k, 2 * k - 1):
                rows.append((f"rising k={k} m={m}", rising_class(m, k)))
    elif target == "theorem34":
        for size in range(3, 6):
            for sigma in one_descent_patterns(size):
                for n in range(1, 11):
                    rows.append((f"sigma={name(sigma)} n={n}",
                                 pattern_class(n, sigma)))
    elif target == "prop21":
        for n in range(1, 11):
            rows.append((f"count n={n}", family_count("bigrassmannian", n)))
            rows.append((f"2413-avoidance n={n}", True))
    elif target == "prop22":
        for n in range(1, 11):
            rows.append((f"n={n}", family_count("union-inverse", n)))
    elif target == "prop23":
        for n in range(1, 11):
            members = [p for p in one_descent(n) if inverse(p) == p]
            if len(members) != family_count("involutions", n):
                raise CheckFailed(f"benchmark: involution count n={n}")
            rows.append((f"members n={n}", members))
            rows.append((f"count n={n}", len(members)))
    elif target == "prop31":
        for k in range(2, 10):
            rows.append((f"k={k} m={2 * k - 2}", catalan(k - 1)))
            if k >= 3:
                rows.append((f"k={k} m={2 * k - 3}", 2 * catalan(k - 1)))
    elif target == "prop41":
        for n in range(1, 10):
            rows.append((f"path count n={n}", family_count("grassmannian", n)))
            rows.append((f"image n={n}", list(one_descent(n))))
    elif target in ("prop42", "prop43"):
        for k in (3, 4, 5):
            if target == "prop42":
                sigma = (k,) + tuple(range(1, k))
            else:
                sigma = tuple(range(2, k + 1)) + (1,)
            for n in range(1, 10):
                rows.append((f"sigma={name(sigma)} n={n} count",
                             pattern_class(n, sigma)))
                rows.append((f"sigma={name(sigma)} n={n} image", True))
    elif target == "prop46":
        for n in range(0, 10):
            rows.append((f"round trip n={n}", True))
            rows.append((f"image n={n}", True))
            rows.append((f"count n={n}",
                         pattern_class(n + 1, (3, 5, 1, 2, 4))))
    elif target == "thm51":
        for n in range(1, 41):
            odd = family_count("odd", n)
            rows.append((f"closed form n={n}", odd))
            if n > 2:
                rows.append((f"recurrence n={n}", odd))
            if n <= 14:
                rows.append((f"oracle n={n}", odd))
        for m in range(1, 6):
            rows.append((f"xi image m={m}", True))
            rows.append((f"psi image m={m}", True))
    elif target == "prop53":
        rows = [(f"n={n}", True) for n in range(1, 11)]
    else:
        raise CheckFailed(f"benchmark: no check for verify {target}")
    return [f"ok   {label}: {value}" for label, value in rows]


def table_lines(which: str) -> list[str]:
    """The CSV rows of ``grassperm table WHICH`` at its defaults."""
    if which == "table1":
        return [",".join(map(str, [k] + [rising_class(m, k)
                                         for m in range(k, 2 * k - 1)]))
                for k in range(2, 11)]
    return [",".join(map(str, [size] + [
        pattern_class(n, tuple(range(2, size + 1)) + (1,))
        for n in range(1, 11)])) for size in range(3, 11)]


def count_lines(family: str, sizes: range) -> list[str]:
    """The CSV of ``grassperm count FAMILY --n LO..HI --oracle``."""
    lines = ["n,formula,oracle,agree"]
    for n in sizes:
        value = family_count(family, n)
        lines.append(f"{n},{value},{value},true")
    return lines


# ------------------------------------------------------------ enum checks

def _enum_lines(out: bytes) -> list[bytes]:
    if out and not out.endswith(b"\n"):
        raise CheckFailed("output does not end in a newline")
    return out.split(b"\n")[:-1]


def _stderr_count(err: bytes, want: int) -> None:
    tail = err.decode(errors="replace").strip().splitlines()[-1:]
    if tail != [f"count: {want}"]:
        raise CheckFailed(f"stderr ends {tail!r}, expected count: {want}")


def check_enum_grassmannian(n: int, out: bytes, err: bytes) -> None:
    lines = _enum_lines(out)
    want = family_count("grassmannian", n)
    if len(lines) != want:
        raise CheckFailed(f"{len(lines)} lines, expected 2^{n}-{n} = {want}")
    values = list(range(1, n + 1))
    prev: tuple[int, ...] = ()
    for i, line in enumerate(lines, 1):
        p = (tuple(map(int, line.split(b","))) if n > 9
             else tuple(c - 48 for c in line))
        if sorted(p) != values:
            raise CheckFailed(f"line {i}: {line!r} is not a permutation"
                              f" of 1..{n}")
        if descents(p) > 1:
            raise CheckFailed(f"line {i}: {line!r} has two descents")
        if not prev < p:
            raise CheckFailed(f"line {i}: {line!r} breaks the strict"
                              " lexicographic order")
        prev = p
    _stderr_count(err, len(lines))


STEP = {ord("U"): 1, ord("D"): -1}


def check_enum_dyck(n: int, out: bytes, err: bytes) -> None:
    lines = _enum_lines(out)
    want = catalan(n)
    if len(lines) != want:
        raise CheckFailed(f"{len(lines)} lines, expected Catalan({n})"
                          f" = {want}")
    prev = b""
    for i, line in enumerate(lines, 1):
        try:
            walk = list(accumulate(map(STEP.__getitem__, line)))
        except KeyError:
            raise CheckFailed(f"line {i}: {line!r} has a step other"
                              " than U or D") from None
        if len(line) != 2 * n or walk[-1:] != [0] or min(walk, default=0) < 0:
            raise CheckFailed(f"line {i}: {line!r} is not a Dyck path of"
                              f" semilength {n}")
        if not prev < line:
            raise CheckFailed(f"line {i}: {line!r} breaks the strict"
                              " lexicographic order")
        prev = line
    _stderr_count(err, len(lines))


# ------------------------------------------------------------ dispatch

def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _compare(got: list[str], want: list[str]) -> None:
    for i, (g, w) in enumerate(zip(got, want), 1):
        if g != w:
            raise CheckFailed(f"line {i}: got {g!r}, expected {w!r}")
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} lines, expected {len(want)}")


def check_command(argv: list[str], returncode: int, out: bytes,
                  err: bytes) -> None:
    """Raise CheckFailed unless this is the right output for argv."""
    try:
        _check_command(argv, returncode, out, err)
    except ValueError as exc:  # a field that is not a number, or not UTF-8
        raise CheckFailed(f"malformed output: {exc}") from None


def _check_command(argv: list[str], returncode: int, out: bytes,
                   err: bytes) -> None:
    if returncode != 0:
        raise CheckFailed(f"exit code {returncode}")
    command, what = argv[0], argv[1]
    if command == "enum":
        n = int(_option(argv, "--n"))
        if what == "grassmannian":
            return check_enum_grassmannian(n, out, err)
        if what == "dyck":
            return check_enum_dyck(n, out, err)
    elif command == "count" and "--oracle" in argv:
        lo, _, hi = _option(argv, "--n").partition("..")
        sizes = range(int(lo), int(hi or lo) + 1)
        return _compare(out.decode().splitlines(), count_lines(what, sizes))
    elif command == "verify" and len(argv) == 2:
        want = verify_lines(what)
        _compare(out.decode().splitlines(), want)
        tail = err.decode().strip().splitlines()[-1:]
        if tail != [f"{what}: {len(want)} checks, all agree"]:
            raise CheckFailed(f"stderr ends {tail!r}")
        return None
    elif command == "table" and len(argv) == 2:
        return _compare(out.decode().splitlines(), table_lines(what))
    raise CheckFailed(f"benchmark: no check for {' '.join(argv)}")
