"""Command line front end.

    grassperm enum grassmannian --n 3
    grassperm count avoiders --pattern 2413 --n 1..10 --oracle
    grassperm verify weiner --kmax 8
    grassperm table table1 --kmax 10
    grassperm map phi UUUDDDUUDUDUUDDD

Exit codes: 0 success, 1 verification mismatch or stdout closed before
the output was written (a broken pipe, as under "| head"), 2 invalid
input.
Data goes to stdout; counts and progress notes go to stderr.  Into a
pipe, count writes each CSV or b-file row and verify each block as
soon as it is checked, and enum a block of lines per write, in either
format: a subtree of the walk (at most a few hundred lines) for
grassmannian, bigrassmannian, dyck and the avoiders of any pattern,
which the grassmannian walk lists as text on the kernels.ONE_BA
automaton and the pattern's; about ENUM_CHUNK_CHARS characters for
involutions and schroder.  The rest write at
exit.
count --oracle builds each column of COUNT_FAMILIES in one pass, in
this process: grassmannian, bigrassmannian, union-inverse, odd, even and
descent-at with a kernels word automaton; involutions by the walk of
the kernels.CORES words in _weight_column; finite-class and avoiders
with the pattern's column, patterns.avoider_counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain

from grassperm import kernels
from grassperm.dyck import (
    dyck_path_blocks,
    enumerate_grassmannian_paths,
    max_height,
    parse_dyck_path,
    path_to_permutation,
    peaks_above_height_one,
    peaks_at_even_height,
    permutation_to_path,
)
from grassperm.grassmann import (
    count_bigrassmannian,
    count_descent_at,
    count_grassmannian,
    count_involutions,
    count_union_with_inverse,
    enumerate_grassmannian,
    enumerate_involutions,
    grassmannian_blocks,
    is_bigrassmannian,
)
from grassperm.parity import (
    even_count,
    extend_to_even_size,
    extend_to_odd_size,
    odd_count,
)
from grassperm.patterns import (
    avoider_counts,
    catalan,
    class_automaton,
    count_avoiders_closed_form,
    enumerate_avoiders,
    finite_class_count,
    finite_class_formula,
    one_descent_patterns,
    weiner_formula,
)
from grassperm.perms import (
    Perm,
    check_cap,
    descent_positions,
    format_lehmer_code,
    format_permutation,
    inversion_count,
    is_involution,
    lehmer_decode,
    lehmer_encode,
    parse_lehmer_code,
    parse_permutation,
    shown,
)
from grassperm.schroder import code_to_word, enumerate_uudd_avoiding, word_to_code


def parse_range(text: str) -> range:
    """A single size ("7") or an inclusive span ("1..10")."""
    text = text.strip()
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            start, stop = int(lo), int(hi)
        else:
            start = stop = int(text)
    except ValueError:
        raise ValueError(f"bad range {shown(text)}; use N or LO..HI") from None
    if start > stop:
        raise ValueError(f"empty range {shown(text)}")
    return range(start, stop + 1)


def _needs(args: argparse.Namespace, flag: str) -> object:
    """args.flag, refused when unset, since the family needs it."""
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"{args.command} {args.family} needs --{flag}")
    return value


# ---------------------------------------------------------------- enum

# enum writes the families that come as items in blocks of about this
# many characters, so that its memory grows neither with the number of
# members nor with the length of a line
ENUM_CHUNK_CHARS = 1 << 20


def _write_blocks(blocks: Iterable[str], as_json: bool,
                  same_width: bool) -> int:
    """Write text made of whole lines to stdout a block at a time, as
    it is or as a JSON list of its lines equal to json.dumps of the
    whole list; return how many lines.  Text with same_width, every
    line as wide as the first, is not read again: its count is the
    characters written over the first line's width."""
    write = sys.stdout.write
    count = width = 0
    if not as_json:
        for block in blocks:
            write(block)
            if same_width:
                count += len(block)
                width = width or block.index("\n") + 1
            else:
                count += block.count("\n")
        return count // width if width else count
    # imported here and in cmd_count, so that the commands that print
    # no JSON skip its 2 ms import
    import json
    write("[")
    sep = ""
    for block in blocks:
        lines = block.splitlines()
        write(sep + json.dumps(lines)[1:-1])
        sep = ", "
        count += len(lines)
    write("]\n")
    return count


def _chunked(lines: Iterable[str]) -> Iterator[str]:
    """The lines, each followed by a newline, joined into blocks that
    end at the first line to reach ENUM_CHUNK_CHARS characters."""
    chunk: list[str] = []
    size = 0
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= ENUM_CHUNK_CHARS:
            yield "\n".join(chunk) + "\n"
            chunk, size = [], 0
    if chunk:
        yield "\n".join(chunk) + "\n"


# family -> its output as blocks of text (the walks' subtrees, else
# _chunked lines), in the order that enum --help lists
ENUM_FAMILIES: dict[str, Callable[[argparse.Namespace], Iterator[str]]] = {
    "grassmannian": lambda args: grassmannian_blocks(args.n, cap=args.cap),
    "bigrassmannian": lambda args: grassmannian_blocks(
        args.n, cap=args.cap, automaton=kernels.ONE_BA),
    "involutions": lambda args: _chunked(map(
        format_permutation, enumerate_involutions(args.n, cap=args.cap))),
    "avoiders": lambda args: grassmannian_blocks(
        args.n, cap=args.cap, automaton=class_automaton(
            parse_permutation(_needs(args, "pattern")))),
    "dyck": lambda args: dyck_path_blocks(
        args.n, grassmannian_only=args.grassmannian_only, cap=args.cap),
    "schroder": lambda args: _chunked(
        enumerate_uudd_avoiding(args.n, cap=args.cap)),
}


def cmd_enum(args: argparse.Namespace) -> int:
    blocks = ENUM_FAMILIES[args.family](args)
    # a line is a permutation of 1..n or a path of 2n steps, as wide as
    # any other, but for the Schroder words, which vary in length
    count = _write_blocks(blocks, args.format == "json",
                          args.family != "schroder")
    print(f"count: {count}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- count

# count refuses sizes above this: every column stays within seconds and
# every number far below int()'s 4300-digit printing limit
MAX_COUNT_SIZE = 1000


def _weight_column(weight: Callable[[Perm], int], sizes: range,
                   cap: int | None) -> Iterator[int]:
    """The summed weights of the size-n family for each n in sizes.
    The size-m members whose first value is at least 2 are the cores of
    sizes up to m, each followed by fixed points, so their weight, new,
    grows by the size-m cores' weights; the members 1 + q carry the
    total at m - 1 over.  So the weight must give 1 + q (1 put in front,
    the values of q raised) and q + 1 what it gives q.  The first size
    is checked against the cap and the kernels' size guard before any
    is walked, and each one as its walk is made."""
    check_cap(sizes[0], cap)
    kernels.check_scan_size(sizes[0])
    # sum, not weight((1,)): bool's total stays an int
    total = sum(map(weight, [(1,)]))
    new = 0
    for m in range(1, sizes[-1] + 1):
        kernels.check_scan_size(m)
        new += sum(map(weight, enumerate_grassmannian(
            m, cap=cap, automaton=kernels.CORES)))
        total += new
        if m in sizes:
            yield total


# family -> for the parsed args, its closed form (a size to its count)
# and its oracle column (a range of sizes to their counts, in order), in
# the order that count --help lists.  The involutions test each core for
# p == inverse(p), rather than list the shapes the closed form counts.
COUNT_FAMILIES: dict[str, Callable[[argparse.Namespace], tuple[
        Callable[[int], int], Callable[[range], Iterator[int]]]]] = {
    "grassmannian": lambda args: (
        count_grassmannian, partial(kernels.word_counts, kernels.ONE_DESCENT)),
    "bigrassmannian": lambda args: (
        count_bigrassmannian, partial(kernels.word_counts, kernels.ONE_BA)),
    # inclusion-exclusion: the family and its inverses are equally many,
    # and they share the biGrassmannian members
    "union-inverse": lambda args: (count_union_with_inverse, lambda sizes: map(
        lambda every, both: 2 * every - both,
        kernels.word_counts(kernels.ONE_DESCENT, sizes),
        kernels.word_counts(kernels.ONE_BA, sizes))),
    "involutions": lambda args: (
        count_involutions, partial(_weight_column, is_involution,
                                   cap=args.cap)),
    "avoiders": lambda args: (
        partial(count_avoiders_closed_form,
                sigma=(sigma := parse_permutation(_needs(args, "pattern")))),
        partial(avoider_counts, sigma, cap=args.cap)),
    "odd": lambda args: (
        odd_count, partial(kernels.word_counts, kernels.ODD)),
    "even": lambda args: (
        even_count, partial(kernels.word_counts, kernels.EVEN)),
    "descent-at": lambda args: (
        partial(count_descent_at, k=(k := _needs(args, "k"))),
        partial(kernels.word_counts, kernels.descent_at(k))),
    # a member of a size up to kernels.MAX_SCAN_SIZE, the largest a
    # column counts, avoids every longer 12...k alike
    "finite-class": lambda args: (
        partial(finite_class_formula, k=(k := _needs(args, "k"))),
        partial(avoider_counts, tuple(range(
            1, min(k, kernels.MAX_SCAN_SIZE + 1) + 1)))),
}


def cmd_count(args: argparse.Namespace) -> int:
    sizes = parse_range(args.n)
    if sizes.start < 1:
        raise ValueError("sizes start at 1")
    if sizes[-1] > MAX_COUNT_SIZE:
        raise ValueError(f"sizes end at {MAX_COUNT_SIZE}, got"
                         f" {shown(args.n.strip())}")
    formula, oracle = COUNT_FAMILIES[args.family](args)
    # The formula column comes first, up to its first refusal, and the
    # oracle runs only on the sizes before that.  A CSV or b-file row is
    # written as soon as its oracle value is known, so the first error a
    # row-by-row loop would meet (the oracle's, which the column raises
    # in row order, else the formula's refusal) ends the table after the
    # rows before it.  Before each oracle value after the first, stdout
    # is flushed, so that the rows before reach a pipe then and not at
    # exit.  A JSON document is written whole or not at all.
    formulas: list[int] = []
    refusal = None
    for n in sizes:
        try:
            formulas.append(formula(n))
        except ValueError as exc:
            refusal = exc
            break
    checked = sizes[:len(formulas)]
    column = oracle(checked) if args.oracle else None
    header = ["n", "formula"] + (["oracle", "agree"] if args.oracle else [])
    rows: list[dict[str, object]] = []
    for n, value in zip(checked, formulas):
        row: dict[str, object] = {"n": n, "formula": value}
        if column is not None:
            if rows:
                sys.stdout.flush()
            got = next(column)
            row.update(oracle=got, agree=value == got)
        rows.append(row)
        if args.format == "bfile":
            print(f"{n} {value}")
        elif args.format == "csv":
            if len(rows) == 1:
                print(",".join(header))
            print(",".join(str(row[key]).lower()
                           if key == "agree" else str(row[key])
                           for key in header))
    if refusal is not None:
        raise refusal
    if args.format == "json":
        import json
        print(json.dumps(rows))
    return 1 if any(row.get("agree") is False for row in rows) else 0


# ---------------------------------------------------------------- verify

class Sweep:
    """Collects formula-vs-oracle rows and the final verdict."""

    def __init__(self) -> None:
        self.failures = 0
        self.rows = 0

    def check(self, label: str, expected: object, got: object) -> None:
        self.rows += 1
        if expected == got:
            print(f"ok   {label}: {got}")
        else:
            self.failures += 1
            print(f"FAIL {label}: expected {expected}, got {got}")

    def finish(self, target: str) -> int:
        verdict = "all agree" if not self.failures else \
            f"{self.failures} mismatch(es)"
        print(f"{target}: {self.rows} checks, {verdict}", file=sys.stderr)
        return 1 if self.failures else 0


# A verify target returns an iterator of blocks, one per value of its
# outer loop, made as the sweep reaches them; a block is a generator of
# that value's (label, expected, got) rows, which runs nothing until the
# sweep iterates it, so that a large bound costs nothing before its
# first row.  cmd_verify checks the rows one by one, in order, in a
# single Sweep, and flushes stdout after each block, so that a block
# reaches a pipe once checked.
Row = tuple[str, object, object]

# verify prop21 and prop41 refuse sizes above this: both walk each
# size's whole family, about twice the cost of the size before.  prop21
# tests each member with is_bigrassmannian and walks the 2413 class
# beside it, about 2 s for a sweep to 18 on a 2-vCPU VM; prop41's image
# row holds the family twice and prints it, a peak RSS of 172 MB at 18
MAX_WALKED_SIZE = 18


def verify_weiner(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    def rows(k: int) -> Iterator[Row]:
        for m in range(k, 2 * k - 1):
            yield (f"rising k={k} m={m}", weiner_formula(m, k),
                   finite_class_count(m, k))
    return (rows(k) for k in range(2, args.kmax + 1))


def verify_theorem34(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    sizes = range(1, args.max_n + 1)

    def rows(sigma: Perm) -> Iterator[Row]:
        # one pass of the pattern's automaton over every size
        name = format_permutation(sigma)
        column = kernels.word_counts(kernels.avoiding(sigma), sizes)
        for n, got in zip(sizes, column):
            yield (f"sigma={name} n={n}",
                   count_avoiders_closed_form(n, sigma), got)
    # one pattern at a time, from walks all made here, so that a size
    # above the cap or the scan's is refused before any row
    walks = [one_descent_patterns(size)
             for size in range(3, args.max_size + 1)]
    if sizes:
        kernels.check_scan_size(sizes[-1])
    return (rows(sigma) for walk in walks for sigma in walk)


def verify_prop21(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    if args.max_n > MAX_WALKED_SIZE:
        raise ValueError("verify prop21 walks each size's family, so its"
                         f" sizes end at {MAX_WALKED_SIZE},"
                         f" got {MAX_WALKED_SIZE + 1}")

    def rows(n: int) -> Iterator[Row]:
        # the members that pass, from one walk of the family, in the
        # lexicographic order that the 2413 class is walked in
        both = list(filter(is_bigrassmannian, enumerate_grassmannian(n)))
        yield (f"count n={n}", count_bigrassmannian(n), len(both))
        yield (f"2413-avoidance n={n}", True,
               both == list(enumerate_avoiders(n, (2, 4, 1, 3))))
    return (rows(n) for n in range(1, args.max_n + 1))


def verify_prop22(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    def rows(n: int) -> Iterator[Row]:
        yield (f"n={n}", count_union_with_inverse(n),
               kernels.count_sn_avoiding_321_2143(n))
    return (rows(n) for n in range(1, args.max_n + 1))


def verify_prop23(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    def rows(n: int) -> Iterator[Row]:
        listed = list(enumerate_involutions(n))
        brute = list(filter(is_involution, enumerate_grassmannian(n)))
        yield (f"members n={n}", brute, listed)
        yield (f"count n={n}", count_involutions(n), len(listed))
    return (rows(n) for n in range(1, args.max_n + 1))


def verify_prop31(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    def rows(k: int) -> Iterator[Row]:
        yield (f"k={k} m={2 * k - 2}", catalan(k - 1),
               finite_class_count(2 * k - 2, k))
        if k >= 3:
            yield (f"k={k} m={2 * k - 3}", 2 * catalan(k - 1),
                   finite_class_count(2 * k - 3, k))
    return (rows(k) for k in range(2, args.kmax + 1))


def verify_prop41(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    if args.max_n > MAX_WALKED_SIZE:
        raise ValueError("verify prop41 holds each size's family in memory,"
                         f" so its sizes end at {MAX_WALKED_SIZE},"
                         f" got {MAX_WALKED_SIZE + 1}")

    def rows(n: int) -> Iterator[Row]:
        image = sorted(map(path_to_permutation,
                           enumerate_grassmannian_paths(n)))
        yield (f"path count n={n}", count_grassmannian(n), len(image))
        yield (f"image n={n}", list(enumerate_grassmannian(n)), image)
    return (rows(n) for n in range(1, args.max_n + 1))


def _verify_path_class(args: argparse.Namespace,
                       keep: Callable[[str, int], bool],
                       sigma_of: Callable[[int], Perm]
                       ) -> Iterator[Iterator[Row]]:
    def rows(k: int, n: int) -> Iterator[Row]:
        sigma = sigma_of(k)
        name = format_permutation(sigma)
        chosen = [p for p in enumerate_grassmannian_paths(n) if keep(p, k)]
        image = {path_to_permutation(p) for p in chosen}
        avoiders = set(enumerate_avoiders(n, sigma))
        yield (f"sigma={name} n={n} count",
               count_avoiders_closed_form(n, sigma), len(chosen))
        yield (f"sigma={name} n={n} image", True, image == avoiders)
    return (rows(k, n) for k in (3, 4, 5)
            for n in range(1, args.max_n + 1))


def verify_prop42(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    return _verify_path_class(
        args,
        lambda path, k: peaks_above_height_one(path) <= k - 2,
        lambda k: (k,) + tuple(range(1, k)))


def verify_prop43(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    return _verify_path_class(
        args,
        lambda path, k: max_height(path) <= k - 1,
        lambda k: tuple(range(2, k + 1)) + (1,))


def verify_prop46(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    sigma = (3, 5, 1, 2, 4)

    def rows(n: int) -> Iterator[Row]:
        words = list(enumerate_uudd_avoiding(n))
        codes = list(map(word_to_code, words))  # each word encoded once
        round_trips = all(code_to_word(c) == w for w, c in zip(words, codes))
        yield (f"round trip n={n}", True, round_trips)
        image = {lehmer_decode(c) for c in codes}
        avoiders = set(enumerate_avoiders(n + 1, sigma))
        yield (f"image n={n}", True, image == avoiders)
        yield (f"count n={n}",
               count_avoiders_closed_form(n + 1, sigma), len(words))
    return (rows(n) for n in range(0, args.max_n + 1))


def verify_thm51(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    # as in count: every row within seconds, every number far below
    # int()'s 4300-digit printing limit
    if args.max_n > MAX_COUNT_SIZE:
        raise ValueError(f"verify thm51 sizes end at {MAX_COUNT_SIZE},"
                         f" got {MAX_COUNT_SIZE + 1}")
    # the word counts of the odd members, and the core walk for the sizes
    # up to 14: one column each, a row per block
    words = kernels.word_counts(kernels.ODD, range(1, args.max_n + 1))
    odd: list[int] = []
    oracle_sizes = range(1, 15)
    column = _weight_column(lambda p: inversion_count(p) % 2, oracle_sizes,
                            None)

    def counts(n: int) -> Iterator[Row]:
        odd.append(next(words))
        yield (f"closed form n={n}", odd_count(n), odd[-1])
        if n > 2:
            # on the word count, so that the row checks an oracle and
            # not the closed form against itself
            yield (f"recurrence n={n}", 2 * odd[-3] + 2 ** (n - 2), odd[-1])
        if n in oracle_sizes:
            yield (f"oracle n={n}", odd_count(n), next(column))

    def odd_members(size: int) -> list[Perm]:
        return [p for p in enumerate_grassmannian(size)
                if inversion_count(p) % 2]

    # the odd members of size 2m + 2, walked for block m's psi target,
    # kept as block m + 1's xi source.  The xi sets are made in the row
    # and freed before that walk, so the kept list adds nothing to the
    # peak RSS
    kept: list[list[Perm]] = []

    def maps(m: int) -> Iterator[Row]:
        odd_down = kept.pop() if kept else odd_members(2 * m)
        odd_up = odd_members(2 * m + 1)
        yield (f"xi image m={m}", True,
               {extend_to_odd_size(p) for p in odd_down}
               == {p for p in odd_up if p[-1] != 2 * m + 1})
        images = {extend_to_even_size(p) for p in odd_up}
        kept.append(odd_members(2 * m + 2))
        yield (f"psi image m={m}", True, images == {
            p for p in kept[-1] if descent_positions(p)[0] % 2 == 0})
    return chain((counts(n) for n in range(1, args.max_n + 1)),
                 (maps(m) for m in range(1, 6)))


def verify_prop53(args: argparse.Namespace) -> Iterator[Iterator[Row]]:
    def rows(n: int) -> Iterator[Row]:
        bridged = all(
            inversion_count(path_to_permutation(path)) % 2
            == peaks_at_even_height(path) % 2
            for path in enumerate_grassmannian_paths(n))
        yield (f"n={n}", True, bridged)
    return (rows(n) for n in range(1, args.max_n + 1))


# target -> (blocks, one-line description, defaults of unset flags)
VERIFY_TARGETS: dict[str, tuple[Callable[[argparse.Namespace],
                                         Iterable[Iterator[Row]]], str,
                                dict[str, int]]] = {
    "weiner": (verify_weiner,
               "finite-class walk counts equal the alternating-sum formula",
               {"kmax": 10}),
    "theorem34": (verify_theorem34,
                  "one-descent pattern classes follow 1 + sum C(n,j-1)",
                  {"max_n": 10, "max_size": 5}),
    "prop21": (verify_prop21,
               "doubly one-descent members are the 2413-avoiders,"
               " 1 + C(n+1,3) many",
               {"max_n": 10}),
    "prop22": (verify_prop22,
               "family-plus-inverses count equals the two-pattern class",
               {"max_n": 10}),
    "prop23": (verify_prop23,
               "self-inverse members match the quadratic count",
               {"max_n": 10}),
    "prop31": (verify_prop31,
               "finite classes end in Catalan and twice-Catalan counts",
               {"kmax": 9}),
    "prop41": (verify_prop41,
               "single-long-ascent paths map onto the whole family",
               {"max_n": 9}),
    "prop42": (verify_prop42,
               "few-high-peak paths map onto k12...(k-1) avoiders",
               {"max_n": 9}),
    "prop43": (verify_prop43,
               "bounded-height paths map onto 23...k1 avoiders",
               {"max_n": 9}),
    "prop46": (verify_prop46,
               "flat-step words map onto 35124 avoiders via Lehmer codes",
               {"max_n": 9}),
    "thm51": (verify_thm51,
              "odd-count recurrence, closed form, oracle, and both"
              " size-raising maps",
              {"max_n": 40}),
    "prop53": (verify_prop53,
               "inversion parity equals even-height peak parity",
               {"max_n": 10}),
}


def cmd_verify(args: argparse.Namespace) -> int:
    blocks, _, defaults = VERIFY_TARGETS[args.target]
    for flag, value in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    sweep = Sweep()
    for block in blocks(args):
        for row in block:
            sweep.check(*row)
        sys.stdout.flush()
    if not sweep.rows:
        raise ValueError(f"verify {args.target} has no rows to check"
                         " in this range")
    return sweep.finish(args.target)


# ---------------------------------------------------------------- table

def cmd_table(args: argparse.Namespace) -> int:
    if args.which == "table1":
        if not 2 <= args.kmax <= 14:
            raise ValueError("table1 supports --kmax 2..14")
        for k in range(2, args.kmax + 1):
            row = [finite_class_count(m, k) for m in range(k, 2 * k - 1)]
            print(",".join([str(k)] + [str(v) for v in row]))
    else:
        for size in range(3, 11):
            sigma = tuple(range(2, size + 1)) + (1,)
            row = [count_avoiders_closed_form(n, sigma)
                   for n in range(1, 11)]
            print(",".join([str(size)] + [str(v) for v in row]))
    return 0


# ---------------------------------------------------------------- map

# direction -> (read the value, apply the bijection, write the image),
# in the order that map --help lists
MAPS: dict[str, tuple[Callable[[str], object], Callable, Callable]] = {
    "phi": (parse_dyck_path, path_to_permutation, format_permutation),
    "phi-inverse": (parse_permutation, permutation_to_path, str),
    "alpha": (str, word_to_code, format_lehmer_code),
    "alpha-inverse": (parse_lehmer_code, code_to_word, str),
    "lehmer-encode": (parse_permutation, lehmer_encode, format_lehmer_code),
    "lehmer-decode": (parse_lehmer_code, lehmer_decode, format_permutation),
    "xi": (parse_permutation, extend_to_odd_size, format_permutation),
    "psi": (parse_permutation, extend_to_even_size, format_permutation),
}


def cmd_map(args: argparse.Namespace) -> int:
    read, apply, write = MAPS[args.direction]
    print(write(apply(read(args.value))))
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassperm",
        description="Enumerate, count, verify, and map permutations"
                    " with at most one descent.")
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser(
        "enum", help="list a family, one element per line")
    enum.add_argument("family", choices=list(ENUM_FAMILIES))
    enum.add_argument("--n", type=int, required=True, help="size/semilength")
    enum.add_argument("--pattern", help="pattern for the avoiders family")
    enum.add_argument("--format", choices=["lines", "json"], default="lines")
    enum.add_argument("--grassmannian-only", action="store_true",
                      help="dyck family: only single-long-ascent paths")
    enum.add_argument("--cap", type=int, default=None,
                      help="raise the enumeration size cap (default 25)")
    enum.set_defaults(run=cmd_enum)

    count = sub.add_parser(
        "count", help="formula counts over a size range, CSV/JSON/b-file")
    count.add_argument("family", choices=list(COUNT_FAMILIES))
    count.add_argument("--n", required=True, help="size N or range LO..HI")
    count.add_argument("--pattern", help="pattern for the avoiders family")
    count.add_argument("--k", type=int,
                       help="descent position (descent-at) or rising-pattern"
                            " size (finite-class)")
    count.add_argument("--oracle", action="store_true",
                       help="add an independent count column and an agree"
                            " flag")
    count.add_argument("--format", choices=["csv", "json", "bfile"],
                       default="csv")
    count.add_argument("--cap", type=int, default=None,
                       help="raise the size cap of the oracles that"
                            " enumerate (default 25; they end at size"
                            f" {kernels.MAX_SCAN_SIZE})")
    count.set_defaults(run=cmd_count)

    verify = sub.add_parser(
        "verify", help="run a formula-vs-brute-force sweep")
    verify.add_argument("target", choices=sorted(VERIFY_TARGETS),
                        help="; ".join(f"{name}: {doc}" for name, (_, doc, _)
                                       in sorted(VERIFY_TARGETS.items())))
    for flag, what in (("kmax", "largest rising-pattern size"),
                       ("max_n", "largest size swept"),
                       ("max_size", "largest pattern size")):
        defaults = ", ".join(f"{name} default {values[flag]}"
                             for name, (_, _, values) in VERIFY_TARGETS.items()
                             if flag in values)
        verify.add_argument("--" + flag.replace("_", "-"), type=int,
                            help=f"{what} ({defaults})")
    verify.set_defaults(run=cmd_verify)

    table = sub.add_parser(
        "table", help="reproduce the two summary tables as CSV")
    table.add_argument("which", choices=["table1", "table2"])
    table.add_argument("--kmax", type=int, default=10,
                       help="table1: last rising-pattern size, 2..14"
                            " (default 10)")
    table.set_defaults(run=cmd_table)

    mapper = sub.add_parser(
        "map", help="apply one bijection to one value")
    mapper.add_argument("direction", choices=list(MAPS))
    mapper.add_argument("value", help="path, word, code, or permutation")
    mapper.set_defaults(run=cmd_map)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull so
        # that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
