"""Command line front end.

    grassperm enum grassmannian --n 3
    grassperm count avoiders --pattern 2413 --n 1..10 --oracle
    grassperm verify weiner --kmax 8
    grassperm table table1 --kmax 10
    grassperm map phi UUUDDDUUDUDUUDDD

Exit codes: 0 success, 1 verification mismatch or stdout closed before
the output was written (a broken pipe, as under "| head"), 2 invalid
input.
Data goes to stdout; counts and progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import islice

from grassperm import kernels
from grassperm.dyck import (
    enumerate_dyck_paths,
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
    grassmannian_lines,
    is_bigrassmannian,
    is_grassmannian,
    sole_descent,
)
from grassperm.parity import (
    even_count,
    extend_to_even_size,
    extend_to_odd_size,
    odd_count,
)
from grassperm.patterns import (
    catalan,
    contains_pattern,
    count_avoiders_by_scan,
    count_avoiders_closed_form,
    enumerate_avoiders,
    finite_class_count,
    finite_class_formula,
    one_descent_patterns,
    verify_weiner,
)
from grassperm.perms import (
    Perm,
    descent_positions,
    format_lehmer_code,
    format_permutation,
    inverse,
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


# ---------------------------------------------------------------- enum

# enum writes its output this many lines at a time, so that its memory
# stays bounded however large the family is
ENUM_CHUNK_LINES = 4096


def _write_stream(items: Iterable[str], as_json: bool) -> int:
    """Write the items to stdout, one per line or as a JSON list equal
    to json.dumps(list(items)), a chunk at a time; return how many."""
    write = sys.stdout.write
    items = iter(items)
    count = 0
    sep = ""
    if as_json:
        write("[")
    while chunk := list(islice(items, ENUM_CHUNK_LINES)):
        count += len(chunk)
        if as_json:
            write(sep + json.dumps(chunk)[1:-1])
            sep = ", "
        else:
            write("\n".join(chunk) + "\n")
    if as_json:
        write("]\n")
    return count


def cmd_enum(args: argparse.Namespace) -> int:
    n = args.n
    cap = args.cap
    if args.family == "avoiders":
        if args.pattern is None:
            raise ValueError("enum avoiders needs --pattern")
        sigma = parse_permutation(args.pattern)
        items: Iterable[str] = (
            format_permutation(p) for p in enumerate_avoiders(n, sigma, cap=cap))
    elif args.family == "grassmannian":
        items = grassmannian_lines(n, cap=cap)
    elif args.family == "bigrassmannian":
        items = (format_permutation(p)
                 for p in enumerate_grassmannian(n, cap=cap)
                 if is_bigrassmannian(p))
    elif args.family == "involutions":
        items = (format_permutation(p)
                 for p in enumerate_involutions(n, cap=cap))
    elif args.family == "dyck":
        walk = (enumerate_grassmannian_paths if args.grassmannian_only
                else enumerate_dyck_paths)
        items = walk(n, cap=cap)
    else:  # schroder
        items = enumerate_uudd_avoiding(n, cap=cap)

    count = _write_stream(items, args.format == "json")
    print(f"count: {count}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- count

# family -> (closed form, what one enumerated member adds to the
# independent count); count --oracle and the verify sweeps both read it
MEMBER_COUNTS: dict[str, tuple[Callable[[int], int],
                               Callable[[Perm], int]]] = {
    # every member is a non-empty tuple, so bool counts it as one
    "grassmannian": (count_grassmannian, bool),
    "bigrassmannian": (count_bigrassmannian, is_bigrassmannian),
    # inclusion-exclusion: inversion is a bijection, so the family and
    # its inverses are equally many, and they share the members whose
    # inverse also has at most one descent.  No set is kept, so a
    # member enumerated twice miscounts rather than being hidden.
    "union-inverse": (count_union_with_inverse,
                      lambda p: 2 - is_grassmannian(inverse(p))),
    "involutions": (count_involutions, is_involution),
    "odd": (odd_count, lambda p: inversion_count(p) % 2),
    "even": (even_count, lambda p: 1 - inversion_count(p) % 2),
}


def brute_count(family: str, n: int, cap: int | None = None) -> int:
    """The independent count of a MEMBER_COUNTS family: the weights of
    the enumerated size-n members, summed."""
    weight = MEMBER_COUNTS[family][1]
    return sum(map(weight, enumerate_grassmannian(n, cap=cap)))


def _count_family(args: argparse.Namespace) -> tuple[
        Callable[[int], int], Callable[[int], int]]:
    """Formula column and brute-force column for one family."""
    family = args.family
    if family in MEMBER_COUNTS:
        return (MEMBER_COUNTS[family][0],
                lambda n: brute_count(family, n, args.cap))
    if family == "descent-at":
        if args.k is None:
            raise ValueError("count descent-at needs --k")
        k = args.k
        return (lambda n: count_descent_at(n, k),
                lambda n: sum(sole_descent(p) == k
                              for p in enumerate_grassmannian(n, cap=args.cap)))
    if family == "finite-class":
        if args.k is None:
            raise ValueError("count finite-class needs --k")
        k = args.k
        return (lambda m: finite_class_formula(m, k),
                lambda m: finite_class_count(m, k))
    # avoiders
    if args.pattern is None:
        raise ValueError("count avoiders needs --pattern")
    sigma = parse_permutation(args.pattern)
    return (lambda n: count_avoiders_closed_form(n, sigma),
            lambda n: count_avoiders_by_scan(n, sigma))


def cmd_count(args: argparse.Namespace) -> int:
    sizes = parse_range(args.n)
    if sizes.start < 1:
        raise ValueError("sizes start at 1")
    formula, oracle = _count_family(args)
    rows = []
    mismatch = False
    for n in sizes:
        row: dict[str, object] = {"n": n, "formula": formula(n)}
        if args.oracle:
            row["oracle"] = oracle(n)
            row["agree"] = row["formula"] == row["oracle"]
            mismatch = mismatch or not row["agree"]
        rows.append(row)

    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "bfile":
        for row in rows:
            print(f"{row['n']} {row['formula']}")
    else:
        header = ["n", "formula"] + (["oracle", "agree"] if args.oracle else [])
        print(",".join(header))
        for row in rows:
            print(",".join(str(row[key]).lower()
                           if key == "agree" else str(row[key])
                           for key in header))
    return 1 if mismatch else 0


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


def verify_weiner_sweep(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for report in verify_weiner(args.kmax):
        sweep.check(f"{report.family} m={report.n}",
                    report.formula, report.oracle)
    return sweep.finish("weiner")


def verify_theorem34(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for size in range(3, args.max_size + 1):
        for sigma in one_descent_patterns(size):
            name = format_permutation(sigma)
            for n in range(1, args.max_n + 1):
                sweep.check(f"sigma={name} n={n}",
                            count_avoiders_closed_form(n, sigma),
                            count_avoiders_by_scan(n, sigma))
    return sweep.finish("theorem34")


def verify_prop21(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        sweep.check(f"count n={n}", count_bigrassmannian(n),
                    brute_count("bigrassmannian", n))
        same_class = all(
            is_bigrassmannian(p) == (not contains_pattern(p, (2, 4, 1, 3)))
            for p in enumerate_grassmannian(n))
        sweep.check(f"2413-avoidance n={n}", True, same_class)
    return sweep.finish("prop21")


def verify_prop22(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        if n <= kernels.MAX_FULL_SN_SIZE:
            oracle = kernels.count_sn_avoiding_321_2143(n)
        else:
            oracle = brute_count("union-inverse", n)
        sweep.check(f"n={n}", count_union_with_inverse(n), oracle)
    return sweep.finish("prop22")


def verify_prop23(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        listed = list(enumerate_involutions(n))
        brute = list(filter(is_involution, enumerate_grassmannian(n)))
        sweep.check(f"members n={n}", brute, listed)
        sweep.check(f"count n={n}", count_involutions(n), len(listed))
    return sweep.finish("prop23")


def verify_prop31(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for k in range(2, args.kmax + 1):
        sweep.check(f"k={k} m={2 * k - 2}", catalan(k - 1),
                    finite_class_count(2 * k - 2, k))
        if k >= 3:
            sweep.check(f"k={k} m={2 * k - 3}", 2 * catalan(k - 1),
                        finite_class_count(2 * k - 3, k))
    return sweep.finish("prop31")


def verify_prop41(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        paths = list(enumerate_grassmannian_paths(n))
        sweep.check(f"path count n={n}", count_grassmannian(n), len(paths))
        image = sorted(path_to_permutation(p) for p in paths)
        sweep.check(f"image n={n}", list(enumerate_grassmannian(n)), image)
    return sweep.finish("prop41")


def _verify_path_class(args: argparse.Namespace, target: str,
                       keep: Callable[[str, int], bool],
                       sigma_of: Callable[[int], tuple[int, ...]]) -> int:
    sweep = Sweep()
    for k in (3, 4, 5):
        sigma = sigma_of(k)
        name = format_permutation(sigma)
        for n in range(1, args.max_n + 1):
            chosen = [p for p in enumerate_grassmannian_paths(n)
                      if keep(p, k)]
            image = {path_to_permutation(p) for p in chosen}
            avoiders = set(enumerate_avoiders(n, sigma))
            sweep.check(f"sigma={name} n={n} count",
                        count_avoiders_closed_form(n, sigma), len(chosen))
            sweep.check(f"sigma={name} n={n} image", True, image == avoiders)
    return sweep.finish(target)


def verify_prop42(args: argparse.Namespace) -> int:
    return _verify_path_class(
        args, "prop42",
        lambda path, k: peaks_above_height_one(path) <= k - 2,
        lambda k: (k,) + tuple(range(1, k)))


def verify_prop43(args: argparse.Namespace) -> int:
    return _verify_path_class(
        args, "prop43",
        lambda path, k: max_height(path) <= k - 1,
        lambda k: tuple(range(2, k + 1)) + (1,))


def verify_prop46(args: argparse.Namespace) -> int:
    sweep = Sweep()
    sigma = (3, 5, 1, 2, 4)
    for n in range(0, args.max_n + 1):
        words = list(enumerate_uudd_avoiding(n))
        round_trips = all(code_to_word(word_to_code(w)) == w for w in words)
        sweep.check(f"round trip n={n}", True, round_trips)
        image = {lehmer_decode(word_to_code(w)) for w in words}
        avoiders = set(enumerate_avoiders(n + 1, sigma))
        sweep.check(f"image n={n}", True, image == avoiders)
        sweep.check(f"count n={n}",
                    count_avoiders_closed_form(n + 1, sigma), len(words))
    return sweep.finish("prop46")


def verify_thm51(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        sweep.check(f"closed form n={n}", odd_count(n),
                    kernels.count_odd_members(n))
        if n > 2:
            sweep.check(f"recurrence n={n}",
                        2 * odd_count(n - 2) + 2 ** (n - 2), odd_count(n))
        if n <= 14:
            sweep.check(f"oracle n={n}", odd_count(n), brute_count("odd", n))
    for m in range(1, 6):
        odd = [p for p in enumerate_grassmannian(2 * m)
               if inversion_count(p) % 2]
        images = {extend_to_odd_size(p) for p in odd}
        target = {p for p in enumerate_grassmannian(2 * m + 1)
                  if inversion_count(p) % 2 and p[-1] != 2 * m + 1}
        sweep.check(f"xi image m={m}", True, images == target)
        odd_up = [p for p in enumerate_grassmannian(2 * m + 1)
                  if inversion_count(p) % 2]
        images = {extend_to_even_size(p) for p in odd_up}
        target = {p for p in enumerate_grassmannian(2 * m + 2)
                  if inversion_count(p) % 2
                  and descent_positions(p)[0] % 2 == 0}
        sweep.check(f"psi image m={m}", True, images == target)
    return sweep.finish("thm51")


def verify_prop53(args: argparse.Namespace) -> int:
    sweep = Sweep()
    for n in range(1, args.max_n + 1):
        bridged = all(
            inversion_count(path_to_permutation(path)) % 2
            == peaks_at_even_height(path) % 2
            for path in enumerate_grassmannian_paths(n))
        sweep.check(f"n={n}", True, bridged)
    return sweep.finish("prop53")


# target -> (runner, one-line description, defaults of unset flags)
VERIFY_TARGETS: dict[str, tuple[Callable[[argparse.Namespace], int], str,
                                dict[str, int]]] = {
    "weiner": (verify_weiner_sweep,
               "finite-class walk counts equal the alternating-sum formula",
               {"kmax": 10}),
    "theorem34": (verify_theorem34,
                  "one-descent pattern classes follow 1 + sum C(n,j-1)",
                  {"max_n": 10}),
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
    runner, _, defaults = VERIFY_TARGETS[args.target]
    for flag, value in defaults.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    return runner(args)


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

def cmd_map(args: argparse.Namespace) -> int:
    direction = args.direction
    text = args.value
    if direction == "phi":
        print(format_permutation(path_to_permutation(parse_dyck_path(text))))
    elif direction == "phi-inverse":
        print(permutation_to_path(parse_permutation(text)))
    elif direction == "alpha":
        print(format_lehmer_code(word_to_code(text)))
    elif direction == "alpha-inverse":
        print(code_to_word(parse_lehmer_code(text)))
    elif direction == "lehmer-encode":
        print(format_lehmer_code(lehmer_encode(parse_permutation(text))))
    elif direction == "lehmer-decode":
        print(format_permutation(lehmer_decode(parse_lehmer_code(text))))
    elif direction == "xi":
        print(format_permutation(extend_to_odd_size(parse_permutation(text))))
    else:  # psi
        print(format_permutation(extend_to_even_size(parse_permutation(text))))
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
    enum.add_argument("family", choices=[
        "grassmannian", "bigrassmannian", "involutions", "avoiders",
        "dyck", "schroder"])
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
    count.add_argument("family", choices=[
        "grassmannian", "bigrassmannian", "union-inverse", "involutions",
        "avoiders", "odd", "even", "descent-at", "finite-class"])
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
                       help="raise the enumeration size cap (default 25)")
    count.set_defaults(run=cmd_count)

    verify = sub.add_parser(
        "verify", help="run a formula-vs-brute-force sweep")
    verify.add_argument("target", choices=sorted(VERIFY_TARGETS),
                        help="; ".join(f"{name}: {doc}" for name, (_, doc, _)
                                       in sorted(VERIFY_TARGETS.items())))
    verify.add_argument("--kmax", type=int, default=None,
                        help="largest rising-pattern size"
                             " (weiner default 10, prop31 default 9)")
    verify.add_argument("--max-n", type=int, default=None,
                        help="largest size swept (defaults per target)")
    verify.add_argument("--max-size", type=int, default=5,
                        help="largest pattern size (theorem34, default 5)")
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
    mapper.add_argument("direction", choices=[
        "phi", "phi-inverse", "alpha", "alpha-inverse",
        "lehmer-encode", "lehmer-decode", "xi", "psi"])
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
