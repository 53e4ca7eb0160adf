"""Rewrite the golden corpora in tests/golden from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

count.tsv, enum.tsv, map.tsv, verify.tsv and table.tsv each hold one
`grassperm` command of that subcommand a line: its argv (shell-quoted),
the exit code, the sha256 of its stdout and its stderr (as a JSON
string), tab-separated.  help.txt holds the --help text of `grassperm`
and of each subcommand, 80 columns wide, after a first line naming the
Python version that wrote it, as argparse's layout varies across
versions.
tests/test_golden.py runs every line in process and compares.  The
files are written only when this script is run by hand; a change that
alters a line says which line and why in CHANGES.md, as for any other
test change.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from unittest import mock

from grassperm import cli

FORMATS = ("csv", "json", "bfile")

# every count family over a small range, in every format, with and
# without --oracle
FAMILY_RANGES = [
    ["grassmannian", "--n", "1..12"],
    ["bigrassmannian", "--n", "1..12"],
    ["union-inverse", "--n", "1..12"],
    ["involutions", "--n", "1..12"],
    ["odd", "--n", "1..12"],
    ["even", "--n", "1..12"],
    ["descent-at", "--k", "2", "--n", "3..12"],
    ["finite-class", "--k", "4", "--n", "1..12"],
    ["avoiders", "--pattern", "2413", "--n", "1..12"],  # one descent
    ["avoiders", "--pattern", "4231", "--n", "1..10"],  # two descents
    ["avoiders", "--pattern", "1234", "--n", "1..12"],  # rising
]

MORE = [
    # the four count-oracle ranges of perfbench/run.py
    ["grassmannian", "--n", "1..18", "--oracle"],
    ["union-inverse", "--n", "1..17", "--oracle"],
    ["odd", "--n", "1..16", "--oracle"],
    ["bigrassmannian", "--n", "1..15", "--oracle"],
    ["union-inverse", "--n", "1..14", "--oracle", "--format", "json"],
    # descent-at at every small k, up to k = N - 1
    *(["descent-at", "--k", str(k), "--n", f"{k + 1}..14", "--oracle"]
      for k in (1, 3, 4, 5, 13)),
    ["descent-at", "--k", "5", "--n", "14..16", "--oracle"],
    # single sizes, starts above 1 and the largest sizes
    ["grassmannian", "--n", "7", "--oracle"],
    ["odd", "--n", "5..12", "--oracle"],
    ["even", "--n", "9..14", "--oracle", "--format", "json"],
    ["union-inverse", "--n", "990..1000"],
    ["odd", "--n", "1000", "--format", "bfile"],
    ["finite-class", "--k", "6", "--n", "1..26", "--oracle"],
    ["avoiders", "--pattern", "35124", "--n", "20..26", "--oracle"],
    # the enumeration cap, for each oracle family
    ["grassmannian", "--n", "3..8", "--oracle", "--cap", "5"],
    ["grassmannian", "--n", "3..8", "--oracle", "--cap", "5",
     "--format", "json"],
    ["grassmannian", "--n", "1..3", "--oracle", "--cap", "0"],
    ["grassmannian", "--n", "26..1000", "--oracle"],
    ["bigrassmannian", "--n", "4..9", "--oracle", "--cap", "6"],
    ["union-inverse", "--n", "5", "--oracle", "--cap", "4"],
    ["odd", "--n", "1..8", "--oracle", "--cap", "4", "--format", "bfile"],
    ["even", "--n", "26..30", "--oracle"],
    ["descent-at", "--k", "1", "--n", "2..8", "--oracle", "--cap", "4"],
    ["descent-at", "--k", "3", "--n", "26..28", "--oracle"],
    ["involutions", "--n", "3..8", "--oracle", "--cap", "5"],
    ["involutions", "--n", "26..1000", "--oracle"],
    ["avoiders", "--pattern", "4231", "--n", "5", "--oracle", "--cap", "4"],
    ["avoiders", "--pattern", "4231", "--n", "5", "--oracle", "--cap", "5"],
    ["grassmannian", "--n", "3", "--oracle", "--cap", "26"],
    # --cap has no ceiling; the scan bound ends the core walk, whatever
    # the cap
    ["grassmannian", "--n", "40", "--oracle", "--cap", "29"],
    ["odd", "--n", "3", "--oracle", "--cap", "29"],
    ["descent-at", "--k", "1", "--n", "2..3", "--oracle", "--cap", "29"],
    ["involutions", "--n", "3", "--oracle", "--cap", "29"],
    ["grassmannian", "--n", "3", "--cap", "29"],
    ["involutions", "--n", "27", "--oracle", "--cap", "30"],
    # the core walk with nodes above its completion tables
    ["involutions", "--n", "1..16", "--oracle"],
    # sizes: the count bound, the scan bound and bad ranges
    ["odd", "--n", "1001"],
    ["odd", "--n", "1..1001", "--oracle"],
    ["grassmannian", "--n", "1..100000000000"],
    ["grassmannian", "--n", "0..3"],
    ["grassmannian", "--n", "5..1"],
    ["grassmannian", "--n", "x"],
    ["finite-class", "--k", "4", "--n", "27", "--oracle"],
    ["finite-class", "--k", "4", "--n", "1..1000", "--oracle"],
    ["avoiders", "--pattern", "2413", "--n", "25..30", "--oracle"],
    ["descent-at", "--k", "5", "--n", "1..21", "--oracle"],
    ["descent-at", "--k", "0", "--n", "3"],
    ["avoiders", "--pattern", "", "--n", "3"],
    # missing flags
    ["avoiders", "--n", "1..5"],
    ["avoiders", "--n", "1..5", "--oracle"],
    ["descent-at", "--n", "6"],
    ["descent-at", "--n", "6", "--oracle"],
    ["finite-class", "--n", "3..5"],
    ["finite-class", "--n", "3..5", "--oracle"],
]


# enum: every family in both formats at the smallest sizes, around the
# switch from digits to commas (9, 10) and around the edge of the walk's
# completion tables
ENUM_FAMILIES = [
    ["grassmannian"],
    ["bigrassmannian"],
    ["involutions"],
    ["avoiders", "--pattern", "2413"],  # one descent
    ["avoiders", "--pattern", "4231"],  # two descents
    ["avoiders", "--pattern", "123"],  # rising
    ["dyck"],
    ["dyck", "--grassmannian-only"],
    ["schroder"],
]
ENUM_SIZES = ["1", "2", "8", "9", "10", "11"]

ENUM_MORE = [
    # the two enum-write commands of perfbench/run.py
    ["grassmannian", "--n", "19"],
    ["dyck", "--n", "12"],
    # larger sizes, JSON included
    ["grassmannian", "--n", "16"],
    ["grassmannian", "--n", "16", "--format", "json"],
    ["bigrassmannian", "--n", "14"],
    ["bigrassmannian", "--n", "14", "--format", "json"],
    ["involutions", "--n", "40", "--cap", "40", "--format", "json"],
    ["schroder", "--n", "20", "--format", "json"],
    # semilength 0, the one empty path or word
    ["dyck", "--n", "0"],
    ["dyck", "--n", "0", "--format", "json"],
    ["schroder", "--n", "0"],
    # the enumeration cap, also at 0 and for each family, and bad sizes
    ["grassmannian", "--n", "26", "--cap", "0"],
    *([*family, "--n", "26"] for family in ENUM_FAMILIES),
    ["grassmannian", "--n", "9", "--cap", "8"],
    ["grassmannian", "--n", "0"],
    ["involutions", "--n", "0"],
    ["dyck", "--n", "-1"],
    ["dyck", "--n", "0", "--grassmannian-only"],
    ["schroder", "--n", "-1"],
    # the pattern: missing, empty or not a permutation
    ["avoiders", "--n", "5"],
    ["avoiders", "--n", "5", "--format", "json"],
    ["avoiders", "--pattern", "", "--n", "5"],
    ["avoiders", "--pattern", "2213", "--n", "5"],
    # pattern classes of every shape left: the patterns of size 1 and
    # 2, a rising one below, at and above its size, the patterns of
    # prop46 and of prop42 and prop43 at k = 5, and another one-descent
    # pattern
    ["avoiders", "--pattern", "1", "--n", "3"],
    ["avoiders", "--pattern", "21", "--n", "5"],
    ["avoiders", "--pattern", "1234", "--n", "3"],
    ["avoiders", "--pattern", "1234", "--n", "4"],
    ["avoiders", "--pattern", "1234", "--n", "7"],
    ["avoiders", "--pattern", "35124", "--n", "10"],
    ["avoiders", "--pattern", "3412", "--n", "10"],
    ["avoiders", "--pattern", "51234", "--n", "9"],
    ["avoiders", "--pattern", "23451", "--n", "9"],
    ["avoiders", "--pattern", "35124", "--n", "9", "--format", "json"],
    # each pattern shape with nodes of the walk above its completion
    # tables, and a class that is empty
    ["avoiders", "--pattern", "2413", "--n", "20"],
    ["avoiders", "--pattern", "35124", "--n", "16", "--format", "json"],
    ["avoiders", "--pattern", "1,2,3,4,5,6,7,8,9,10", "--n", "13"],
    ["avoiders", "--pattern", "4231", "--n", "14"],
    ["avoiders", "--pattern", "123", "--n", "12"],
    # the biGrassmannian family and its pattern class, 2413, with nodes
    # above the completion tables, in the comma format
    ["bigrassmannian", "--n", "30", "--cap", "30"],
    ["bigrassmannian", "--n", "40", "--cap", "40", "--format", "json"],
    ["avoiders", "--pattern", "2413", "--n", "30", "--cap", "30"],
]

# map: every direction on a valid and an invalid value
MAP_VALUES = [
    ["phi", "UUUDDDUUDUDUUDDD"],
    ["phi", "U3D3UD"],
    ["phi", "UDDU"],
    ["phi-inverse", "2,3,1,7,4,5,8,6"],
    ["phi-inverse", "321"],
    ["alpha", "UHDUD"],
    ["alpha", "UFDUFD"],
    ["alpha", "UUDD"],
    ["alpha-inverse", "0,1,0,2"],
    ["alpha-inverse", "1,0"],
    ["lehmer-encode", "31524"],
    ["lehmer-encode", "1,1"],
    ["lehmer-decode", "2,0,2,0,0"],
    ["lehmer-decode", "0,3"],
    ["xi", "2413"],
    ["xi", "3412"],
    ["psi", "24513"],
    ["psi", "1423"],
]


# verify: every target at its defaults (made in commands from
# cli.VERIFY_TARGETS), then at a few bounds and at each refusal
VERIFY_MORE = [
    ["weiner", "--kmax", "2"],
    ["weiner", "--kmax", "14"],
    ["theorem34", "--max-n", "1", "--max-size", "3"],
    ["theorem34", "--max-n", "12", "--max-size", "6"],
    ["prop21", "--max-n", "1"],
    ["prop21", "--max-n", "12"],
    ["prop22", "--max-n", "14"],
    ["prop23", "--max-n", "14"],
    ["prop31", "--kmax", "2"],
    ["prop31", "--kmax", "14"],
    ["prop41", "--max-n", "1"],
    ["prop42", "--max-n", "2"],
    ["prop43", "--max-n", "2"],
    ["prop46", "--max-n", "0"],
    ["thm51", "--max-n", "0"],  # the map rows only
    ["thm51", "--max-n", "14"],  # the last oracle row
    ["thm51", "--max-n", "1000"],
    ["prop53", "--max-n", "11"],
    # an empty range
    ["weiner", "--kmax", "1"],
    ["theorem34", "--max-size", "2"],
    ["theorem34", "--max-n", "0"],
    ["prop21", "--max-n", "0"],
    ["prop22", "--max-n", "-1"],
    # the walked sizes, the count sizes and the scan bound
    ["prop21", "--max-n", "19"],
    ["prop21", "--max-n", "100000000"],
    ["prop41", "--max-n", "19"],
    ["thm51", "--max-n", "1001"],
    ["weiner", "--kmax", "15"],
    ["theorem34", "--max-n", "27"],
    ["prop31", "--kmax", "15"],
]

# table: both tables, and the --kmax bounds of table1 (table2 has none)
TABLES = [
    ["table1"],
    ["table2"],
    ["table1", "--kmax", "2"],
    ["table1", "--kmax", "14"],
    ["table1", "--kmax", "1"],
    ["table1", "--kmax", "15"],
    ["table2", "--kmax", "3"],
]


def commands() -> dict[str, list[list[str]]]:
    """The argv of every corpus line, by corpus file, in file order."""
    counts = [["count", *spec, *oracle, "--format", fmt]
              for spec in FAMILY_RANGES for oracle in ([], ["--oracle"])
              for fmt in FORMATS]
    counts += [["count", *spec] for spec in MORE]
    enums = [["enum", *family, "--n", n, "--format", fmt]
             for family in ENUM_FAMILIES for n in ENUM_SIZES
             for fmt in ("lines", "json")]
    enums += [["enum", *spec] for spec in ENUM_MORE]
    maps = [["map", *spec] for spec in MAP_VALUES]
    verifies = [["verify", target] for target in cli.VERIFY_TARGETS]
    verifies += [["verify", *spec] for spec in VERIFY_MORE]
    tables = [["table", *spec] for spec in TABLES]
    return {"count.tsv": counts, "enum.tsv": enums, "map.tsv": maps,
            "verify.tsv": verifies, "table.tsv": tables}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def line(argv: list[str], code: int, out: str, err: str) -> str:
    digest = hashlib.sha256(out.encode()).hexdigest()
    return "\t".join([shlex.join(argv), str(code), digest, json.dumps(err)])


def python_version() -> str:
    return "python {}.{}".format(*sys.version_info)


def help_text() -> str:
    """help.txt: the Python version, then each --help text after its
    command line."""
    out = io.StringIO()
    out.write(python_version() + "\n")
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out):
        for command in ([], ["enum"], ["count"], ["verify"], ["table"],
                        ["map"]):
            print(f"$ {shlex.join(['grassperm', *command, '--help'])}")
            with suppress(SystemExit):
                cli.main([*command, "--help"])
    return out.getvalue()


def main() -> None:
    for name, argvs in commands().items():
        lines = [line(argv, *run(argv)) for argv in argvs]
        corpus = Path(__file__).with_name(name)
        corpus.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} lines to {corpus}")
    Path(__file__).with_name("help.txt").write_text(help_text())
    print(f"wrote {Path(__file__).with_name('help.txt')}")


if __name__ == "__main__":
    main()
