"""End-to-end tests for the grassperm command line."""

import argparse
import io
import json
import math
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from grassperm import cli, kernels, patterns
from grassperm.dyck import dyck_path_blocks
from grassperm.grassmann import (
    TAIL_VALUES,
    count_bigrassmannian,
    count_involutions,
    enumerate_grassmannian,
    grassmannian_blocks,
    inverse_is_grassmannian,
    is_bigrassmannian,
    sole_descent,
)
from grassperm.parity import odd_count
from grassperm.patterns import (
    contains_pattern,
    enumerate_avoiders,
    finite_class_count,
    finite_class_formula,
    one_descent_patterns,
    weiner_formula,
)
from grassperm.perms import (
    direct_sum,
    format_permutation,
    inverse,
    inversion_count,
    is_involution,
    parse_permutation,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert cli.parse_range("7") == range(7, 8)
    assert cli.parse_range("1..10") == range(1, 11)
    assert cli.parse_range(" 2..4 ") == range(2, 5)
    for bad in ("", "x", "5..1", "1..x", "..", "1.."):
        with pytest.raises(ValueError):
            cli.parse_range(bad)


def test_enum_grassmannian_golden(capsys):
    code, out, err = run(capsys, "enum", "grassmannian", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["123", "132", "213", "231", "312"]
    assert err.strip() == "count: 5"


def test_enum_involutions(capsys):
    code, out, err = run(capsys, "enum", "involutions", "--n", "6")
    assert code == 0
    assert len(out.splitlines()) == 10
    assert out.splitlines()[0] == "123456"


def test_enum_avoiders_empty_class(capsys):
    code, out, err = run(capsys, "enum", "avoiders",
                         "--pattern", "123", "--n", "5")
    assert code == 0
    assert out == ""
    assert err.strip() == "count: 0"


def test_enum_json_format(capsys):
    code, out, _ = run(capsys, "enum", "grassmannian", "--n", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == ["123", "132", "213", "231", "312"]


def test_enum_json_is_json_dumps_of_the_list(capsys):
    # 16,370 members, more than one block of output
    members = [format_permutation(p) for p in enumerate_grassmannian(14)]
    assert len(members) > 2 ** TAIL_VALUES
    code, out, err = run(capsys, "enum", "grassmannian", "--n", "14",
                         "--format", "json")
    assert code == 0
    assert out == json.dumps(members) + "\n"
    assert err == f"count: {len(members)}\n"
    code, out, err = run(capsys, "enum", "grassmannian", "--n", "14")
    assert code == 0
    assert out == "\n".join(members) + "\n"
    code, out, err = run(capsys, "enum", "avoiders", "--pattern", "123",
                         "--n", "5", "--format", "json")
    assert code == 0
    assert out == json.dumps([]) + "\n"
    assert err == "count: 0\n"


class ClosedPipe:
    """A stdout whose reader has gone: every write fails.  Its fileno
    is a real descriptor, which main points at os.devnull."""

    def __init__(self, sink):
        self.sink = sink

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return self.sink.fileno()


def test_enum_streams_into_a_closed_pipe(monkeypatch):
    pulled = 0
    blocks = cli.grassmannian_blocks

    def counted(n, *, cap=None):
        nonlocal pulled
        for block in blocks(n, cap=cap):
            pulled += block.count("\n")
            yield block

    monkeypatch.setattr(cli, "grassmannian_blocks", counted)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink))
        code = cli.main(["enum", "grassmannian", "--n", "20"])
    assert code == 1
    # the first block fails to write; the walk is not run to its end
    assert 0 < pulled <= 2 ** TAIL_VALUES < 2 ** 20 - 20


def test_enum_dyck(capsys):
    code, out, _ = run(capsys, "enum", "dyck", "--n", "3")
    assert code == 0
    assert sorted(out.split()) == [
        "UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD"]
    code, out, _ = run(capsys, "enum", "dyck", "--n", "4",
                       "--grassmannian-only")
    assert code == 0
    assert len(out.split()) == 2 ** 4 - 4


@pytest.mark.parametrize("n", [1, 2, 9, 10, 13])
def test_enum_counts_the_lines_of_its_blocks(capsys, n):
    catalan = math.comb(2 * n, n) // (n + 1)
    for argv, count in ((["grassmannian"], 2 ** n - n),
                        (["dyck"], catalan),
                        (["dyck", "--grassmannian-only"], 2 ** n - n)):
        code, out, err = run(capsys, "enum", *argv, "--n", str(n))
        assert code == 0
        assert out.count("\n") == count, argv
        assert err == f"count: {count}\n", argv


@pytest.mark.parametrize("argv", [
    ["involutions", "--n", "5000", "--cap", "5000"],
    ["schroder", "--n", "20000", "--cap", "20000"],
], ids=" ".join)
def test_enum_blocks_are_bounded_by_characters(argv):
    # lines of 24 and 20 to 40 kB: 4096 of them made a block of 93 MiB
    # and a peak of 281 MiB before the first write
    args = cli.build_parser().parse_args(["enum", *argv])
    tracemalloc.start()
    try:
        block = next(cli.ENUM_FAMILIES[args.family](args))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli.ENUM_CHUNK_CHARS <= len(block) < 2 * cli.ENUM_CHUNK_CHARS
    assert block.endswith("\n")
    assert peak < 8 * cli.ENUM_CHUNK_CHARS, peak


@pytest.mark.parametrize("argv", [
    ["schroder", "--n", "7"],
    ["involutions", "--n", "30", "--cap", "30"],
    ["bigrassmannian", "--n", "9"],
    ["avoiders", "--pattern", "2413", "--n", "8"],
], ids=" ".join)
def test_enum_output_does_not_depend_on_the_block_size(capsys, monkeypatch,
                                                      argv):
    for fmt in ("lines", "json"):
        whole = run(capsys, "enum", *argv, "--format", fmt)
        monkeypatch.setattr(cli, "ENUM_CHUNK_CHARS", 50)
        args = cli.build_parser().parse_args(["enum", *argv])
        assert len(list(cli.ENUM_FAMILIES[args.family](args))) > 2
        assert run(capsys, "enum", *argv, "--format", fmt) == whole, fmt
        monkeypatch.undo()


def test_enum_schroder(capsys):
    code, out, _ = run(capsys, "enum", "schroder", "--n", "2")
    assert code == 0
    words = out.split()
    assert words[0] == "HH"
    assert len(words) == 5
    assert "UUDD" not in words


def test_enum_errors(capsys):
    assert run(capsys, "enum", "avoiders", "--n", "5") == (
        2, "", "error: enum avoiders needs --pattern\n")
    code, _, err = run(capsys, "enum", "grassmannian", "--n", "0")
    assert code == 2
    assert err.startswith("error:")


def test_count_csv_with_oracle(capsys):
    code, out, _ = run(capsys, "count", "avoiders",
                       "--pattern", "2413", "--n", "1..10", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,formula,oracle,agree"
    assert lines[-1] == "10,166,166,true"
    assert len(lines) == 11


def test_count_csv_plain(capsys):
    code, out, _ = run(capsys, "count", "grassmannian", "--n", "1..5")
    assert code == 0
    assert out.splitlines() == [
        "n,formula", "1,1", "2,2", "3,5", "4,12", "5,27"]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "odd", "--n", "1..10",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["formula"] for r in rows] == [
        0, 1, 2, 6, 12, 28, 56, 120, 240, 496]


def test_count_finite_class(capsys):
    code, out, _ = run(capsys, "count", "finite-class",
                       "--k", "3", "--n", "3..5", "--oracle")
    assert code == 0
    assert out.splitlines()[1:] == ["3,4,4,true", "4,2,2,true", "5,0,0,true"]


# an automaton that counts -1 at every size: its words all die, and
# it takes one off
def counts_minus_one(sigma):
    return 0, lambda state, letter: None, lambda state: True, lambda n: 1


def test_finite_class_oracle_is_independent(capsys, monkeypatch):
    # a wrong automaton must show at every size, the closed form's
    # special cases m <= k and m >= 2k - 1 included
    monkeypatch.setattr(kernels, "avoiding", counts_minus_one)
    for sizes in ("1..3", "4", "7..8"):
        code, out, _ = run(capsys, "count", "finite-class",
                           "--k", "4", "--n", sizes, "--oracle")
        assert code == 1, sizes
        assert all(line.endswith(",-1,false")
                   for line in out.splitlines()[1:]), sizes


@pytest.mark.parametrize("k", range(1, 8))
def test_finite_class_is_the_rising_avoiders_class(capsys, k):
    # finite-class --k k and avoiders --pattern 12...k are one class,
    # counted by one column, refusals included
    pattern = "".join(map(str, range(1, k + 1)))
    for oracle in ([], ["--oracle"]):
        for fmt in ("csv", "json", "bfile"):
            tail = ["--n", "1..30", *oracle, "--format", fmt]
            finite = run(capsys, "count", "finite-class", "--k", str(k),
                         *tail)
            assert finite == run(capsys, "count", "avoiders", "--pattern",
                                 pattern, *tail), (oracle, fmt)
            assert finite[0] == (2 if oracle else 0), (oracle, fmt)


def test_finite_class_oracle_cost_is_bounded_in_k(capsys):
    # no member the column counts has a rising subsequence longer than
    # the scan bound, so a longer pattern is cut there, not built whole
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "finite-class", "--k", "1000000000",
                       "--n", "1..5", "--oracle")
    assert time.perf_counter() - start < 0.5
    assert (code, out.splitlines()[1:]) == (0, [
        f"{n},{2 ** n - n},{2 ** n - n},true" for n in range(1, 6)])


def test_finite_class_oracle_refuses_beyond_scan_size(capsys):
    n = kernels.MAX_SCAN_SIZE + 1
    code, _, err = run(capsys, "count", "finite-class",
                       "--k", "4", "--n", str(n), "--oracle")
    assert code == 2
    assert err.startswith("error:")
    code, out, _ = run(capsys, "count", "finite-class",
                       "--k", "4", "--n", str(n))
    assert code == 0
    assert out.splitlines()[1] == f"{n},0"


def test_union_oracle_matches_set_union():
    args = cli.build_parser().parse_args(["count", "union-inverse", "--n",
                                          "1..11"])
    column = cli.COUNT_FAMILIES["union-inverse"](args)[1](range(1, 12))
    for n, got in zip(range(1, 12), column):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        assert got == brute_count("union-inverse", n) == len(union), n


def test_involution_oracle_flags_a_repeated_core(capsys, monkeypatch):
    # the column sums a weight per core and keeps no set, so a walk that
    # yields a core twice miscounts rather than being hidden: the first
    # core of each size comes twice, and the size-2 one, (2, 1), is an
    # involution
    def repeating(n, *, cap=None, automaton=kernels.ONE_DESCENT):
        assert automaton is kernels.CORES
        members = list(enumerate_grassmannian(n, cap=cap,
                                              automaton=automaton))
        return iter(members[:1] + members)
    monkeypatch.setattr(cli, "enumerate_grassmannian", repeating)
    code, out, _ = run(capsys, "count", "involutions", "--n", "4",
                       "--oracle")
    assert code == 1
    assert out.splitlines()[1].endswith(",false")


def test_involution_oracle_is_independent(capsys, monkeypatch):
    # the oracle filters the family by p == inverse(p); the structured
    # enumerator builds the very shapes that the closed form counts
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used enumerate_involutions")
    monkeypatch.setattr(cli, "enumerate_involutions", refuse)
    code, out, _ = run(capsys, "count", "involutions", "--n", "1..8",
                       "--oracle")
    assert code == 0
    assert out.splitlines() == ["n,formula,oracle,agree"] + [
        f"{n},{count_involutions(n)},{count_involutions(n)},true"
        for n in range(1, 9)]


def test_bigrassmannian_oracles_are_independent(capsys, monkeypatch):
    # verify prop21 filters the family by is_bigrassmannian, while count
    # --oracle and enum walk the ONE_BA automaton: a wrong automaton
    # fails the count column and leaves prop21 agreeing
    start, step, accepts, surplus = kernels.ONE_BA
    monkeypatch.setattr(kernels, "ONE_BA",
                        (start, second_ba_lives(step), accepts, surplus))
    code, out, err = run(capsys, "verify", "prop21")
    assert (code, err) == (0, "prop21: 20 checks, all agree\n")
    code, out, _ = run(capsys, "count", "bigrassmannian", "--n", "1..9",
                       "--oracle")
    assert code == 1
    assert ",false" in out


def test_enum_bigrassmannian_cost_is_bounded(capsys):
    # the ONE_BA words are walked, not filtered from the 2^n - n
    # members: size 23 took 13 s as a filter
    start = time.perf_counter()
    code, out, err = run(capsys, "enum", "bigrassmannian", "--n", "25")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, f"count: {count_bigrassmannian(25)}\n")
    assert out.splitlines()[-1] == ",".join(map(str, [25, *range(1, 25)]))


def test_enum_multi_descent_avoiders_cost_is_bounded(capsys):
    # the whole family avoids a pattern with two or more descents, so it
    # is listed without a test per member: size 18 took 18 s as a filter
    start = time.perf_counter()
    avoiders = run(capsys, "enum", "avoiders", "--pattern", "3142",
                   "--n", "18")
    assert time.perf_counter() - start < 3
    assert avoiders == run(capsys, "enum", "grassmannian", "--n", "18")


def test_enum_multi_descent_avoiders_are_the_family_text(capsys,
                                                        monkeypatch):
    # every class's text comes from the grassmannian walk, with no
    # permutation formatted one at a time: a pattern with two or more
    # descents gives the family, the others their class, 123's empty
    def refuse(p):
        raise AssertionError("enum avoiders formatted a permutation")
    family = run(capsys, "enum", "grassmannian", "--n", "11")
    monkeypatch.setattr(cli, "format_permutation", refuse)
    assert run(capsys, "enum", "avoiders", "--pattern", "3142",
               "--n", "11") == family
    monkeypatch.undo()
    for pattern in ("2413", "123", "35124", "3142"):
        lines = [format_permutation(p) for p in enumerate_avoiders(
            12, parse_permutation(pattern))]
        count = f"count: {len(lines)}\n"
        monkeypatch.setattr(cli, "format_permutation", refuse)
        assert run(capsys, "enum", "avoiders", "--pattern", pattern,
                   "--n", "12") == (0, "".join(f"{line}\n" for line in lines),
                                    count)
        assert run(capsys, "enum", "avoiders", "--pattern", pattern,
                   "--n", "12", "--format", "json") == (
            0, json.dumps(lines) + "\n", count)
        monkeypatch.undo()


def test_enum_avoiders_cost_follows_the_output(capsys):
    # the class is walked on its automaton's live words: a filter of the
    # 2^20 - 20 members took 22 s
    start = time.perf_counter()
    code, out, err = run(capsys, "enum", "avoiders", "--pattern", "2413",
                         "--n", "20")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "count: 1331\n")
    lines = out.splitlines()
    assert lines[0] == ",".join(map(str, range(1, 21)))
    assert lines[-1] == ",".join(map(str, [20, *range(1, 20)]))
    assert len(set(lines)) == 1331


@pytest.mark.parametrize("target", ["prop21", "prop42", "prop43", "prop46"])
def test_avoider_sweeps_test_no_member_for_the_pattern(capsys, monkeypatch,
                                                       target):
    # their avoider sets come from the class walk, not contains_pattern,
    # wherever it is bound
    def refuse(p, sigma):
        raise AssertionError("contains_pattern was called")
    for module in (patterns, cli):
        monkeypatch.setattr(module, "contains_pattern", refuse, raising=False)
    code, out, err = run(capsys, "verify", target)
    assert (code, err) == (
        0, f"{target}: {DEFAULT_ROWS[target]} checks, all agree\n")


def test_planted_class_walk_fault_fails_prop43(capsys, monkeypatch):
    # a pattern automaton that reads each letter as the other one walks
    # another class: the image rows must fail, the count rows not
    avoiding = kernels.avoiding

    def swapped(sigma):
        start, step, accepts, surplus = avoiding(sigma)
        return (start, lambda state, letter: step(
            state, "B" if letter == "A" else "A"), accepts, surplus)
    monkeypatch.setattr(kernels, "avoiding", swapped)
    code, out, _ = run(capsys, "verify", "prop43", "--max-n", "6")
    assert code == 1
    failed = [row.split(":")[0] for row in out.splitlines()
              if row.startswith("FAIL")]
    assert failed and all(row.endswith(" image") for row in failed)


def test_multi_descent_avoider_oracle_is_independent(capsys, monkeypatch):
    # the count scan tests each member itself, so it checks the fact that
    # enumerate_avoiders relies on
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used enumerate_avoiders")
    monkeypatch.setattr(patterns, "enumerate_avoiders", refuse)
    monkeypatch.setattr(cli, "enumerate_avoiders", refuse)
    code, out, _ = run(capsys, "count", "avoiders", "--pattern", "4231",
                       "--n", "1..9", "--oracle")
    assert code == 0
    assert out.splitlines() == ["n,formula,oracle,agree"] + [
        f"{n},{2 ** n - n},{2 ** n - n},true" for n in range(1, 10)]


def test_verify_oracle_rows_walk_the_cores(capsys, monkeypatch):
    # the oracle rows of thm51 weigh the cores with the weight written
    # at their call, and prop21's count rows weigh the members its 2413
    # rows walk: a wrong weight must show in them.  Only on size 13,
    # which no map row of thm51 walks
    monkeypatch.setattr(cli, "inversion_count",
                        lambda p: inversion_count(p) + (len(p) == 13))
    code, out, _ = run(capsys, "verify", "thm51", "--max-n", "14")
    assert code == 1
    assert [row.split(":")[0] for row in out.splitlines()
            if row.startswith("FAIL")] == ["FAIL oracle n=13",
                                           "FAIL oracle n=14"]
    monkeypatch.setattr(cli, "is_bigrassmannian",
                        lambda p: not is_bigrassmannian(p))
    code, out, _ = run(capsys, "verify", "prop21", "--max-n", "3")
    assert code == 1
    assert "FAIL count n=3" in out


def test_thm51_closed_form_rows_use_the_word_count(capsys, monkeypatch):
    # the closed form rows compare odd_count with the word count, so a
    # wrong automaton must fail them, also where no enumeration oracle
    # runs
    start, step, _, surplus = kernels.ODD
    monkeypatch.setattr(kernels, "ODD", (start, step, lambda state: True,
                                         surplus))
    code, out, _ = run(capsys, "verify", "thm51")
    assert code == 1
    assert "FAIL closed form n=40: expected" in out
    assert "ok   oracle n=14" in out


def test_thm51_recurrence_rows_check_the_word_count(capsys, monkeypatch):
    # both sides of a recurrence row come from the word count, so a
    # count wrong at n = 10 fails the rows n = 10 and n = 12
    right = kernels.word_counts

    def wrong_at_10(automaton, sizes):
        for n, count in zip(sizes, right(automaton, sizes)):
            yield count + (n == 10)
    monkeypatch.setattr(kernels, "word_counts", wrong_at_10)
    code, out, _ = run(capsys, "verify", "thm51", "--max-n", "14")
    assert code == 1
    assert [row.split(":")[0] for row in out.splitlines()
            if row.startswith("FAIL")] == [
        "FAIL closed form n=10", "FAIL recurrence n=10",
        "FAIL recurrence n=12"]


def test_count_descent_at(capsys):
    code, out, _ = run(capsys, "count", "descent-at",
                       "--k", "2", "--n", "6", "--oracle")
    assert code == 0
    assert out.splitlines()[1] == "6,14,14,true"


def test_count_input_errors(capsys):
    for argv, message in (
        (["avoiders", "--n", "1..5"], "count avoiders needs --pattern"),
        (["descent-at", "--n", "6"], "count descent-at needs --k"),
        (["finite-class", "--n", "3..5"], "count finite-class needs --k"),
        (["grassmannian", "--n", "5..1"], "empty range '5..1'"),
        (["grassmannian", "--n", "0..3"], "sizes start at 1"),
    ):
        assert run(capsys, "count", *argv) == (2, "", f"error: {message}\n")


def test_count_refuses_sizes_above_the_bound(capsys):
    # refused before any row is computed, so nothing reaches stdout
    for n in ("1001", "1..1001", "1..100000000000"):
        code, out, err = run(capsys, "count", "odd", "--n", n)
        assert (code, out) == (2, ""), n
        assert err.startswith(f"error: sizes end at {cli.MAX_COUNT_SIZE}")
    code, out, _ = run(capsys, "count", "grassmannian", "--n",
                       str(cli.MAX_COUNT_SIZE))
    assert code == 0
    assert out.splitlines()[1] == f"1000,{2 ** 1000 - 1000}"


def test_count_oracle_caps_end_at_the_scan_bound(capsys, monkeypatch):
    # the cap bounds only the core walk and the multi-descent scan, and
    # the scan bound ends both: a larger cap is taken, and changes nothing
    for argv in (["grassmannian", "--n", "40"], ["odd", "--n", "3"],
                 ["descent-at", "--k", "1", "--n", "2..3"],
                 ["involutions", "--n", "3"]):
        code, out, err = run(capsys, "count", *argv, "--oracle", "--cap", "29")
        assert (code, err) == (0, ""), argv
        assert all(line.endswith(",true") for line in out.splitlines()[1:])
    # the core walk refuses a first size above the bound before any walk
    start = time.perf_counter()
    assert run(capsys, "count", "involutions", "--n", "27", "--oracle",
               "--cap", "30") == (2, "", "error: scan size 27 outside 1..26\n")
    assert time.perf_counter() - start < 0.5
    # and both enumerating oracles print the rows up to the bound, then
    # refuse the next size
    monkeypatch.setattr(kernels, "MAX_SCAN_SIZE", 8)
    for argv in (["involutions", "--n", "3..12"],
                 ["avoiders", "--pattern", "4231", "--n", "3..12"]):
        code, out, err = run(capsys, "count", *argv, "--oracle", "--cap", "30")
        assert (code, err) == (2, "error: scan size 9 outside 1..8\n"), argv
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            str(n) for n in range(3, 9)], argv
        assert all(line.endswith(",true") for line in out.splitlines()[1:])
    # without --oracle the cap is unused; enum streams, so keeps no ceiling
    code, _, _ = run(capsys, "count", "grassmannian", "--n", "3", "--cap",
                     "29")
    assert code == 0
    code, _, err = run(capsys, "enum", "grassmannian", "--n", "3",
                       "--cap", "40")
    assert (code, err) == (0, "count: 5\n")


@pytest.fixture
def no_fork(monkeypatch):
    """Make os.fork raise, so that a command that forks fails."""
    def refuse():
        raise AssertionError("forked a child")
    monkeypatch.setattr(os, "fork", refuse)


def test_member_weights_ignore_a_fixed_first_value():
    # the core walk counts the size-n members 1 + q with the weights of
    # their q, so every weight it takes must give 1 + q what it gives q
    def invariant(weight):
        return all(weight(direct_sum((1,), q)) == weight(q)
                   for n in range(1, 11) for q in enumerate_grassmannian(n))
    for family, weight in WEIGHTS.items():
        assert invariant(weight), family
    assert not invariant(lambda p: p[0] == 1)


def test_member_weights_ignore_a_fixed_last_value():
    # the column pads each core with fixed points at the end too, so
    # every weight must give q + 1 (q, then its size + 1) what it gives q
    def invariant(weight):
        return all(weight(direct_sum(q, (1,))) == weight(q)
                   for n in range(1, 11) for q in enumerate_grassmannian(n))
    for family, weight in WEIGHTS.items():
        assert invariant(weight), family
    assert not invariant(lambda p: p[-1] == len(p))


def test_oracle_column_weighs_each_core_once(capsys, monkeypatch):
    # a column ending at 12 weighs (1,) and the 2^11 - 1 cores of sizes
    # 2..12, each once, and not every member of every size
    weighed = []

    def counted(p):
        weighed.append(p)
        return is_involution(p)
    monkeypatch.setattr(cli, "is_involution", counted)
    code, out, _ = run(capsys, "count", "involutions", "--n", "1..12",
                       "--oracle")
    assert code == 0
    count = count_involutions(12)
    assert out.splitlines()[-1] == f"12,{count},{count},true"
    assert len(weighed) == len(set(weighed)) == 2 ** 11


# the count families that take --k or --pattern
FLAGGED = ("descent-at", "finite-class", "avoiders")

ORACLE_COUNTS = [
    *([family, "--n", "1..9"] for family in cli.COUNT_FAMILIES
      if family not in FLAGGED),
    ["descent-at", "--k", "2", "--n", "3..10"],
    ["descent-at", "--k", "1", "--n", "2..9"],
    ["descent-at", "--k", "8", "--n", "9"],  # k = N - 1
    ["descent-at", "--k", "3", "--n", "6..9"],
    ["finite-class", "--k", "4", "--n", "1..9"],
    ["avoiders", "--pattern", "2413", "--n", "1..9"],  # one descent
    ["avoiders", "--pattern", "4231", "--n", "1..9"],  # two descents
]


# what one member adds to the count of each count family that takes
# no flag
WEIGHTS = {
    # every member is a non-empty tuple, so bool counts it as one
    "grassmannian": bool,
    "bigrassmannian": is_bigrassmannian,
    # the family and its inverses, less the members in both
    "union-inverse": lambda p: 2 - inverse_is_grassmannian(p),
    "involutions": is_involution,
    "odd": lambda p: inversion_count(p) % 2,
    "even": lambda p: 1 - inversion_count(p) % 2,
}


def brute_count(family, n):
    """The count of a family of WEIGHTS as one enumeration of the
    whole size-n family: the weights of its members, summed."""
    return sum(map(WEIGHTS[family], enumerate_grassmannian(n)))


def per_row_oracle(args):
    """The oracle of count args as one enumeration of the whole family
    per row, as the column does not compute it."""
    members = enumerate_grassmannian
    if args.family not in FLAGGED:
        return lambda n: brute_count(args.family, n)
    if args.family == "descent-at":
        return lambda n: sum(sole_descent(p) == args.k for p in members(n))
    if args.family == "finite-class":
        rising = tuple(range(1, args.k + 1))
        return lambda n: sum(not contains_pattern(p, rising)
                             for p in members(n))
    sigma = parse_permutation(args.pattern)
    return lambda n: sum(not contains_pattern(p, sigma) for p in members(n))


@pytest.mark.parametrize("argv", ORACLE_COUNTS, ids=" ".join)
def test_oracle_column_matches_one_walk_per_row(capsys, argv):
    # the column, each row built from the one before, prints what one
    # enumeration per row gives, in every format: on the listed sizes
    # and on those from the same start to 12
    start = argv[-1].split("..")[0]
    for sizes in (argv[-1], f"{start}..12"):
        command = ["count", *argv[:-1], sizes, "--oracle"]
        args = cli.build_parser().parse_args(command)
        formula = cli.COUNT_FAMILIES[args.family](args)[0]
        oracle = per_row_oracle(args)
        rows = [{"n": n, "formula": formula(n), "oracle": oracle(n)}
                for n in cli.parse_range(sizes)]
        for row in rows:
            row["agree"] = row["formula"] == row["oracle"]
        expected = {
            "csv": "n,formula,oracle,agree\n" + "".join(
                f"{r['n']},{r['formula']},{r['oracle']},"
                f"{str(r['agree']).lower()}\n" for r in rows),
            "json": json.dumps(rows) + "\n",
            "bfile": "".join(f"{r['n']} {r['formula']}\n" for r in rows),
        }
        for fmt, out in expected.items():
            assert run(capsys, *command, "--format", fmt) == (0, out, ""), \
                (sizes, fmt)


def b_ends_the_word(step):
    return lambda state, letter: None if letter == "B" else step(state, letter)


def second_ba_lives(step):
    return lambda state, letter: ((letter, True) if state[0] + letter == "BA"
                                  else step(state, letter))


def a_adds_no_inversions(step):
    return lambda state, letter: state if letter == "A" else step(state,
                                                                  letter)


def cut_one_early(step):
    # descent_at(2): the second A ends the word
    return lambda a, letter: None if (a, letter) == (1, "A") else step(
        a, letter)


def top_a_keeps_lis(step):
    # avoiding(12...k): an A at the highest point does not lengthen the
    # longest rising subsequence
    return lambda state, letter: (state if (letter, state[0]) == ("A", 0)
                                  else step(state, letter))


@pytest.mark.parametrize("argv, name, wrong", [
    (["grassmannian", "--n", "1..9"], "ONE_DESCENT", b_ends_the_word),
    (["union-inverse", "--n", "1..9"], "ONE_DESCENT", b_ends_the_word),
    (["bigrassmannian", "--n", "1..9"], "ONE_BA", second_ba_lives),
    (["union-inverse", "--n", "1..9"], "ONE_BA", second_ba_lives),
    (["odd", "--n", "1..9"], "ODD", a_adds_no_inversions),
    (["even", "--n", "1..9"], "EVEN", a_adds_no_inversions),
    # the closed form refuses sizes up to k
    (["descent-at", "--k", "2", "--n", "3..9"], "descent_at", cut_one_early),
    # one automaton for the rising class, however it is asked for
    (["finite-class", "--k", "4", "--n", "1..9"], "avoiding",
     top_a_keeps_lis),
    (["avoiders", "--pattern", "1234", "--n", "1..9"], "avoiding",
     top_a_keeps_lis),
], ids=lambda value: " ".join(value) if isinstance(value, list)
    else getattr(value, "__name__", value))
def test_a_planted_wrong_transition_fails_the_column(capsys, monkeypatch,
                                                     argv, name, wrong):
    def planted(automaton):
        start, step, accepts, surplus = automaton
        return start, wrong(step), accepts, surplus
    assert run(capsys, "count", *argv, "--oracle")[0] == 0
    right = getattr(kernels, name)
    monkeypatch.setattr(kernels, name, (lambda k: planted(right(k)))
                        if callable(right) else planted(right))
    code, out, _ = run(capsys, "count", *argv, "--oracle")
    assert code == 1
    assert ",false" in out


def test_a_planted_wrong_rising_transition_fails_verify_weiner(
        capsys, monkeypatch):
    # verify weiner counts with the automaton that count finite-class
    # and count avoiders --pattern 12...k run
    assert run(capsys, "verify", "weiner", "--kmax", "5")[0] == 0
    right = kernels.avoiding

    def planted(sigma):
        start, step, accepts, surplus = right(sigma)
        return start, top_a_keeps_lis(step), accepts, surplus
    monkeypatch.setattr(kernels, "avoiding", planted)
    finite_class_count.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "weiner", "--kmax", "5")
    finally:
        finite_class_count.cache_clear()
    assert code == 1
    assert "FAIL rising" in out


def test_patched_oracles_fail_in_the_column(capsys, monkeypatch):
    # a wrong weight shows in the column
    monkeypatch.setattr(cli, "is_involution", lambda p: not is_involution(p))
    code, out, _ = run(capsys, "count", "involutions", "--n", "3..6",
                       "--oracle")
    assert code == 1
    assert out.splitlines()[1].endswith(",false")
    monkeypatch.undo()

    # an enumerator that repeats a core of each size: every row from
    # that size on counts it twice
    def repeating(n, **kwargs):
        assert kwargs.get("automaton") is kernels.CORES
        members = list(enumerate_grassmannian(n, **kwargs))
        return iter(members[:1] + members)
    monkeypatch.setattr(cli, "enumerate_grassmannian", repeating)
    code, out, _ = run(capsys, "count", "involutions", "--n", "2..6",
                       "--oracle")
    assert code == 1
    assert all(line.endswith(",false") for line in out.splitlines()[1:])

    monkeypatch.setattr(kernels, "avoiding", counts_minus_one)
    code, out, _ = run(capsys, "count", "finite-class", "--k", "4",
                       "--n", "1..8", "--oracle")
    assert code == 1
    assert all(line.endswith(",-1,false") for line in out.splitlines()[1:])


def test_oracle_column_raises_the_first_error_in_row_order(capsys,
                                                          monkeypatch):
    # the formula refuses every size: no oracle row is computed
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "descent-at", "--k", "5",
                         "--n", "1..21", "--oracle")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: descent position 5 outside"
                                       " 1..0; use sizes from 6\n")
    # the oracle refuses sizes 6, 7 and 8; the smallest is reported, and
    # the rows before it are printed
    header = "n,formula,oracle,agree\n"

    def rows(sizes):
        return "".join(f"{n},{count_involutions(n)},{count_involutions(n)},"
                       "true\n" for n in sizes)
    code, out, err = run(capsys, "count", "involutions", "--n", "3..8",
                         "--oracle", "--cap", "5")
    assert (code, out) == (2, header + rows(range(3, 6)))
    assert err.startswith("error: size 6 exceeds the enumeration cap 5;")
    # a JSON document is printed whole or not at all
    code, out, err = run(capsys, "count", "involutions", "--n", "3..8",
                         "--oracle", "--cap", "5", "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: size 6 exceeds the enumeration cap 5;")
    # the column walks sizes below the first row, but not above the cap
    for cap, n in (("0", "1..3"), ("1", "2..3"), ("4", "5")):
        code, out, err = run(capsys, "count", "involutions", "--n", n,
                             "--oracle", "--cap", cap)
        assert (code, out) == (2, ""), cap
        assert err.startswith(f"error: size {n[0]} exceeds the enumeration"
                              f" cap {cap};"), cap

    def formula(n):
        if n >= refused:
            raise ValueError(f"formula refuses {n}")
        return count_involutions(n)

    right = cli.COUNT_FAMILIES["involutions"]
    monkeypatch.setitem(cli.COUNT_FAMILIES, "involutions",
                        lambda args: (formula, right(args)[1]))
    for refused, message in ((5, "formula refuses 5"),
                             (6, "size 5 exceeds the enumeration cap 4;")):
        code, out, err = run(capsys, "count", "involutions", "--n", "1..8",
                             "--oracle", "--cap", "4")
        assert (code, out) == (2, header + rows(range(1, 5))), refused
        assert err.startswith(f"error: {message}"), refused


def test_oracle_column_drops_sizes_above_a_refusal(capsys, no_fork):
    # a first size above the cap is refused before the sizes below it
    # are walked, and the sizes above a refusal cost nothing
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "involutions", "--n", "26..1000",
                         "--oracle")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: size 26 exceeds the enumeration cap 25;")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "finite-class", "--k", "4",
                         "--n", "1..1000", "--oracle")
    assert time.perf_counter() - start < 0.5
    # the rows up to the largest scan size print, then the refusal
    values = [finite_class_formula(m, 4)
              for m in range(1, kernels.MAX_SCAN_SIZE + 1)]
    rows = "".join(f"{m},{v},{v},true\n" for m, v in enumerate(values, 1))
    assert (code, out) == (2, "n,formula,oracle,agree\n" + rows)
    assert err == (f"error: scan size {kernels.MAX_SCAN_SIZE + 1} outside"
                   f" 1..{kernels.MAX_SCAN_SIZE}\n")


def test_failing_weight_stops_the_column(capsys, monkeypatch):
    # a weight that fails at size 8 ends the table after the rows before
    # it, with its own exception
    def broken(p):
        if len(p) == 8:
            raise TypeError("not a weight")
        return is_involution(p)
    monkeypatch.setattr(cli, "is_involution", broken)
    with pytest.raises(TypeError, match="not a weight"):
        cli.main(["count", "involutions", "--n", "1..8", "--oracle"])
    rows = "".join(f"{n},{count_involutions(n)},{count_involutions(n)},true\n"
                   for n in range(1, 8))
    assert capsys.readouterr().out == "n,formula,oracle,agree\n" + rows


def test_oracle_column_runs_without_fork(capsys, no_fork, monkeypatch):
    # count and verify compute every row in this process: os.fork raises
    header = "n,formula,oracle,agree\n"
    rows = "".join(f"{n},{2 ** n - n},{2 ** n - n},true\n"
                   for n in range(1, 7))
    assert run(capsys, "count", "grassmannian", "--n", "1..6",
               "--oracle")[:2] == (0, header + rows)
    assert run(capsys, "count", "grassmannian", "--n", "6",
               "--oracle")[:2] == (0, header + "6,58,58,true\n")
    for argv in (["count", "union-inverse", "--n", "1..12", "--oracle"],
                 ["count", "descent-at", "--k", "3", "--n", "4..12",
                  "--oracle"],
                 ["count", "avoiders", "--pattern", "4231", "--n", "1..9",
                  "--oracle"],
                 ["verify", "prop22", "--max-n", "2"],
                 ["verify", "prop53", "--max-n", "8"]):
        assert run(capsys, *argv)[0] == 0, argv
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "count", "grassmannian", "--n", "1..6",
               "--oracle")[:2] == (0, header + rows)


# runs a command; with SLOW_N14 set, the core-walk weights of count
# involutions and verify prop21, and the word counts, sleep for a minute
# at size 14
SLOWED_COMMAND = (
    "import os, sys, time\n"
    "from grassperm import cli, kernels\n"
    "def slow(n):\n"
    "    if n == 14 and os.environ.get('SLOW_N14'):\n"
    "        time.sleep(60)\n"
    "def slowed(weight):\n"
    "    def slowed_weight(p):\n"
    "        slow(len(p))\n"
    "        return weight(p)\n"
    "    return slowed_weight\n"
    "def slowed_counts(automaton, sizes, counts=kernels.word_counts):\n"
    "    for n, count in zip(sizes, counts(automaton, sizes)):\n"
    "        slow(n)\n"
    "        yield count\n"
    "cli.is_involution = slowed(cli.is_involution)\n"
    "cli.is_bigrassmannian = slowed(cli.is_bigrassmannian)\n"
    "kernels.word_counts = slowed_counts\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def into_a_closed_pipe(options, argv):
    """Run the command into a pipe whose reader has gone: it must exit 1
    with nothing on stderr, no traceback and no summary."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *options, "-c", SLOWED_COMMAND, *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=60, env=module_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_unbuffered_sweep_into_a_closed_pipe():
    # unbuffered, so the first row already meets the closed pipe
    into_a_closed_pipe(["-u"], ["verify", "thm51"])


@pytest.mark.parametrize("argv", [
    *(["count", family, "--n", "1..22", "--oracle"]
      for family in ("grassmannian", "involutions")),
    ["verify", "thm51"]], ids=" ".join)
def test_buffered_output_into_a_closed_pipe(argv):
    # buffered, as a user runs it: the flush after the first row or
    # block meets the closed pipe, long before the last row is computed
    start = time.perf_counter()
    into_a_closed_pipe([], argv)
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("argv", [
    *(["count", family, "--n", "1..14", "--oracle"]
      for family in ("grassmannian", "involutions")),
    ["verify", "prop21", "--max-n", "14"]], ids=" ".join)
def test_rows_reach_a_pipe_before_the_last_one_ends(capsys, argv):
    # the last row or block, n = 14, sleeps for a minute; the first ones
    # must reach the pipe long before, while the command still runs
    expected = run(capsys, *argv)[1].splitlines(keepends=True)[:2]
    env = dict(module_env(), SLOW_N14="1")
    with subprocess.Popen(
            [sys.executable, "-c", SLOWED_COMMAND, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env) as proc:
        try:
            first = []
            if select.select([proc.stdout], [], [], 20)[0]:
                first = [proc.stdout.readline(), proc.stdout.readline()]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        finally:
            proc.kill()
    assert first == expected
    assert proc.returncode == -signal.SIGTERM


class CountedFlushes(io.StringIO):
    """A stdout that counts how often it is flushed."""

    flushes = 0

    def flush(self):
        self.flushes += 1


@pytest.mark.parametrize("start", [1, 2])
def test_output_is_flushed_at_most_once_per_task(monkeypatch, start):
    # a flush per line would cost a system call per line; a count that
    # starts above size 1 walks the sizes below its first row unflushed
    for argv, tasks in (
            (["count", "involutions", "--n", f"{start}..12", "--oracle"],
             13 - start),  # rows
            (["count", "odd", "--n", f"{start}..12", "--oracle"],
             13 - start),  # rows
            (["verify", "thm51"], 40 + 5),  # blocks: n = 1..40, m = 1..5
            # the walks' blocks, one per subtree
            (["enum", "grassmannian", "--n", "14"],
             sum(1 for _ in grassmannian_blocks(14))),
            (["enum", "dyck", "--n", "10"],
             sum(1 for _ in dyck_path_blocks(10)))):
        out = CountedFlushes()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(argv) == 0, argv
        assert out.getvalue(), argv
        assert out.flushes <= tasks + 1, argv


def test_sweep_stops_when_stdout_fails(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass
    # the first row fails to print: no size above it is weighed
    weighed = set()

    def recorded(weight):
        def recorded_weight(p):
            weighed.add(len(p))
            return weight(p)
        return recorded_weight
    monkeypatch.setattr(cli, "inversion_count", recorded(inversion_count))
    monkeypatch.setattr(cli, "is_involution", recorded(is_involution))
    monkeypatch.setattr(sys, "stdout", Closed())
    for argv in (["verify", "thm51"],
                 ["count", "involutions", "--n", "1..12", "--oracle"]):
        weighed.clear()
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(BrokenPipeError) as caught:
            args.run(args)
        assert caught.traceback, argv
        assert weighed <= {1}, argv


def test_count_oracle_caps_the_enumerated_avoiders(capsys):
    # a pattern with two descents is counted by enumeration, which takes
    # the cap the user passed
    code, out, err = run(capsys, "count", "avoiders", "--pattern", "4231",
                         "--n", "5", "--oracle", "--cap", "4")
    assert (code, out) == (2, "")
    assert err == ("error: size 5 exceeds the enumeration cap 4; pass a"
                   " larger cap to enumerate anyway\n")
    code, out, _ = run(capsys, "count", "avoiders", "--pattern", "4231",
                       "--n", "5", "--oracle", "--cap", "5")
    assert (code, out) == (0, "n,formula,oracle,agree\n5,27,27,true\n")


VERIFY_SMALL = [
    ("weiner", ["--kmax", "6"]),
    ("theorem34", ["--max-n", "6", "--max-size", "4"]),
    ("prop21", ["--max-n", "7"]),
    ("prop22", ["--max-n", "7"]),
    ("prop23", ["--max-n", "7"]),
    ("prop31", ["--kmax", "7"]),
    ("prop41", ["--max-n", "7"]),
    ("prop42", ["--max-n", "6"]),
    ("prop43", ["--max-n", "6"]),
    ("prop46", ["--max-n", "5"]),
    ("thm51", ["--max-n", "12"]),
    ("prop53", ["--max-n", "8"]),
]


@pytest.mark.parametrize("target,flags", VERIFY_SMALL,
                         ids=[t for t, _ in VERIFY_SMALL])
def test_verify_targets(capsys, no_fork, target, flags):
    # the blocks are checked in-process: os.fork raises
    code, out, err = run(capsys, "verify", target, *flags)
    assert code == 0
    assert "FAIL" not in out
    assert "all agree" in err


# rows each target checks at its defaults; perfbench's paper-check
# workload expects their sum
DEFAULT_ROWS = {
    "weiner": 45, "theorem34": 410, "prop21": 20, "prop22": 10,
    "prop23": 20, "prop31": 15, "prop41": 18, "prop42": 54, "prop43": 54,
    "prop46": 30, "thm51": 102, "prop53": 10,
}


@pytest.mark.parametrize("target", list(DEFAULT_ROWS))
def test_verify_rows_at_defaults(capsys, target):
    code, out, err = run(capsys, "verify", target)
    assert code == 0
    assert err == f"{target}: {DEFAULT_ROWS[target]} checks, all agree\n"
    assert len(out.splitlines()) == DEFAULT_ROWS[target]


def test_default_rows_cover_every_target():
    assert set(DEFAULT_ROWS) == set(cli.VERIFY_TARGETS)
    assert sum(DEFAULT_ROWS.values()) == 788


def test_prop22_counts_the_sn_class_at_every_scan_size(capsys):
    top = kernels.MAX_SCAN_SIZE
    code, out, err = run(capsys, "verify", "prop22", "--max-n", str(top))
    rows = out.splitlines()
    assert (code, err) == (0, f"prop22: {top} checks, all agree\n")
    assert len(rows) == top
    assert all(row.startswith("ok   n=") for row in rows)
    assert run(capsys, "verify", "prop22", "--max-n", str(top + 1)) == (
        2, out, f"error: scan size {top + 1} outside 1..{top}\n")


def test_prop22_oracle_is_the_sn_counter_above_12(capsys, monkeypatch):
    right = kernels.count_sn_avoiding_321_2143
    monkeypatch.setattr(kernels, "count_sn_avoiding_321_2143",
                        lambda n: right(n) + (n > 12))
    code, out, _ = run(capsys, "verify", "prop22", "--max-n", "14")
    assert code == 1
    assert [row.split(":")[0] for row in out.splitlines()
            if row.startswith("FAIL")] == ["FAIL n=13", "FAIL n=14"]


EMPTY_SWEEPS = [
    ["prop22", "--max-n", "0"],
    ["prop31", "--kmax", "1"],
    ["theorem34", "--max-size", "2"],
    ["prop46", "--max-n", "-1"],
    ["weiner", "--kmax", "1"],
]


@pytest.mark.parametrize("flags", EMPTY_SWEEPS,
                         ids=[" ".join(f) for f in EMPTY_SWEEPS])
def test_empty_sweep_is_refused(capsys, flags):
    code, out, err = run(capsys, "verify", *flags)
    assert (code, out) == (2, "")
    assert err == (f"error: verify {flags[0]} has no rows to check"
                   " in this range\n")


def test_sweep_streams_rows_before_a_refusal(capsys):
    # k = 15 needs size 28, beyond the scan; the rows up to there print
    code, out, err = run(capsys, "verify", "weiner", "--kmax", "15")
    assert code == 2
    assert out.splitlines()[-1] == (
        f"ok   rising k=15 m=26: {weiner_formula(26, 15)}")
    assert err.startswith("error: ")


def test_theorem34_makes_its_blocks_one_pattern_at_a_time(capsys):
    # in the order of one_descent_patterns, without listing them first,
    # so that memory stays flat however large --max-size is
    args = argparse.Namespace(max_size=6, max_n=2)
    assert [next(block)[0] for block in cli.verify_theorem34(args)] == [
        f"sigma={format_permutation(sigma)} n=1"
        for size in range(3, 7) for sigma in one_descent_patterns(size)]
    args.max_size = 16
    tracemalloc.start()
    try:
        first = list(next(iter(cli.verify_theorem34(args))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [("sigma=132 n=1", 1, 1), ("sigma=132 n=2", 2, 2)]
    assert peak < 256 * 1024
    # a size above the enumeration cap is refused before any row
    code, out, err = run(capsys, "verify", "theorem34", "--max-size", "26",
                         "--max-n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: size 26 exceeds the enumeration cap 25;")
    # and so is a size above the scan's
    code, out, err = run(capsys, "verify", "theorem34", "--max-n", "27")
    assert (code, out, err) == (2, "", "error: scan size 27 outside 1..26\n")


def test_theorem34_rows_check_the_pattern_automaton(capsys, monkeypatch):
    # each pattern's rows come from one column of its automaton, so a
    # count wrong at n = 7 fails that row of every pattern and no other
    right = kernels.avoiding

    def wrong_at_7(sigma):
        start, step, accepts, surplus = right(sigma)
        return start, step, accepts, lambda n: surplus(n) - (n == 7)
    monkeypatch.setattr(kernels, "avoiding", wrong_at_7)
    code, out, _ = run(capsys, "verify", "theorem34", "--max-n", "8",
                       "--max-size", "3")
    assert code == 1
    assert [row.split(":")[0] for row in out.splitlines()
            if row.startswith("FAIL")] == [
        f"FAIL sigma={sigma} n=7" for sigma in ("132", "213", "231", "312")]


class Reached(Exception):
    pass


def reached(*args, **kwargs):
    raise Reached


def test_prop41_refuses_sizes_above_18(capsys, monkeypatch):
    # n = 18 is checked; above it the sweep is refused when its blocks
    # are made, before any row
    blocks = list(cli.verify_prop41(argparse.Namespace(max_n=18)))
    monkeypatch.setattr(cli, "enumerate_grassmannian_paths", reached)
    with pytest.raises(Reached):
        next(blocks[17])
    refusal = ("error: verify prop41 holds each size's family in memory,"
               " so its sizes end at 18, got 19\n")
    for n in ("19", "30"):
        start = time.perf_counter()
        assert run(capsys, "verify", "prop41", "--max-n", n) == (
            2, "", refusal), n
        assert time.perf_counter() - start < 1, n


def test_prop21_refuses_sizes_above_18(capsys, monkeypatch):
    # n = 18 is checked; above it the sweep is refused when its blocks
    # are made, before either row walks
    blocks = list(cli.verify_prop21(argparse.Namespace(max_n=18)))
    monkeypatch.setattr(cli, "enumerate_grassmannian", reached)
    with pytest.raises(Reached):
        next(blocks[17])
    refusal = ("error: verify prop21 walks each size's family, so its"
               " sizes end at 18, got 19\n")
    for n in ("19", "30"):
        start = time.perf_counter()
        assert run(capsys, "verify", "prop21", "--max-n", n) == (
            2, "", refusal), n
        assert time.perf_counter() - start < 1, n


@pytest.mark.parametrize("target, flag, last", [
    ("prop22", "--max-n", "ok   n=26: 134214750"),
    ("weiner", "--kmax", f"ok   rising k=15 m=26: {weiner_formula(26, 15)}"),
])
def test_sweep_makes_its_blocks_as_it_reaches_them(capsys, target, flag,
                                                   last):
    # a list of 10^6 blocks took 222 MB before the first row, so this
    # fails before the command below could ask for 10^8 of them
    args = argparse.Namespace(max_n=10 ** 6, kmax=10 ** 6)
    tracemalloc.start()
    try:
        blocks = cli.VERIFY_TARGETS[target][0](args)
        first = list(next(blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first and peak < 256 * 1024, peak
    # the rows print up to the scan's largest size, then its refusal
    code, out, err = run(capsys, "verify", target, flag, str(10 ** 8))
    assert code == 2
    assert out.splitlines()[-1] == last
    assert err == "error: scan size 27 outside 1..26\n"


def test_thm51_refuses_sizes_above_the_count_limit(capsys):
    # past it the odd counts near int()'s 4300-digit printing limit; the
    # sweep is refused when its blocks are made, before any row
    n = cli.MAX_COUNT_SIZE
    for max_n in (n + 1, 10 ** 8):
        assert run(capsys, "verify", "thm51", "--max-n", str(max_n)) == (
            2, "", f"error: verify thm51 sizes end at {n}, got {n + 1}\n")
    blocks = list(cli.verify_thm51(argparse.Namespace(max_n=n)))
    assert len(blocks) == n + 5
    rows = [row for block in blocks[:n] for row in block]
    assert rows[-2:] == [(f"closed form n={n}", odd_count(n), odd_count(n)),
                         (f"recurrence n={n}", odd_count(n), odd_count(n))]


def test_weiner_rows_check_the_cli_formula(capsys, monkeypatch):
    monkeypatch.setattr(cli, "weiner_formula", lambda m, k: -1)
    code, out, err = run(capsys, "verify", "weiner", "--kmax", "4")
    assert code == 1
    assert "FAIL rising k=2 m=2: expected -1, got 1" in out
    assert err == "weiner: 6 checks, 6 mismatch(es)\n"


def test_verify_unknown_target():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, choices", [
    ("enum", "grassmannian,bigrassmannian,involutions,avoiders,dyck,schroder"),
    ("map", "phi,phi-inverse,alpha,alpha-inverse,lehmer-encode,"
            "lehmer-decode,xi,psi"),
])
def test_help_lists_the_choices_in_order(capsys, command, choices):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "{" + choices + "}" in capsys.readouterr().out


def test_verify_help_describes_every_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    # argparse wraps lines, also after hyphens, so compare without spaces
    text = "".join(capsys.readouterr().out.split())
    for name, (_, doc, defaults) in cli.VERIFY_TARGETS.items():
        assert "".join(f"{name}: {doc}".split()) in text
        # the help names every default that cmd_verify fills in
        for value in defaults.values():
            assert f"{name}default{value}" in text, name
    assert "<function" not in text


def test_sweep_reports_mismatch(capsys):
    sweep = cli.Sweep()
    sweep.check("good", 1, 1)
    sweep.check("bad", 1, 2)
    assert sweep.finish("demo") == 1
    captured = capsys.readouterr()
    assert "FAIL bad: expected 1, got 2" in captured.out
    assert "1 mismatch(es)" in captured.err


def test_table1(capsys):
    code, out, _ = run(capsys, "table", "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2,1"
    assert lines[5] == "7,120,198,276,312,264,132"
    assert lines[-1].startswith("10,") and lines[-1].endswith("9724,4862")
    code, out, _ = run(capsys, "table", "table1", "--kmax", "12")
    assert code == 0
    assert out.splitlines()[-1] == ("12,4083,8034,15353,27976,47762,75140,"
                                    "106964,134368,142766,117572,58786")
    code, out, _ = run(capsys, "table", "table1", "--kmax", "14")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    for k in (13, 14):
        row = [finite_class_formula(m, k) for m in range(k, 2 * k - 1)]
        assert lines[k - 2] == ",".join(map(str, [k] + row))
    code, _, err = run(capsys, "table", "table1", "--kmax", "15")
    assert code == 2
    assert "2..14" in err


def test_table2(capsys):
    code, out, _ = run(capsys, "table", "table2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[2] == "5,1,2,5,12,26,51,92,155,247,376"
    assert lines[-1] == "10,1,2,5,12,27,58,121,248,503,1013"


MAP_GOLDENS = [
    ("phi", "UUUDDDUUDUDUUDDD", "23174586"),
    ("phi-inverse", "23174586", "UUUDDDUUDUDUUDDD"),
    ("alpha", "UHDHUDH", "1,3,0,0,0,0"),
    ("alpha-inverse", "1,3,0,0,0,0", "UHDHUDH"),
    ("lehmer-encode", "23174586", "1,1,0,3,0,0,1,0"),
    ("lehmer-decode", "1,1,0,3,0,0,1,0", "23174586"),
    ("xi", "351246", "4671235"),
    ("xi", "21", "132"),
    ("psi", "35124", "351246"),
    ("psi", "24513", "245613"),
]


@pytest.mark.parametrize("direction,value,expected", MAP_GOLDENS)
def test_map_goldens(capsys, direction, value, expected):
    code, out, _ = run(capsys, "map", direction, value)
    assert code == 0
    assert out.strip() == expected


def test_map_invalid_inputs(capsys):
    for direction, value in (
        ("phi", "UUDX"),        # not a path
        ("phi", "UUD"),         # does not return to zero
        ("alpha", "UUDD"),      # climbs to level two
        ("xi", "123"),          # even permutation
        ("xi", "12345"),        # odd size
        ("psi", "3512"),        # not a permutation
        ("lehmer-decode", ""),  # empty input
    ):
        code, _, err = run(capsys, "map", direction, value)
        assert code == 2, (direction, value)
        assert err.startswith("error:")


def test_superscript_digits_are_malformed(capsys):
    # str.isdigit() accepts them, int() does not
    for argv, message in (
        (["map", "lehmer-encode", "²"], "malformed permutation '²'"),
        (["map", "alpha-inverse", "²"], "malformed Lehmer code '²'"),
        (["count", "avoiders", "--pattern", "²³", "--n", "3"],
         "malformed permutation '²³'"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_map_refuses_long_paths_before_expanding(capsys):
    for value in ("U2000000D2000000", "U100001D100001",
                  "U" + "9" * 5000 + "D"):
        start = time.perf_counter()
        code, out, err = run(capsys, "map", "phi", value)
        assert time.perf_counter() - start < 1, value[:20]
        assert code == 2, value[:20]
        assert out == ""
        assert err.startswith("error:") and "200000 steps" in err
    code, out, _ = run(capsys, "map", "phi", "U3D3UD")
    assert code == 0
    assert out.strip() == "2314"


def test_errors_shorten_long_inputs(capsys):
    # a huge argument is cut in the message, not echoed in full
    rising = ",".join(map(str, range(1, 20_001)))
    falling = ",".join(map(str, range(20_000, 0, -1)))
    for argv in (["map", "xi", rising], ["map", "phi-inverse", falling],
                 ["map", "xi", rising + ",1"],
                 ["count", "grassmannian", "--n", "1.." + rising]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[:2]
        assert out == ""
        assert err.startswith("error: ") and len(err.encode()) < 300, err
        assert "(length " in err


BFILE_FAMILIES = [
    ("grassmannian", "b000325.txt"),
    ("union-inverse", "b088921.txt"),
    ("odd", "b122746.txt"),
]


@pytest.mark.parametrize("family,fixture", BFILE_FAMILIES,
                         ids=[f for f, _ in BFILE_FAMILIES])
def test_bfile_matches_fixture(capsys, family, fixture):
    code, out, _ = run(capsys, "count", family, "--n", "1..25",
                       "--format", "bfile")
    assert code == 0
    assert out == (FIXTURES / fixture).read_text()


def test_console_script_installed(capsys):
    exe = shutil.which("grassperm")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "map", "phi", "UUDD"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "21"


def module_env():
    """The caller's environment with src on PYTHONPATH and without
    PYTHONUNBUFFERED, so that stdout into a pipe is block-buffered, as
    it is for a user."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_python_dash_m():
    proc = subprocess.run(
        [sys.executable, "-m", "grassperm", "map", "phi", "UUDD"],
        capture_output=True, text=True, timeout=60, env=module_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "21"


def test_cli_does_not_import_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, grassperm.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=module_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
    # the oracle column needs no process pool either
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from grassperm import cli\n"
         "cli.main(['count', 'grassmannian', '--n', '1..6', '--oracle'])\n"
         "print([m for m in ('multiprocessing', 'concurrent.futures')"
         " if m in sys.modules])"],
        capture_output=True, text=True, timeout=60, env=module_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-2:] == ["6,58,58,true", "[]"]


def test_closed_pipe_exits_without_traceback():
    # about 2.5 MB of output, far more than a pipe buffers, so the
    # writer is still printing when the reader goes away
    with subprocess.Popen(
            [sys.executable, "-m", "grassperm", "enum", "grassmannian",
             "--n", "16"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=module_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert first.decode().strip() == ",".join(map(str, range(1, 17)))
    assert "Traceback" not in err
    assert code == 1


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """(argv, expected stdout or None) for every grassperm line of the
    README's CLI block; a trailing "# -> X" gives the expected output."""
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if not line.startswith("grassperm "):
            continue
        command, _, comment = line.partition("#")
        expected = comment.strip()
        examples.append((shlex.split(command)[1:],
                         expected[3:] if expected.startswith("-> ") else None))
    return examples


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 15
    assert sum(expected is not None for _, expected in examples) >= 4
    for argv, expected in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if expected is not None:
            assert out == expected + "\n", argv
