"""End-to-end tests for the grassperm command line."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grassperm import cli, kernels
from grassperm.grassmann import count_involutions, enumerate_grassmannian
from grassperm.parity import odd_count
from grassperm.patterns import finite_class_count, finite_class_formula
from grassperm.perms import format_permutation, inverse, inversion_count

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
    # 16,370 members, more than one chunk of output
    members = [format_permutation(p) for p in enumerate_grassmannian(14)]
    assert len(members) > cli.ENUM_CHUNK_LINES
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
    lines = cli.grassmannian_lines

    def counted(n, *, cap=None):
        nonlocal pulled
        for line in lines(n, cap=cap):
            pulled += 1
            yield line

    monkeypatch.setattr(cli, "grassmannian_lines", counted)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink))
        code = cli.main(["enum", "grassmannian", "--n", "20"])
    assert code == 1
    # the first chunk fails to write; the walk is not run to its end
    assert 0 < pulled <= cli.ENUM_CHUNK_LINES < 2 ** 20 - 20


def test_enum_dyck(capsys):
    code, out, _ = run(capsys, "enum", "dyck", "--n", "3")
    assert code == 0
    assert sorted(out.split()) == [
        "UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD"]
    code, out, _ = run(capsys, "enum", "dyck", "--n", "4",
                       "--grassmannian-only")
    assert code == 0
    assert len(out.split()) == 2 ** 4 - 4


def test_enum_schroder(capsys):
    code, out, _ = run(capsys, "enum", "schroder", "--n", "2")
    assert code == 0
    words = out.split()
    assert words[0] == "HH"
    assert len(words) == 5
    assert "UUDD" not in words


def test_enum_errors(capsys):
    code, _, err = run(capsys, "enum", "avoiders", "--n", "5")
    assert code == 2
    assert "pattern" in err
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


def test_finite_class_oracle_is_independent(capsys, monkeypatch):
    # a wrong counter must show at every size, the closed form's
    # special cases m <= k and m >= 2k - 1 included
    monkeypatch.setattr(kernels, "count_grassmannian_avoiding_increasing",
                        lambda m, k: -1)
    finite_class_count.cache_clear()
    try:
        for sizes in ("1..3", "4", "7..8"):
            code, out, _ = run(capsys, "count", "finite-class",
                               "--k", "4", "--n", sizes, "--oracle")
            assert code == 1, sizes
            assert all(line.endswith(",-1,false")
                       for line in out.splitlines()[1:]), sizes
    finally:
        finite_class_count.cache_clear()


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
    for n in range(1, 12):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        assert cli.brute_count("union-inverse", n) == len(union)


def test_union_oracle_flags_a_repeated_member(capsys, monkeypatch):
    # a set union would hide an enumerator that yields a member twice
    def repeating(n, cap=None):
        members = enumerate_grassmannian(n, cap=cap)
        first = next(members)
        yield first
        yield first
        yield from members
    monkeypatch.setattr(cli, "enumerate_grassmannian", repeating)
    code, out, _ = run(capsys, "count", "union-inverse", "--n", "4",
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


def test_member_counts_feed_count_and_verify(capsys, monkeypatch):
    # count --oracle and verify read the same oracle table: a wrong
    # weight must show in both
    monkeypatch.setitem(cli.MEMBER_COUNTS, "odd",
                        (odd_count, lambda p: 1 - inversion_count(p) % 2))
    code, out, _ = run(capsys, "count", "odd", "--n", "3", "--oracle")
    assert code == 1
    assert out.splitlines()[1].endswith(",false")
    code, out, _ = run(capsys, "verify", "thm51", "--max-n", "6")
    assert code == 1
    assert "FAIL oracle n=3" in out


def test_thm51_closed_form_rows_use_the_word_count(capsys, monkeypatch):
    # the closed form rows compare odd_count with the word DP, so a
    # wrong DP must fail them, also where no enumeration oracle runs
    monkeypatch.setattr(kernels, "count_odd_members", lambda n: -1)
    code, out, _ = run(capsys, "verify", "thm51")
    assert code == 1
    assert "FAIL closed form n=40: expected" in out
    assert "ok   oracle n=14" in out


def test_count_descent_at(capsys):
    code, out, _ = run(capsys, "count", "descent-at",
                       "--k", "2", "--n", "6", "--oracle")
    assert code == 0
    assert out.splitlines()[1] == "6,14,14,true"


def test_count_input_errors(capsys):
    for argv in (
        ["count", "avoiders", "--n", "1..5"],
        ["count", "descent-at", "--n", "6"],
        ["count", "finite-class", "--n", "3..5"],
        ["count", "grassmannian", "--n", "5..1"],
        ["count", "grassmannian", "--n", "0..3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


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
def test_verify_targets(capsys, target, flags):
    code, out, err = run(capsys, "verify", target, *flags)
    assert code == 0
    assert "FAIL" not in out
    assert "all agree" in err


def test_verify_unknown_target():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_help_describes_every_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    # argparse wraps lines, also after hyphens, so compare without spaces
    text = "".join(capsys.readouterr().out.split())
    for name, (_, doc, _) in cli.VERIFY_TARGETS.items():
        assert "".join(f"{name}: {doc}".split()) in text
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
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))


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
