"""The output checks accept real grassperm output and reject corrupted
copies of it: a dropped line, two lines swapped, one changed count, a
field that is not a number or a byte that is not UTF-8.  A command whose
own sweep reports a disagreement makes the run incorrect.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent

# small or fast stand-ins for every kind of command the workloads run
COMMANDS = [
    ["enum", "grassmannian", "--n", "6"],
    ["enum", "grassmannian", "--n", "11"],
    ["enum", "dyck", "--n", "5"],
    ["count", "grassmannian", "--n", "1..10", "--oracle"],
    ["count", "union-inverse", "--n", "1..9", "--oracle"],
    ["count", "odd", "--n", "3..12", "--oracle"],
    ["count", "bigrassmannian", "--n", "1..10", "--oracle"],
    ["verify", "prop23"],
    ["verify", "prop31"],
    ["verify", "prop53"],
    ["table", "table2"],
]


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "grassperm.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module", params=COMMANDS, ids=" ".join)
def real(request):
    return (request.param, *run_cli(request.param))


def lines_of(out: bytes) -> list[bytes]:
    return out.split(b"\n")[:-1]


def joined(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


def bump_last_number(text: bytes) -> bytes:
    return re.sub(rb"(\d+)(\D*)$",
                  lambda m: str(int(m[1]) + 1).encode() + m[2], text)


def test_accepts_real_output(real):
    argv, code, out, err = real
    checks.check_command(argv, code, out, err)


def test_rejects_dropped_line(real):
    argv, code, out, err = real
    lines = lines_of(out)
    del lines[len(lines) // 2]
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, code, joined(lines), err)


def test_rejects_swapped_lines(real):
    argv, code, out, err = real
    lines = lines_of(out)
    i = len(lines) // 2
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, code, joined(lines), err)


def test_rejects_changed_count(real):
    argv, code, out, err = real
    if argv[0] == "enum":  # the count is the stderr trailer
        with pytest.raises(checks.CheckFailed):
            checks.check_command(argv, code, out, bump_last_number(err))
        return
    lines = lines_of(out)
    lines[-1] = bump_last_number(lines[-1])
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, code, joined(lines), err)


def test_rejects_nonzero_exit(real):
    argv, _, out, err = real
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, 1, out, err)


def test_rejects_non_utf8_byte(real):
    argv, code, out, err = real
    lines = lines_of(out)
    i = len(lines) // 2
    lines[i] = b"\xff" + lines[i][1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, code, joined(lines), err)


def test_rejects_empty_field():
    argv = ["enum", "grassmannian", "--n", "11"]
    code, out, err = run_cli(argv)
    lines = lines_of(out)
    lines[7] = lines[7].replace(b",", b",,", 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_command(argv, code, joined(lines), err)


def test_failing_sweep_makes_the_run_incorrect():
    """A sweep that disagrees prints a FAIL row and exits 1; the run that
    saw it is counted as failed and is not correct."""
    argv = ["verify", "prop31"]
    code, out, err = run_cli(argv)
    lines = lines_of(out)
    label, _, value = lines[3][len(b"ok   "):].partition(b": ")
    lines[3] = b"FAIL " + label + b": expected " + value + b", got 0"
    checker = run.Checker()
    assert checker(argv, code, out, err) is None
    assert checker(argv, 1, joined(lines), err) is not None
    assert (checker.attempted, checker.failed, checker.correct) == (2, 1, False)


@pytest.mark.parametrize("family", sorted(checks.CLOSED_FORMS))
def test_closed_forms_match_brute_force(family):
    for n in range(1, checks.BRUTE_MAX + 1):
        assert checks.CLOSED_FORMS[family](n) == checks.BRUTE_COUNTS[family](n)


def test_weiner_sum_matches_brute_force():
    for k in range(2, 6):
        for m in range(k, min(2 * k - 1, checks.BRUTE_MAX + 1)):
            brute = sum(checks.longest_rise(p) < k
                        for p in checks.one_descent_brute(m))
            assert checks.weiner_sum(m, k) == brute
