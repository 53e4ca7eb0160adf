"""Replay the committed corpora of `grassperm` behaviour.

tests/golden/count.tsv, enum.tsv, map.tsv, verify.tsv and table.tsv
hold, for each command, its exit code, the sha256 of its stdout and its
stderr; help.txt holds the --help texts, compared only on the Python
version that wrote them;
tests/golden/regenerate.py rewrites them by hand.
"""

import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from grassperm import cli

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def lines(name):
    """The corpus's lines, each split into its four fields."""
    return [text.split("\t")
            for text in (GOLDEN / name).read_text().splitlines()]


def corpus(name):
    for argv, code, digest, err in lines(name):
        yield pytest.param(shlex.split(argv), int(code), digest,
                           json.loads(err), id=argv)


def replay(capsys, argv, code, digest, err):
    got = cli.main(argv)
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest, err", corpus("count.tsv"))
def test_count_output_matches_the_corpus(capsys, argv, code, digest, err):
    replay(capsys, argv, code, digest, err)


@pytest.mark.parametrize("argv, code, digest, err", corpus("enum.tsv"))
def test_enum_output_matches_the_corpus(capsys, argv, code, digest, err):
    replay(capsys, argv, code, digest, err)


@pytest.mark.parametrize("argv, code, digest, err", corpus("map.tsv"))
def test_map_output_matches_the_corpus(capsys, argv, code, digest, err):
    replay(capsys, argv, code, digest, err)


@pytest.mark.parametrize("argv, code, digest, err", corpus("verify.tsv"))
def test_verify_output_matches_the_corpus(capsys, argv, code, digest, err):
    replay(capsys, argv, code, digest, err)


@pytest.mark.parametrize("argv, code, digest, err", corpus("table.tsv"))
def test_table_output_matches_the_corpus(capsys, argv, code, digest, err):
    replay(capsys, argv, code, digest, err)


def test_help_matches_the_corpus():
    # argparse lays --help out differently across Python versions, so
    # the text is only compared on the version that wrote it
    stored = (GOLDEN / "help.txt").read_text()
    written_on = stored.partition("\n")[0]
    if written_on != regenerate.python_version():
        pytest.skip(f"help.txt was written on {written_on}, this is"
                    f" {regenerate.python_version()}")
    assert regenerate.help_text() == stored


def refusals(name):
    """The refusal texts of a corpus, without the value refused."""
    return {json.loads(err).split(";")[0].split(" got ")[0]
            for _, code, _, err in lines(name) if code == "2"}


def test_corpus_covers_every_family_format_and_refusal():
    argvs = [shlex.split(argv) for argv, *_ in lines("count.tsv")]
    for family in cli.COUNT_FAMILIES:
        for fmt in ("csv", "json", "bfile"):
            for oracle in (False, True):
                assert any(argv[1] == family and argv[-1] == fmt
                           and ("--oracle" in argv) == oracle
                           for argv in argvs), (family, fmt, oracle)
    assert len(argvs) >= 100
    for text in ("exceeds the enumeration cap", "scan size",
                 "sizes end at", "needs --pattern", "needs --k"):
        assert any(text in refusal for refusal in refusals("count.tsv")), text


def test_enum_and_map_corpora_cover_every_family_and_direction():
    enums = [(shlex.split(argv), code) for argv, code, *_ in lines("enum.tsv")]
    for family in cli.ENUM_FAMILIES:
        for fmt in ("lines", "json"):
            assert any(argv[1] == family and argv[-1] == fmt and code == "0"
                       for argv, code in enums), (family, fmt)
        assert any(argv[1] == family and code == "2"
                   for argv, code in enums), family
    for text in ("exceeds the enumeration cap", "needs --pattern",
                 "must be at least 1", "must be non-negative"):
        assert any(text in refusal for refusal in refusals("enum.tsv")), text
    maps = [(shlex.split(argv), code) for argv, code, *_ in lines("map.tsv")]
    for direction in cli.MAPS:
        for code in ("0", "2"):
            assert any(argv[1] == direction and got == code
                       for argv, got in maps), (direction, code)


def test_verify_and_table_corpora_cover_every_target_and_refusal():
    verifies = [shlex.split(argv) for argv, *_ in lines("verify.tsv")]
    for target in cli.VERIFY_TARGETS:
        assert ["verify", target] in verifies, target
        assert any(argv[1] == target and len(argv) > 2
                   for argv in verifies), target
    for text in ("has no rows to check", "walks each size's family",
                 "holds each size's family in memory",
                 "verify thm51 sizes end at", "scan size"):
        assert any(text in refusal for refusal in refusals("verify.tsv")), text
    tables = [shlex.split(argv) for argv, *_ in lines("table.tsv")]
    for which in ("table1", "table2"):
        assert ["table", which] in tables, which
    for kmax in ("1", "2", "14", "15"):
        assert ["table", "table1", "--kmax", kmax] in tables, kmax
