"""Replay the committed corpus of `grassperm count` behaviour.

tests/golden/count.tsv holds, for each command, its exit code, the
sha256 of its stdout and its stderr; tests/golden/regenerate.py
rewrites it by hand.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from grassperm import cli

CORPUS = Path(__file__).parent / "golden" / "count.tsv"


def corpus():
    for text in CORPUS.read_text().splitlines():
        argv, code, digest, err = text.split("\t")
        yield pytest.param(shlex.split(argv), int(code), digest,
                           json.loads(err), id=argv)


@pytest.mark.parametrize("argv, code, digest, err", corpus())
def test_count_output_matches_the_corpus(capsys, argv, code, digest, err):
    got = cli.main(argv)
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_corpus_covers_every_family_format_and_refusal():
    lines = [text.split("\t") for text in CORPUS.read_text().splitlines()]
    argvs = [shlex.split(argv) for argv, *_ in lines]
    for family in cli.MEMBER_COUNTS.keys() | {"descent-at", "finite-class",
                                              "avoiders"}:
        for fmt in ("csv", "json", "bfile"):
            for oracle in (False, True):
                assert any(argv[1] == family and argv[-1] == fmt
                           and ("--oracle" in argv) == oracle
                           for argv in argvs), (family, fmt, oracle)
    assert len(argvs) >= 100
    refusals = {json.loads(err).split(";")[0].split(" got ")[0]
                for _, code, _, err in lines if code == "2"}
    for text in ("exceeds the enumeration cap", "takes --cap up to",
                 "sizes end at", "needs --pattern", "needs --k"):
        assert any(text in refusal for refusal in refusals), text
