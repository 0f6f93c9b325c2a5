"""Replay tests/corpus.jsonl through cli.main: every request must give the
exit code and the stdout bytes recorded there (make_corpus.py writes it)."""

import hashlib
import json
import os

import pytest

from moriconic import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.jsonl")

with open(CORPUS, encoding="utf-8") as fh:
    RECORDS = [json.loads(line) for line in fh]

OPS = ("poincare", "stability", "stratify", "conic", "modify", "chamber")


def group(argv: list) -> str:
    return argv[0] if argv and argv[0] in OPS else "other"


@pytest.mark.parametrize("op", [*OPS, "other"])
def test_corpus_replays_byte_identical(capsys, op):
    records = [r for r in RECORDS if group(r["argv"]) == op]
    assert records
    mismatches = []
    for r in records:
        code = cli.main(list(r["argv"]))
        out = capsys.readouterr().out
        if "sha256" in r:
            same = hashlib.sha256(out.encode("utf-8")).hexdigest() == r["sha256"]
        else:
            same = out == r["stdout"]
        if code != r["code"] or not same:
            mismatches.append((r["argv"], code, out[:200]))
    assert not mismatches, f"{len(mismatches)} of {len(records)} differ; first: {mismatches[0]}"
