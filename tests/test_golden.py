"""Byte-for-byte comparison of current output with the golden corpus."""

from __future__ import annotations

import pytest

from stabmatch.cli import main

from .golden_corpus import GOLDEN_DIR, build


@pytest.fixture(scope="module")
def produced():
    return build()


def test_same_file_set(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_bytes_match(produced, name):
    assert produced[name].encode() == (GOLDEN_DIR / name).read_bytes()


def test_corpus_covers_every_check_verdict(produced):
    reports = "".join(
        v for k, v in produced.items() if k.endswith((".run.txt", ".report.txt"))
    )
    assert "audit: pass" in reports and "audit: fail" in reports
    assert ": skip" in reports


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN_DIR.iterdir()
    if p.name.startswith("gnm24-") and p.suffix == ".jsonl"
))
def test_verify_reprints_the_run_report(capsys, name):
    assert main(["verify", "--trace", str(GOLDEN_DIR / name)]) == 0
    run_out = (GOLDEN_DIR / name.replace(".jsonl", ".run.txt")).read_text()
    assert run_out.endswith(capsys.readouterr().out)
