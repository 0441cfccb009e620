import json

import pytest

from golden_campaigns import (GOLDEN, campaign_digests, document_digests, mask_digests,
                              match_digests, pair_digests, text_digests, versions)


def _moved(want: dict, got: dict) -> list[str]:
    """Entries whose digests differ, and entries only one side holds."""
    return sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))


def _check(table: str, digests) -> None:
    doc = json.loads(GOLDEN.read_text())
    moved = _moved(doc[table], digests)
    if moved and doc["versions"] != versions():
        pytest.skip(f"digests from {doc['versions']}, running {versions()}: {moved}")
    assert moved == []


def test_campaign_digests_match_the_golden_file(tmp_path):
    _check("campaigns", campaign_digests(tmp_path))


def test_match_digests_match_the_golden_file(tmp_path):
    _check("matches", match_digests(tmp_path))


def test_document_digests_match_the_golden_file(tmp_path):
    _check("documents", document_digests(tmp_path))


def test_help_and_usage_digests_match_the_golden_file():
    _check("texts", text_digests())


def test_mask_digests_match_the_golden_file():
    _check("masks", mask_digests())


def test_pair_digests_match_the_golden_file():
    _check("pairs", pair_digests())
