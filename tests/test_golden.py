import json

import pytest

from golden_campaigns import GOLDEN, campaign_digests, versions


def test_campaign_digests_match_the_golden_file(tmp_path):
    doc = json.loads(GOLDEN.read_text())
    got = campaign_digests(tmp_path)
    moved = sorted(k for k in doc["campaigns"] if got.get(k) != doc["campaigns"][k])
    if moved and doc["versions"] != versions():
        pytest.skip(f"digests from {doc['versions']}, running {versions()}: {moved}")
    assert moved == [] and sorted(got) == sorted(doc["campaigns"])
