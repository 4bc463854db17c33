"""Every row function's outputs equal the committed digest manifest."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import rows  # noqa: E402


def test_row_functions_match_the_digest_manifest(tmp_path):
    with open(rows.STORED) as fh:
        stored = json.load(fh)
    fresh = json.loads(json.dumps(rows.manifest(str(tmp_path))))
    assert fresh.keys() == stored.keys()
    for regime, outputs in stored.items():
        assert fresh[regime] == outputs, regime
