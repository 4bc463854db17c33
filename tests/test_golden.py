"""Every row function's outputs equal the committed digest manifest, and
every stored dual measure is matched within 1e-13."""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import rows  # noqa: E402


def stored(duals: bool) -> dict:
    with open(rows.STORED) as fh:
        return {k: v for k, v in json.load(fh).items() if k.startswith(rows.DUAL) == duals}


def test_row_functions_match_the_digest_manifest(tmp_path):
    want = stored(duals=False)
    fresh = json.loads(json.dumps(rows.manifest(str(tmp_path))))
    assert fresh.keys() == want.keys()
    for regime, outputs in want.items():
        assert fresh[regime] == outputs, regime


def test_dual_measures_match_the_manifest():
    want = stored(duals=True)
    fresh = rows.duals()
    assert fresh.keys() == want.keys()
    for key, entry in want.items():
        got = fresh[key]
        assert got["truncated"] == entry["truncated"], key
        n = max(len(got["weights"]), len(entry["weights"]))
        a, b = np.zeros(n), np.zeros(n)     # pad both pmfs with zeros
        a[:len(got["weights"])] = got["weights"]
        b[:len(entry["weights"])] = entry["weights"]
        assert np.abs(a - b).max() <= 1e-13, (key, float(np.abs(a - b).max()))
