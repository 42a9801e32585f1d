"""The verification sweep's sample stream.

For each identity, the number of samples it saw and the sample its worst
residual came from must not move under a change that keeps every random
draw.  A change that alters the draws on purpose regenerates the data with

    PYTHONPATH=src python tests/test_verify_fingerprint.py

which prints, per dimension, the rows whose entries moved against the file
it overwrites.
"""

import json
from pathlib import Path

import pytest

from finsler.verify import default_plan, run_verification

DATA = Path(__file__).parent / "data" / "verify_fingerprint.json"
DIMS = (2, 3, 4)


def fingerprint(dim):
    plan = default_plan(samples=6, seed=7, dim=dim, curve_samples=2, heavy_samples=2)
    return {
        r.name: {"count": r.count, **{k: r.worst[k] for k in ("metric", "kind", "x", "v")}}
        for r in run_verification(plan).results
    }


@pytest.mark.parametrize("dim", DIMS)
def test_sample_stream_matches_recorded_fingerprint(dim):
    expected = json.loads(DATA.read_text(encoding="utf-8"))[str(dim)]
    assert fingerprint(dim) == expected


def moved_rows(old, new):
    """Per dimension, the rows of fingerprint `new` that are added, removed
    or changed against `old`."""
    out = {}
    for dim, rows in new.items():
        before = old.get(dim, {})
        out[dim] = sorted(name for name in set(before) | set(rows) if before.get(name) != rows.get(name))
    return out


if __name__ == "__main__":
    old = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}
    doc = {str(dim): fingerprint(dim) for dim in DIMS}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for dim, names in moved_rows(old, doc).items():
        print(f"dim {dim}: " + (", ".join(names) if names else "no row moved"))
