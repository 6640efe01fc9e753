"""The counts ledger: the calibration path's work counts equal the committed file."""

import json

import counts_ledger

MOVED = (
    "the recomputed counts differ from tests/BENCH_counts.json at {}.  Counts "
    "follow float bits, so a change to the search, the grids, the kernels, or "
    "to numpy or libm can move them.  Regenerate the file with "
    "`PYTHONPATH=src python3 tests/counts_ledger.py --write` only together "
    "with a line in CHANGES.md that explains each moved entry; never loosen "
    "this test to absorb a move"
)


def test_counts_ledger_matches_the_file():
    got = counts_ledger.ledger()
    want = json.loads(counts_ledger.LEDGER_PATH.read_text())
    moved = [
        f"{case} / {key}"
        for case in sorted(set(got) | set(want))
        for key in sorted(set(got.get(case, {})) | set(want.get(case, {})))
        if got.get(case, {}).get(key) != want.get(case, {}).get(key)
    ]
    assert not moved, MOVED.format(", ".join(moved))
