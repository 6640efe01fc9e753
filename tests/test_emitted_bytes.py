"""Every byte the CLI and the public writers emit, pinned by SHA-1.

Each case is one command line (written with --out and read back as
bytes, so line ends count) or one writer call on fixed inputs.  A
change to a key, its order, a float's spelling, a line end or a drawn
value shows up here as a changed digest.
"""

import hashlib

import pytest

from l2mech.calibrate import PrivacyParams
from l2mech.cli import main
from l2mech.errormodel import comparison_table, table_to_csv, table_to_json
from l2mech.mcverify import empirical_lhs
from l2mech.sampler import RngState, draw_batch

README_COMMANDS = {
    "calibrate-l2": "calibrate --mech l2 --eps 1 --delta 1e-5 --dim 1",
    "compare": "compare --eps 1 --delta 1e-5 --dim 8",
    "sample": "sample --mech l2 --dim 3 --sigma 1 --samples 2 --seed 7",
    "verify-sigma": "verify --eps 1 --delta 0.01 --dim 5 --sigma 0.75 --samples 100000",
}
MORE_COMMANDS = {
    "calibrate-gaussian": "calibrate --mech gaussian --eps 1 --delta 1e-5",
    "verify-search": "verify --eps 1 --delta 0.01 --dim 2 --samples 20000 --seed 4",
}

CLI_SHA1 = {
    ("calibrate-l2", "json"): "d310fe4cca31492346ea18b88c3e23e9f2cc0099",
    ("calibrate-l2", "csv"): "5e85d1e6582f1b35e90d5806ddb05ef8e66987b9",
    ("compare", "json"): "0fdac209ea1a0986658898ea926bd76fa700daee",
    ("compare", "csv"): "aefc036d01c48557c6d5ab2150d59af6118af60b",
    ("sample", "json"): "5038067f1c9399774bb359eca851534ba8653578",
    ("sample", "csv"): "f03144a18f8568620b4a6f87f7779497788f9b1d",
    ("verify-sigma", "json"): "48ea82a19088ae4c5c40344cb334077df11dd91d",
    ("verify-sigma", "csv"): "df6f6a2e9ad1be0feedcc9154d125e79000e9cc6",
    ("calibrate-gaussian", "json"): "e9a0f1b7bf81bbf4880d7957d6302a5c94551efa",
    ("calibrate-gaussian", "csv"): "14514cc32181aa8bdb6b51a142d975732475b1b2",
    ("verify-search", "json"): "c9c4864009ed0e9383e2f6ea1ee1b01022bdfcdc",
    ("verify-search", "csv"): "1082d44610bfb4b1af13585872a8150d0053b8d2",
}

WRITER_SHA1 = {
    "table_to_csv": "86b34cf34a75ff80d1a978a7cd1802e91b13b415",
    "table_to_json": "e872e680d94cd5f44cc15e00608a83fb6bf7d148",
    "SampleBatch.to_csv": "b7d3d302e1874a958cd6d3ca0f06b24a0da0902f",
    "SampleBatch.to_json": "1f94d2cdda732bbd25f272f5b3cc598cde66744b",
    "EmpiricalPrivacyEstimate.to_json": "fcc90a5b6cf8ee957692f238c166ba7f4c914f4a",
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@pytest.mark.parametrize("name, fmt", sorted(CLI_SHA1), ids="-".join)
def test_cli_output_bytes(name, fmt, tmp_path):
    args = {**README_COMMANDS, **MORE_COMMANDS}[name].split()
    target = tmp_path / "out"
    assert main(args + ["--format", fmt, "--out", str(target)]) == 0
    assert _sha1(target.read_bytes()) == CLI_SHA1[name, fmt]


def test_writer_output_bytes():
    rows = comparison_table(PrivacyParams(1.0, 1e-5), 4)
    batch = draw_batch("l2", 3, 0.5, 4, 11, stream_id=2)
    estimate = empirical_lhs(3, 0.8, 1.0, 5000, RngState(5, 1))
    got = {
        "table_to_csv": table_to_csv(rows),
        "table_to_json": table_to_json(rows),
        "SampleBatch.to_csv": batch.to_csv(),
        "SampleBatch.to_json": batch.to_json(),
        "EmpiricalPrivacyEstimate.to_json": estimate.to_json(),
    }
    assert {k: _sha1(v.encode()) for k, v in got.items()} == WRITER_SHA1
