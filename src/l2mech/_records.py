"""The text form of every record l2mech emits: JSON and CSV.

The table, sample batch and Monte-Carlo estimate writers and the CLI
all write through these two functions, so the format is decided here.
"""
from __future__ import annotations

import csv
import io
import json


def to_json(payload) -> str:
    """payload as JSON indented by 2; NaN or inf raises ValueError (JSON has none)."""
    return json.dumps(payload, indent=2, allow_nan=False)


def to_csv(header, rows) -> str:
    """RFC-4180 CSV with CRLF line ends: the header row, then rows.

    A float cell is written in its repr (shortest round-trip) form, None
    as an empty cell and any other value by str.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
