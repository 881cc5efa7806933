"""Canonical report serialization.

Reports are JSON with sorted keys and floats printed to 12 significant
digits, so identical configurations produce byte-identical files.  Exact big
integers (word counts, box counts) are serialized as decimal strings.
"""

from __future__ import annotations

import csv
import io
import json
import math

SCHEMA_VERSION = 1
BIG_INT_CUTOFF = 1 << 53  # larger integers become decimal strings


def _canon(value):
    if isinstance(value, bool) or value is None:
        return "true" if value is True else "false" if value is False else "null"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return json.dumps(str(value))
        return format(value, ".12g")
    if isinstance(value, int):
        if abs(value) >= BIG_INT_CUTOFF:
            return json.dumps(str(value))
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{_canon(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return "[" + ",".join(_canon(v) for v in seq) + "]"
    return json.dumps(str(value))


def dumps_canonical(report: dict) -> str:
    doc = dict(report)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    return _canon(doc) + "\n"


def write_report(report: dict, path: str | None) -> str:
    text = dumps_canonical(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def cloud_to_csv(points) -> str:
    """One row per point; the header names the coordinates x1, x2, ..."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{i + 1}" for i in range(len(points[0]))])
    for p in points:
        writer.writerow([format(float(v), ".12g") for v in p])
    return buf.getvalue()


def cloud_from_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return [[float(v) for v in row] for row in rows[1:]]
