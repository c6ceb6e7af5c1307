"""File formats: point CSVs, JSON configs, and metric CSV rows.

Points travel as plain CSV, one point per row, d columns, with floats printed
at 17 significant digits so that read(write(x)) == x bitwise.  JSON payloads
carry an explicit schema_version field.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .core import PointSet

SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % x


def write_points_csv(path, points: np.ndarray, header: Optional[str] = None) -> None:
    path = Path(path)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines = []
    if header:
        lines.append(header)
    for row in points:
        lines.append(",".join(FLOAT_FMT % v for v in row))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def read_points_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                if rows:
                    raise
                continue  # header line
    if not rows:
        raise ValueError(f"no points found in {path}")
    return np.asarray(rows, dtype=float)


def write_pointset_csv(path, ps: PointSet) -> None:
    write_points_csv(path, ps.points)


def read_pointset_csv(path) -> PointSet:
    return PointSet(points=read_points_csv(path))


def write_json(path, payload: dict) -> None:
    path = Path(path)
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def read_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} in {path}")
    return payload


def write_csv_rows(path, fieldnames, rows) -> None:
    """Write dict rows; floats at 17 significant digits, None as empty."""
    path = Path(path)
    lines = [",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            v = row[name]
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(FLOAT_FMT % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def read_csv_rows(path) -> list:
    """Read dict rows back, recovering int/float/None cell types."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    fieldnames = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(fieldnames, cells):
            if cell == "":
                row[name] = None
            else:
                try:
                    row[name] = int(cell)
                except ValueError:
                    try:
                        row[name] = float(cell)
                    except ValueError:
                        row[name] = cell
        rows.append(row)
    return rows


__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "write_points_csv",
    "read_points_csv",
    "write_pointset_csv",
    "read_pointset_csv",
    "write_json",
    "read_json",
    "write_csv_rows",
    "read_csv_rows",
]
