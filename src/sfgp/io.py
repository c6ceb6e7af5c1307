"""File formats: point CSVs, JSON configs, and metric CSV rows.

Points travel as plain CSV, one point per row, d columns, with floats printed
at 17 significant digits so that read(write(x)) == x bitwise.  JSON payloads
carry an explicit schema_version field.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import PointSet

SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"


def _write_lines(path, lines) -> None:
    """Write newline-terminated lines through a temporary file, so a reader
    never sees a half-written file."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def write_points_csv(path, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _write_lines(path, [",".join(FLOAT_FMT % v for v in row) for row in points])


def _number(text: str, kinds=(float,)):
    """The number of the first of `kinds` that reads CSV field `text`, or
    None.  Python's int and float also read digit-group underscores ("1_0" as
    10); a field with one is no number."""
    if "_" in text:
        return None
    for kind in kinds:
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def read_points_csv(path) -> np.ndarray:
    """The (N, d) points of a CSV, one per line.  Blank lines are skipped,
    and so is a line before the first point none of whose fields is a
    number, a header.  Any other line that is not a row of numbers as wide
    as the first raises ValueError naming the file and the line."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            values = [_number(v) for v in line.split(",")]
            if not rows and all(v is None for v in values):
                continue  # a header
            if None in values:
                raise ValueError(f"{path}, line {lineno}: could not convert {line!r} to numbers")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}, line {lineno}: {len(values)} values, "
                                 f"but the first point has {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ValueError(f"no points found in {path}")
    return np.asarray(rows, dtype=float)


def write_pointset_csv(path, ps: PointSet) -> None:
    write_points_csv(path, ps.points)


def read_pointset_csv(path) -> PointSet:
    return PointSet(points=read_points_csv(path))


def write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def read_json(path) -> dict:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} in {path}")
    return payload


def write_csv_rows(path, fieldnames, rows) -> None:
    """Write dict rows; floats at 17 significant digits, None as empty."""
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
    _write_lines(path, lines)


def read_csv_rows(path) -> list:
    """Read dict rows back, recovering int/float/None cell types by
    `_number`'s rule, so a cell with a digit-group underscore stays text.  A
    file with no header, empty or blank, or a row whose cell count differs
    from the header's, raises ValueError naming the file."""
    with open(path) as fh:
        lines = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, 1)
                 if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no header row, the file is empty or blank")
    fieldnames = lines[0][1].split(",")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(fieldnames):
            raise ValueError(f"{path}, line {lineno}: {len(cells)} cells, "
                             f"but the header has {len(fieldnames)}")
        numbers = [_number(cell, (int, float)) for cell in cells]
        # a cell that is no number stays text, and an empty one is None
        rows.append({name: (cell or None) if number is None else number
                     for name, cell, number in zip(fieldnames, cells, numbers)})
    return rows


__all__ = [
    "SCHEMA_VERSION",
    "write_points_csv",
    "read_points_csv",
    "write_pointset_csv",
    "read_pointset_csv",
    "write_json",
    "read_json",
    "write_csv_rows",
    "read_csv_rows",
]
