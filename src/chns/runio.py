"""Deterministic run outputs: records CSV, binary field snapshots, summary JSON.

Snapshot layout (little-endian), 64-byte header then the payload:

  bytes 0..7    magic "CHNS0001"
  bytes 8..11   uint32 rows (leading array dimension)
  bytes 12..15  uint32 cols
  bytes 16..19  uint32 field tag (see FIELD_TAGS)
  bytes 20..23  uint32 reserved (zero)
  bytes 24..31  float64 simulation time
  bytes 32..63  zero padding

Payload: rows*cols float64 values, row-major.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .diagnostics import CSV_COLUMNS, EnergyRecord
from .errors import InvariantViolation

MAGIC = b"CHNS0001"
HEADER_BYTES = 64
FIELD_TAGS = {"phi": 1, "mu": 2, "p": 3, "ux": 4, "uy": 5}


def format_float(x: float) -> str:
    return "%.17g" % x


def write_records_csv(path, records) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(format_float(v) for v in rec.as_row()) + "\n")


def read_records_csv(path) -> dict:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header != list(CSV_COLUMNS):
        raise InvariantViolation(f"unexpected CSV header {header}")
    data = np.array([[float(v) for v in row] for row in rows]) if rows \
        else np.zeros((0, len(CSV_COLUMNS)))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def validate_records(columns: dict, tol: float = 1e-9) -> list[str]:
    """Row-wise invariant checks on a records table; returns found problems."""
    problems = []
    n = len(columns["t"])
    for i in range(n):
        total = columns["total"][i]
        parts = columns["kinetic"][i] + columns["interfacial"][i] + columns["bulk"][i]
        if abs(total - parts) > tol * max(abs(total), 1.0):
            problems.append(f"row {i}: total != kinetic+interfacial+bulk")
    ts = columns["t"]
    if np.any(np.diff(ts) <= 0):
        problems.append("timestamps not strictly increasing")
    return problems


def write_snapshot(path, array: np.ndarray, field: str, t: float) -> None:
    array = np.ascontiguousarray(array, dtype="<f8")
    if array.ndim != 2:
        raise InvariantViolation("snapshots are 2D arrays")
    header = struct.pack("<8sIIII d", MAGIC, array.shape[0], array.shape[1],
                         FIELD_TAGS[field], 0, float(t))
    header = header.ljust(HEADER_BYTES, b"\0")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(array.tobytes(order="C"))


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
        payload = fh.read()
    if len(header) != HEADER_BYTES or header[:8] != MAGIC:
        raise InvariantViolation(f"{path}: bad snapshot header ({len(header)} bytes, "
                                 f"magic {header[:8]!r})")
    rows, cols, tag, _reserved, t = struct.unpack("<IIII d", header[8:32])
    if len(payload) != rows * cols * 8:
        raise InvariantViolation(f"{path}: payload of {len(payload)} bytes does not "
                                 f"hold {rows}x{cols} float64 values")
    name = {v: k for k, v in FIELD_TAGS.items()}.get(tag)
    if name is None:
        raise InvariantViolation(f"{path}: unknown field tag {tag}")
    array = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
    return {"rows": rows, "cols": cols, "field": name, "t": t}, array


def snapshot_state(directory, state, index: int) -> list[Path]:
    """Write all field snapshots of one state; returns the created paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    fields = {"phi": state.phi.values, "mu": state.mu.values, "p": state.p.values,
              "ux": state.u.ux, "uy": state.u.uy}
    for name, arr in fields.items():
        path = directory / f"{name}_{index:06d}.bin"
        write_snapshot(path, arr, name, state.t)
        written.append(path)
    return written


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
