import struct

import numpy as np
import pytest

from chns.errors import InvariantViolation
from chns.diagnostics import CSV_COLUMNS, EnergyRecord
from chns.grid import Grid
from chns.runio import (HEADER_BYTES, read_records_csv, read_snapshot, snapshot_state,
                        validate_records, write_records_csv, write_snapshot)
from chns.solver import SimState

from conftest import random_scalar, random_vector


def test_snapshot_round_trip_is_exact(tmp_path, rng):
    arr = rng.standard_normal((6, 5))
    path = tmp_path / "p.bin"
    write_snapshot(path, arr, "p", 0.125)
    meta, back = read_snapshot(path)
    assert meta == {"rows": 6, "cols": 5, "field": "p", "t": 0.125}
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("make", [
    lambda rng: rng.standard_normal((6, 5)),
    lambda rng: rng.standard_normal((5, 6)).T,                 # not C-contiguous
    lambda rng: rng.standard_normal((6, 5)).astype(">f8"),     # big-endian
    lambda rng: np.arange(30).reshape(6, 5),                   # integers
], ids=["c_order", "transposed", "big_endian", "int"])
def test_snapshot_bytes_are_header_then_array(tmp_path, rng, make):
    arr = make(rng)
    path = tmp_path / "mu.bin"
    write_snapshot(path, arr, "mu", 0.25)
    header = struct.pack("<8sIIII d", b"CHNS0001", 6, 5, 2, 0, 0.25).ljust(HEADER_BYTES, b"\0")
    assert path.read_bytes() == header + np.asarray(arr, dtype="<f8").tobytes(order="C")


def _truncated_payload(raw):
    return raw[:-8]


def _unknown_tag(raw):
    return raw[:16] + struct.pack("<I", 99) + raw[20:]


def _short_header(raw):
    return raw[:20]


@pytest.mark.parametrize("corrupt, message", [
    (_truncated_payload, "payload"),
    (_unknown_tag, "tag"),
    (_short_header, "header"),
])
def test_malformed_snapshot_raises_package_error(tmp_path, corrupt, message):
    path = tmp_path / "ux.bin"
    write_snapshot(path, np.arange(12.0).reshape(3, 4), "ux", 1.0)
    raw = path.read_bytes()
    assert len(raw) == HEADER_BYTES + 12 * 8
    path.write_bytes(corrupt(raw))
    with pytest.raises(InvariantViolation, match=message):
        read_snapshot(path)


def _csv(path, rows):
    path.write_text("\n".join([",".join(CSV_COLUMNS)] + rows) + "\n", encoding="utf-8")


FULL_ROW = ",".join(["1"] * len(CSV_COLUMNS))
SHORT_ROW = ",".join(["1"] * (len(CSV_COLUMNS) - 3))


@pytest.mark.parametrize("rows, line", [
    ([FULL_ROW, SHORT_ROW, FULL_ROW], 3),
    ([SHORT_ROW], 2),
    ([FULL_ROW, FULL_ROW + ",1"], 3),
], ids=["short_among_full", "only_row_short", "long_last_row"])
def test_records_row_of_wrong_width_raises_package_error(tmp_path, rows, line):
    path = tmp_path / "records.csv"
    _csv(path, rows)
    with pytest.raises(InvariantViolation, match=f"line {line} has"):
        read_records_csv(path)


def _wrong_header(path):
    path.write_text(",".join(reversed(CSV_COLUMNS)) + "\n", encoding="utf-8")
    read_records_csv(path)


def _three_dimensional_snapshot(path):
    write_snapshot(path, np.zeros((2, 3, 4)), "phi", 0.0)


@pytest.mark.parametrize("act, message", [
    (_wrong_header, "unexpected CSV header"),
    (_three_dimensional_snapshot, "2D arrays"),
], ids=["csv_wrong_header", "snapshot_3d"])
def test_bad_table_or_array_raises_package_error(tmp_path, act, message):
    with pytest.raises(InvariantViolation, match=message):
        act(tmp_path / "out")


def test_records_header_is_the_record_fields_in_row_order(tmp_path):
    assert CSV_COLUMNS == ("t", "kinetic", "interfacial", "bulk", "total", "diss_u",
                           "diss_mu", "mass", "A", "B", "G", "res_phi", "res_u")
    rec = EnergyRecord(*(0.5 + i for i in range(len(CSV_COLUMNS))))
    path = tmp_path / "records.csv"
    write_records_csv(path, [rec])
    # each value is read back under the header name of the field it came from
    columns = read_records_csv(path)
    assert {name: col[0] for name, col in columns.items()} == \
        {name: getattr(rec, name) for name in CSV_COLUMNS}


def test_records_of_full_rows_read_back(tmp_path):
    path = tmp_path / "records.csv"
    _csv(path, [FULL_ROW, "", FULL_ROW])
    columns = read_records_csv(path)
    assert list(columns) == list(CSV_COLUMNS)
    assert all(col.tolist() == [1.0, 1.0] for col in columns.values())
    _csv(path, [])
    assert all(col.shape == (0,) for col in read_records_csv(path).values())


def test_snapshot_state_writes_each_field_under_its_tag(tmp_path, rng):
    grid = Grid(6, 4)
    st = SimState(0.375, random_vector(grid, rng), random_scalar(grid, rng),
                  random_scalar(grid, rng), random_scalar(grid, rng))
    paths = snapshot_state(tmp_path / "snaps", st, 7)
    fields = {"phi": st.phi.values, "mu": st.mu.values, "p": st.p.values,
              "ux": st.u.ux, "uy": st.u.uy}
    assert paths == [tmp_path / "snaps" / f"{name}_000007.bin" for name in fields]
    for path, (name, values) in zip(paths, fields.items()):
        meta, back = read_snapshot(path)
        assert (meta["field"], meta["t"]) == (name, 0.375)
        assert back.shape == values.shape and back.tobytes() == values.tobytes()


def _records(**changed):
    columns = {"t": [0.0, 0.5, 1.0], "kinetic": [1.0, 0.5, 0.25],
               "interfacial": [0.5, 0.5, 0.5], "bulk": [2.0, 1.0, 0.5]}
    columns["total"] = [k + i + b for k, i, b in zip(
        columns["kinetic"], columns["interfacial"], columns["bulk"])]
    for name, (row, value) in changed.items():
        columns[name][row] = value
    return {name: np.array(col) for name, col in columns.items()}


@pytest.mark.parametrize("changed, found", [
    ({"total": (1, np.nan)}, ["row 1: total"]),
    ({"total": (2, np.inf)}, ["row 2: total"]),
    ({"bulk": (0, np.inf)}, ["row 0: total"]),
    ({"t": (1, np.nan)}, ["timestamps"]),
    ({"t": (2, np.inf)}, ["timestamps"]),
    ({"t": (2, 0.5)}, ["timestamps"]),
    ({"total": (0, np.nan), "t": (0, np.nan)}, ["row 0: total", "timestamps"]),
], ids=["nan_total", "inf_total", "inf_part", "nan_t", "inf_t", "repeated_t", "nan_total_and_t"])
def test_validate_records_fails_a_nonfinite_or_inconsistent_row(changed, found):
    assert validate_records(_records()) == []
    problems = validate_records(_records(**changed))
    assert len(problems) == len(found)
    assert all(p.startswith(f) for p, f in zip(problems, found)), problems
