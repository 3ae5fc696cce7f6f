import struct

import numpy as np
import pytest

from chns.errors import InvariantViolation
from chns.runio import HEADER_BYTES, read_snapshot, write_snapshot


def test_snapshot_round_trip_is_exact(tmp_path, rng):
    arr = rng.standard_normal((6, 5))
    path = tmp_path / "p.bin"
    write_snapshot(path, arr, "p", 0.125)
    meta, back = read_snapshot(path)
    assert meta == {"rows": 6, "cols": 5, "field": "p", "t": 0.125}
    assert back.tobytes() == arr.tobytes()


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
