"""Binary snapshot format: bit-exact round trips, distinct error kinds."""

import tracemalloc

import numpy as np
import pytest

from leray_alpha import ModelContext, random_field
from leray_alpha.snapshots import (
    SnapshotMagicError,
    SnapshotMeta,
    SnapshotTruncatedError,
    SnapshotVersionError,
    read_snapshot,
    write_snapshot,
)


@pytest.fixture
def snap(tmp_path):
    ctx = ModelContext(nu=0.7, alpha=1.2, theta1=0.25, theta2=1.25, n=3)
    field = random_field(ctx, seed=9)
    meta = SnapshotMeta(n=3, nu=0.7, alpha=1.2, theta1=0.25, theta2=1.25, t=0.375)
    path = tmp_path / "state.snap"
    write_snapshot(field, meta, path)
    return field, meta, path


def test_round_trip_bit_exact(snap):
    field, meta, path = snap
    loaded, loaded_meta = read_snapshot(path)
    assert np.array_equal(loaded.coeffs, field.coeffs)
    assert loaded_meta == meta


def test_read_holds_the_payload_once(tmp_path):
    # an n = 24 snapshot reads at 1.13 times its size: the file's bytes and
    # the finiteness check's mask, one bool per float; each copy of the
    # payload adds 1 (a slice of the bytes and a cast read 3.13)
    ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=24)
    field = random_field(ctx, seed=24)
    path = tmp_path / "state.snap"
    write_snapshot(field, SnapshotMeta(n=24, nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, t=0.0), path)
    read_snapshot(path)  # builds the lattice
    tracemalloc.start()
    try:
        loaded, _ = read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.coeffs.tobytes() == field.coeffs.tobytes()
    assert peak < 1.5 * path.stat().st_size


def test_truncated_payload_detected(snap):
    _, _, path = snap
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(SnapshotTruncatedError, match="payload"):
        read_snapshot(path)


def test_extra_bytes_detected(snap):
    _, _, path = snap
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SnapshotTruncatedError):
        read_snapshot(path)


def test_bad_magic_detected(snap):
    _, _, path = snap
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotMagicError, match="magic"):
        read_snapshot(path)


def test_version_mismatch_detected(snap):
    _, _, path = snap
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotVersionError, match="version"):
        read_snapshot(path)


def test_header_only_file_detected(tmp_path):
    path = tmp_path / "short.snap"
    path.write_bytes(b"LERA\x01\x00")
    with pytest.raises(SnapshotTruncatedError, match="header"):
        read_snapshot(path)


def test_meta_field_mismatch_rejected(snap):
    field, _, _ = snap
    wrong = SnapshotMeta(n=4, nu=1.0, alpha=1.0, theta1=0.0, theta2=1.0, t=0.0)
    with pytest.raises(ValueError, match="does not match"):
        write_snapshot(field, wrong, "/tmp/never-written.snap")


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    ctx = ModelContext(nu=0.7, alpha=1.2, theta1=0.25, theta2=1.25, n=3)
    meta = SnapshotMeta(n=3, nu=0.7, alpha=1.2, theta1=0.25, theta2=1.25, t=0.375)

    real_open = type(tmp_path).open

    def fail(self, mode="r", *args, **kwargs):  # the header goes out, then the disk is full
        with real_open(self, mode, *args, **kwargs) as handle:
            handle.write(b"LERA")
        raise OSError("disk full")

    monkeypatch.setattr(type(tmp_path), "open", fail)
    with pytest.raises(OSError, match="disk full"):
        write_snapshot(random_field(ctx, seed=9), meta, tmp_path / "state.snap")
    assert list(tmp_path.iterdir()) == []
