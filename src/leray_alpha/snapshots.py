"""Binary field snapshots.

Layout (all little-endian):

    bytes 0..3    magic "LERA"
    bytes 4..7    format version, u32
    bytes 8..15   truncation n, u64
    bytes 16..55  nu, alpha, theta1, theta2, t as f64
    payload       M * 3 complex coefficients as (re, im) f64 pairs, canonical
                  half-lattice in lexicographic k order (M = ((2n+1)^3-1)/2)

Round trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import SpectralField, lattice

MAGIC = b"LERA"
VERSION = 1
_HEADER = struct.Struct("<4sIQ5d")


class SnapshotError(ValueError):
    """Base class for malformed snapshot files."""


class SnapshotMagicError(SnapshotError):
    pass


class SnapshotVersionError(SnapshotError):
    pass


class SnapshotTruncatedError(SnapshotError):
    pass


@dataclass(frozen=True)
class SnapshotMeta:
    n: int
    nu: float
    alpha: float
    theta1: float
    theta2: float
    t: float


def write_atomically(path: str | Path, write: Callable[[Path], object]) -> None:
    """Call write on a temporary path in the same directory, then rename it
    to path, so a file at path is always complete."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(partial)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_snapshot(field: SpectralField, meta: SnapshotMeta, path: str | Path) -> None:
    if meta.n != field.n:
        raise ValueError(f"meta truncation n={meta.n} does not match field n={field.n}")
    header = _HEADER.pack(MAGIC, VERSION, meta.n, meta.nu, meta.alpha, meta.theta1, meta.theta2, meta.t)
    payload = np.ascontiguousarray(field.coeffs, dtype="<c16")  # a view of the state, not a copy

    def write(partial: Path) -> None:
        with partial.open("wb") as handle:
            handle.writelines((header, payload))

    write_atomically(path, write)


def read_snapshot(path: str | Path) -> tuple[SpectralField, SnapshotMeta]:
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise SnapshotTruncatedError(f"{path}: file shorter than the magic")
    if blob[:4] != MAGIC:
        raise SnapshotMagicError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER.size:
        raise SnapshotTruncatedError(f"{path}: incomplete header ({len(blob)} bytes)")
    magic, version, n, nu, alpha, theta1, theta2, t = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise SnapshotVersionError(f"{path}: format version {version}, expected {VERSION}")
    meta = SnapshotMeta(n=int(n), nu=nu, alpha=alpha, theta1=theta1, theta2=theta2, t=t)
    expected = lattice(meta.n).size * 3 * 16
    if len(blob) - _HEADER.size != expected:
        raise SnapshotTruncatedError(
            f"{path}: payload holds {len(blob) - _HEADER.size} bytes, expected {expected} for n={meta.n}"
        )
    # a read-only view of the file's bytes, copied only on a big-endian host
    coeffs = np.frombuffer(blob, "<c16", offset=_HEADER.size).astype(np.complex128, copy=False).reshape(-1, 3)
    return SpectralField(meta.n, coeffs), meta
