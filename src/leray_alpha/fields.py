"""Divergence-free spectral fields on the periodic torus and their diagonal
operator calculus.

A field is stored as one complex 3-vector per canonical wavevector of the
truncated lattice {k in Z^3 \\ {0} : |k_i| <= n}.  Only one representative of
each +-k pair is kept (k3 > 0, or k3 = 0 and k2 > 0, or k2 = k3 = 0 and
k1 > 0); the conjugate half is implied, so reconstructed physical fields are
real by construction and the zero mode never exists.  Sobolev norms follow
the lattice convention ||u||_s^2 = sum_k |k|^{2s} |u_k|^2 over the full
(both halves) lattice; L^p norms use the volume-normalised measure
dx/(2pi)^3 so that the p = 2 case coincides with the lattice sum.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Threads of one product-grid transform (from n = 15 on, see
# _THREADED_MIN_NG).  numpy.fft runs each call on the calling thread, so the
# transform starts and joins its own threads per call (see _split); every
# split is along an axis that is not being transformed, so each 1-D line
# sees the same input and the bytes are the same for any setting.
_FFT_WORKERS = 1


def set_fft_workers(workers: int) -> None:
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(workers))


def get_fft_workers() -> int:
    return _FFT_WORKERS


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def default_fft_workers() -> int:
    return min(2, usable_cpus())


def _split(threads: int, count: int, work) -> None:
    """work(part, start, stop) over range(count) in up to `threads`
    contiguous parts.  Part 0 runs on this thread, and alone it is called
    directly; the others run on threads started and joined here, so none
    outlives the call (a later fork copies no kernel thread).  Each runs
    under a copy of the caller's context, which holds numpy's errstate."""
    parts = min(threads, count)
    if parts <= 1:
        work(0, 0, count)
        return
    bounds = [count * i // parts for i in range(parts + 1)]
    errors = []

    def run(part: int) -> None:
        try:
            work(part, bounds[part], bounds[part + 1])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    others = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, part)) for part in range(1, parts)
    ]
    for thread in others:
        thread.start()
    try:
        work(0, bounds[0], bounds[1])
    finally:
        for thread in others:
            thread.join()
    if errors:
        raise errors[0]


def _forward_scale(ng: int) -> float:
    """The norm="forward" factor of a 3-D r2c on ng^3 points as pocketfft's
    multi-axis r2c applies it: once, after the transform along z, rounded
    from long double.  numpy.fft.rfftn scales per axis instead, which
    differs in the last bit."""
    return float(np.longdouble(1) / np.longdouble(ng**3))


def next_fft_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (FFT-friendly grid length)."""
    size = max(1, int(m))
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


class _GridPlan:
    """Scatter/gather indexing between the canonical half-lattice and the
    rfftn layout of a cubic grid with ng points per axis."""

    def __init__(self, lat: "Lattice", ng: int):
        if ng < 2 * lat.n + 1:
            raise ValueError(f"grid size {ng} cannot resolve truncation n={lat.n}")
        self.lattice = lat
        self.ng = ng
        self.half_shape = (ng, ng, ng // 2 + 1)
        # rfftn positions of Lattice.row_wavevectors: the lattice rows, then
        # the kz = 0 mirror rows (all k3 >= 0 < ng//2)
        k = lat.row_wavevectors
        self.idx_rows = np.ravel_multi_index((np.mod(k[:, 0], ng), np.mod(k[:, 1], ng), k[:, 2]), self.half_shape)
        # signed wavenumbers of the rfftn layout, broadcastable to half_shape
        line = np.rint(np.fft.fftfreq(ng) * ng)
        self.kx = line.reshape(ng, 1, 1)
        self.ky = line.reshape(1, ng, 1)
        self.kz = np.arange(ng // 2 + 1, dtype=float).reshape(1, 1, ng // 2 + 1)
        self.scale = _forward_scale(ng)

    def scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """Place half-lattice coefficients (M, 3) into a (3, *half_shape)
        complex array suitable for irfftn."""
        lat = self.lattice
        out = np.zeros((3,) + self.half_shape, dtype=np.complex128)
        flat = out.reshape(3, -1)
        flat[:, self.idx_rows[: lat.size]] = coeffs.T
        flat[:, self.idx_rows[lat.size :]] = np.conj(coeffs[lat.mirror_rows]).T
        return out

    def gather(self, spectrum: np.ndarray) -> np.ndarray:
        """Read the canonical half-lattice back out of a (3, *half_shape)
        rfftn spectrum."""
        return np.ascontiguousarray(spectrum.reshape(3, -1)[:, self.idx_rows[: self.lattice.size]].T)

    def to_physical(self, spectrum: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spectrum, s=(self.ng,) * 3, axes=(-3, -2, -1), norm="forward")

    def to_spectrum(self, values: np.ndarray) -> np.ndarray:
        """rfftn(values, norm="forward") over the last three axes, in
        pocketfft's multi-axis order: r2c along z, the scale, then c2c along
        x and along y."""
        spectrum = np.fft.rfft(values, axis=-1)
        spectrum.view(float)[...] *= self.scale
        np.fft.fft(spectrum, axis=-3, out=spectrum)
        return np.fft.fft(spectrum, axis=-2, out=spectrum)


# x-planes of the product grid carried from the inverse to the forward
# transform per pass of the slab loop: two keep a thread's slab buffers at
# 1.8 MB at n = 24 (five took 4.5 MB for a kernel about 3% faster)
_SLAB_DEPTH = 2
# fields one product-grid transform takes: advect's velocity and 9 derivatives
_PRODUCT_FIELDS = 12
# smaller product grids (n < 15) run on one thread: starting threads and
# passing the GIL between them cost more than the split saves there (n = 8:
# 2.7 ms a call on one thread, 3.3 ms on two)
_THREADED_MIN_NG = 48


class _ProductGrid:
    """Pruned transforms between the truncation cube and the product grid
    (lat.product_ng points per axis) for the quadratic terms.

    Only the |k_i| <= n cube of a grid spectrum carries data.  The inverse
    transform runs the c2c along x on a compact (fields, ng, 2n + 1, n + 1)
    block, then slab by slab along x the c2c along y and the c2r along z, and
    hands each physical slab to a product callback; the forward transform
    runs the r2c along z per slab and keeps kz <= n, then the c2c along x and
    along y on the kept bands.  That is the axis order pocketfft uses inside
    irfftn and rfftn, so every 1-D line that is transformed sees the same
    input as on the full grid, the skipped lines are all-zero, and the result
    is bitwise equal to the _GridPlan path.

    The block is filled straight from the coefficient arrays: the lattice
    rows and the conjugate kz = 0 mirror rows go to their cells through
    precomputed flat indices, and the derivative fields i k_m v_j are formed
    in place on the kept x slices, [0, n] and [ng - n, ng).  A slab's grids
    are (fields, ng, planes, ...), y before the x-planes, so numpy.fft runs
    each stage in one loop per field at most, and the c2r zero-pads kz > n
    itself.  Each stage is split over the threads along an axis it does not
    transform: the fill and the forward y stage, gather and projection by
    kept kx row (which owns the lattice and mirror rows of its kx), the
    inverse x stage by field, the slab loop by x-plane (an even share each,
    in slabs of _SLAB_DEPTH on its own buffers) and the forward x stage by
    (component, y) row.  The stages run in place on persistent buffers, so
    each call re-zeroes the cells no row covers (the origin in the fill, the
    x zero band in the x stage), and one instance must not serve two callers
    at once.

    The kernel keeps one storage array, x-major (ng, 12, 2n + 1, n + 1), and
    two slab buffers per thread.  block is its (fields, x, y, z) view.  Once
    the slab loop has copied an x-plane into its y-stage buffer, that plane's
    forward spectrum (3, ng, n + 1) goes in the plane's first cells: rows
    views it as (x, 3 ng, z) and forward as (3, x, y, z).  A slab's products
    reuse the y-stage buffer after the c2r has read it, and its r2c output
    the physical buffer after the products are formed.
    """

    def __init__(self, lat: "Lattice"):
        n, ng = lat.n, lat.product_ng
        self.lattice = lat
        self.n = n
        self.ng = ng
        # the one storage array, x-major: each x-plane holds its 12 fields,
        # and after the slab loop has read it, its forward spectrum
        self.storage = np.zeros((ng, _PRODUCT_FIELDS, 2 * n + 1, n + 1), dtype=np.complex128)
        self.block = self.storage.transpose(1, 0, 2, 3)
        # the derivative fields, [m, j] = block field 3 + 3 m + j
        self.grad = self.block[3:].reshape(3, 3, ng, 2 * n + 1, n + 1)
        # flat offsets in the storage, from the first cell of a field, of the
        # three components of each spectral row: the lattice rows, then the
        # kz = 0 mirror rows
        plane = self.storage[0].size
        rows = lat.row_wavevectors
        cells = np.mod(rows[:, 0], ng) * plane + np.ravel_multi_index(
            (np.mod(rows[:, 1], 2 * n + 1), rows[:, 2]), (2 * n + 1, n + 1)
        )
        idx_block = cells[:, None] + self.block[0, 0].size * np.arange(3)
        self.idx_rows, self.idx_mirrors = idx_block[: lat.size], idx_block[lat.size :]
        # k_x and k_y per (x, y) cell of the block and k_z, each + 0j as a
        # complex x float multiply casts them
        self.kxy = np.empty((2, 1, ng, 2 * n + 1, 1), dtype=np.complex128)
        self.kxy[0] = np.rint(np.fft.fftfreq(ng) * ng).reshape(ng, 1, 1)
        self.kxy[1] = np.rint(np.fft.fftfreq(2 * n + 1) * (2 * n + 1)).reshape(2 * n + 1, 1)
        self.kz = np.arange(n + 1, dtype=np.complex128)
        self.scale = _forward_scale(ng)
        self.rows = self.storage.reshape(ng, plane)[:, : 3 * ng * (n + 1)].reshape(ng, 3 * ng, n + 1)
        self.forward = self.rows.reshape(ng, 3, ng, n + 1).transpose(1, 0, 2, 3)
        # flat positions in the storage of the lattice's (M, 3) coefficients
        k = lat.wavevectors
        cells = np.mod(k[:, 0], ng) * plane + np.ravel_multi_index((np.mod(k[:, 1], ng), k[:, 2]), (ng, n + 1))
        self.idx_gather = cells[:, None] + ng * (n + 1) * np.arange(3)
        # per kx = -n..n + 1, the first lattice row of that kx (the rows run
        # in ascending kx) and the number of mirror rows that land at kx or
        # above (a mirror row of kx' lands at -kx', so they run in descending kx)
        kxs = np.arange(-n, n + 2)
        self.kx_rows = np.searchsorted(k[:, 0], kxs).tolist()
        self.kx_mirrors = np.searchsorted(k[lat.mirror_rows, 0], -kxs, side="right").tolist()
        # per thread of the slab loop: the y stage, which then holds the
        # products, and physical, which then holds the r2c output
        self.slab_buffers: list[tuple[np.ndarray, np.ndarray]] = []

    def _kept(self, start: int, stop: int) -> list[tuple[slice, slice, slice]]:
        """The kept kx rows start..stop-1, in the order kx = 0..n, -n..-1,
        as (x slice, lattice row slice, mirror row slice) triples, one per
        kx sign: the lattice rows and the mirror rows of a range of kx are
        one slice each."""
        n, ng = self.n, self.ng
        rows, mirrors = self.kx_rows, self.kx_mirrors
        # the kx >= 0 and kx < 0 spans of the range, from kept row i as
        # kx + n = i + n and i - n - 1; x-plane kx mod ng = (kx + n) + to_x
        spans = ((start + n, min(stop, n + 1) + n, -n), (max(start, n + 1) - n - 1, stop - n - 1, ng - n))
        return [
            (slice(lo + to_x, hi + to_x), slice(rows[lo], rows[hi]), slice(mirrors[hi], mirrors[lo]))
            for lo, hi, to_x in spans
            if lo < hi
        ]

    def _fill(self, velocity: np.ndarray, field: np.ndarray, derivatives: bool, start: int, stop: int) -> None:
        """Kept kx rows start..stop-1 of the block (see _kept): velocity into
        fields 0:3, and field into 3:6, or into 9:12 with the nine rows
        i k_m field_j in 3:12 when derivatives is set.  A spectral row covers
        every cell of the kept rows but the origin, which the part holding
        kx = 0 zeroes; the x zero band is left to _inverse_x."""
        if start == 0:
            self.block[:, 0, 0, 0] = 0
        flat, grad = self.storage.reshape(-1), self.grad
        for xs, rows, mirrors in self._kept(start, stop):
            for first, coeffs in ((0, velocity), (9 if derivatives else 3, field)):
                fields = flat[first * self.block[0, 0].size :]
                fields[self.idx_rows[rows]] = coeffs[rows]
                fields[self.idx_mirrors[mirrors]] = np.conj(coeffs[self.lattice.mirror_rows[mirrors]])
            if derivatives:
                # i k_m v_j as (v_j k_m) i, the full-grid path's arithmetic and bytes
                v = grad[2, :, xs]
                np.multiply(v, self.kxy[:, :, xs], out=grad[:2, :, xs])
                np.multiply(v, self.kz, out=v)  # z last: it overwrites v's slot
                grad[:, :, xs] *= 1j

    def _inverse_x(self, start: int, stop: int) -> None:
        """Fields start..stop-1 of the block: re-zero their x zero band,
        which the previous call's c2c filled, then the c2c along x in place."""
        n, ng, fields = self.n, self.ng, self.block[start:stop]
        fields[:, n + 1 : ng - n] = 0
        np.fft.ifft(fields, axis=1, norm="forward", out=fields)

    def _slab_pass(self, by_x: np.ndarray, combine, buffers: tuple, start: int, stop: int) -> None:
        """x-planes start..stop-1 of the slab loop, in slabs of at most
        _SLAB_DEPTH planes, from the x-transformed block into their x-planes
        of self.forward, which overwrite the planes' storage after by_y has
        copied them.  buffers are the thread's two: by_y, which then holds
        the products, and physical, which then holds the r2c output."""
        n, ng = self.n, self.ng
        fields = len(by_x)
        for x0 in range(start, stop, _SLAB_DEPTH):
            x1 = min(stop, x0 + _SLAB_DEPTH)
            size = ng * (x1 - x0)
            by_y = buffers[0][: fields * size * (n + 1)].reshape(fields, ng, x1 - x0, n + 1)
            physical = buffers[1].view(float)[: fields * size * ng].reshape(fields, ng, x1 - x0, ng)
            products = buffers[0].view(float)[: 3 * size * ng].reshape(3, ng, x1 - x0, ng)
            half = buffers[1][: 3 * size * (ng // 2 + 1)].reshape(3, ng, x1 - x0, ng // 2 + 1)
            slab = by_x[:, x0:x1].transpose(0, 2, 1, 3)
            by_y[:, : n + 1] = slab[:, : n + 1]
            by_y[:, n + 1 : ng - n] = 0
            by_y[:, ng - n :] = slab[:, n + 1 :]
            np.fft.ifft(by_y, axis=1, norm="forward", out=by_y)
            np.fft.irfft(by_y, n=ng, axis=3, norm="forward", out=physical)
            combine(physical, products)
            np.fft.rfft(products, axis=3, out=half)
            kept = half[..., : n + 1].view(float).transpose(0, 2, 1, 3)
            np.multiply(kept, self.scale, out=self.forward[:, x0:x1].view(float))

    def _finish(self, out: np.ndarray, project: bool, start: int, stop: int) -> None:
        """The forward y stage of the kept kx rows start..stop-1 (see
        _kept), one contiguous (3, y, z) x-plane of self.rows at a time,
        then the gather of their lattice rows from the storage into out,
        Leray-projected if project."""
        n, ng = self.n, self.ng
        for xs, rows, _ in self._kept(start, stop):
            for x in range(xs.start, xs.stop):
                plane = self.rows[x].reshape(3, ng, n + 1)
                np.fft.fft(plane, axis=1, out=plane)
            np.take(self.storage.reshape(-1), self.idx_gather[rows], out=out[rows], mode="clip")
            if project:
                self.lattice.project(out, rows)

    def transform(
        self, velocity: np.ndarray, field: np.ndarray, combine, out: np.ndarray, derivatives: bool, project: bool
    ) -> None:
        """Write into out (M, 3) the half-lattice coefficients of the
        truncated spectrum of three physical products of the half-lattice
        coefficients velocity and field (M, 3), Leray-projected if project:
        the block holds velocity and field, and with derivatives also the
        nine i k_m field_j (see _fill).  combine(physical, products) writes
        the three pointwise products of the block's fields on one slab,
        physical (fields, ...), into products (3, ...) of the same grid
        shape.  The fill and _finish split the 2n + 1 kept kx rows over the
        threads."""
        n, ng = self.n, self.ng
        threads = _FFT_WORKERS if ng >= _THREADED_MIN_NG else 1
        fields = 12 if derivatives else 6
        _split(threads, 2 * n + 1, lambda part, a, b: self._fill(velocity, field, derivatives, a, b))
        _split(threads, fields, lambda part, a, b: self._inverse_x(a, b))
        size = ng * _SLAB_DEPTH * _PRODUCT_FIELDS
        while len(self.slab_buffers) < min(threads, ng):
            # by_y and physical (as complex pairs); both outsize the
            # products and the r2c output they later hold
            self.slab_buffers.append(
                (np.empty(size * (n + 1), dtype=np.complex128), np.empty(size * ng // 2, dtype=np.complex128))
            )
        block = self.block[:fields]
        _split(threads, ng, lambda part, a, b: self._slab_pass(block, combine, self.slab_buffers[part], a, b))
        # the forward x stage by (component, y) row of the 3-D row view:
        # numpy.fft copies the whole operand of an in-place call on the 4-D
        # self.forward view, but not on this view or on a contiguous x-plane
        # (the y stage in _finish)
        rows = self.rows
        _split(threads, 3 * ng, lambda part, a, b: np.fft.fft(rows[:, a:b], axis=0, out=rows[:, a:b]))
        _split(threads, 2 * n + 1, lambda part, a, b: self._finish(out, project, a, b))


def _is_canonical(k1, k2, k3):
    """Whether k (ints or integer arrays) is the stored member of its +-k pair."""
    return (k3 > 0) | ((k3 == 0) & ((k2 > 0) | ((k2 == 0) & (k1 > 0))))


class Lattice:
    """Canonical half-lattice for truncation n, with cached multipliers and
    grid plans; obtain instances through lattice(n).  It owns the mode order
    and lookup, the kz = 0 mirror rows and the Leray projection."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("truncation n must be >= 1")
        self.n = n
        side = np.arange(-n, n + 1)
        k1, k2, k3 = np.meshgrid(side, side, side, indexing="ij")
        # the ij meshgrid ravels in lexicographic (k1, k2, k3) order, which
        # the mask keeps; snapshot payloads rely on it
        keep = _is_canonical(k1, k2, k3).ravel()
        self.wavevectors = np.stack([k1.ravel()[keep], k2.ravel()[keep], k3.ravel()[keep]], axis=1)
        self.wavevectors.setflags(write=False)
        self.size = len(self.wavevectors)
        # rank of each mode in the lexicographic order of the whole cube
        self._ranks = np.flatnonzero(keep)
        self.k_sq = np.einsum("ij,ij->i", self.wavevectors, self.wavevectors).astype(float)
        self.k_sq.setflags(write=False)
        self.kfloat = self.wavevectors.astype(float)
        self.kfloat.setflags(write=False)
        # modes in the kz = 0 plane also fill their conjugate image in a grid
        # spectrum, so that the plane is Hermitian under 2D index negation
        self.mirror_rows = np.flatnonzero(self.wavevectors[:, 2] == 0)
        self.row_wavevectors = np.concatenate([self.wavevectors, -self.wavevectors[self.mirror_rows]])
        # product grid large enough that the 2/3-rule band of the grid covers
        # the whole truncation cube: quadratic products are then alias-free
        # and equal the exact truncated convolution
        self.product_ng = next_fft_size(3 * n + 2)
        self.transform_ng = next_fft_size(2 * n + 2)
        self._plans: dict[int, _GridPlan] = {}
        self._product_grid: _ProductGrid | None = None
        self._powers: dict[float, np.ndarray] = {}

    def plan(self, ng: int) -> _GridPlan:
        plan = self._plans.get(ng)
        if plan is None:
            plan = _GridPlan(self, ng)
            self._plans[ng] = plan
        return plan

    def product_grid(self) -> _ProductGrid:
        """Workspace of the pruned product-grid transforms (per process)."""
        if self._product_grid is None:
            self._product_grid = _ProductGrid(self)
        return self._product_grid

    def power(self, exponent: float) -> np.ndarray:
        """|k|^exponent per stored mode (exponent may be negative: k != 0)."""
        exponent = float(exponent)
        arr = self._powers.get(exponent)
        if arr is None:
            arr = self.k_sq ** (exponent / 2.0)  # all ones for exponent 0
            arr.setflags(write=False)
            self._powers[exponent] = arr
        return arr

    def index_of(self, k: tuple[int, int, int]) -> int:
        n, side = self.n, 2 * self.n + 1
        if len(k) == 3 and all(abs(c) <= n for c in k):
            rank = ((k[0] + n) * side + k[1] + n) * side + k[2] + n
            row = int(np.searchsorted(self._ranks, rank))
            if row < self.size and self._ranks[row] == rank:
                return row
        raise ValueError(f"wavevector {k} is not a canonical mode of n={self.n}")

    def project(self, coeffs: np.ndarray, rows: slice = slice(None)) -> None:
        """Leray projection of coefficients (M, 3) in place, of the lattice
        rows `rows` (all by default): u_k <- u_k - (u_k . k) k / |k|^2.  Its
        summation order fixes the sign of exactly-zero coefficients, which
        snapshot bytes show; each row is reduced alone, so projecting the
        rows in parts gives the bytes of one projection."""
        part, k = coeffs[rows], self.kfloat[rows]
        dots = np.einsum("ij,ij->i", part, k)
        dots /= self.k_sq[rows]
        for c in range(3):  # one component at a time: no (M, 3) temporary
            part[:, c] -= dots * k[:, c]


@lru_cache(maxsize=16)
def lattice(n: int) -> Lattice:
    return Lattice(n)


def canonical_mode(k: tuple[int, int, int]) -> tuple[int, int, int]:
    """Map a wavevector onto its stored +-pair representative."""
    k = tuple(int(c) for c in k)
    if k == (0, 0, 0):
        raise ValueError("the zero mode is excluded (fields have zero mean)")
    if _is_canonical(*k):
        return k
    return (-k[0], -k[1], -k[2])


class NonFiniteStateError(ValueError):
    """A field's coefficients contain inf or nan: the numerical blow-up on
    which the integrator halts a trajectory."""


@dataclass(frozen=True)
class SpectralField:
    """Velocity field as Fourier coefficients on the canonical half-lattice.

    coeffs has shape (M, 3) where M = ((2n+1)^3 - 1) / 2; row order matches
    lattice(n).wavevectors.  Instances are immutable.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        lat = lattice(self.n)
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (lat.size, 3):
            raise ValueError(
                f"coefficient array must have shape ({lat.size}, 3) for n={self.n}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise NonFiniteStateError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def lattice(self) -> Lattice:
        return lattice(self.n)

    def divergence_defect(self) -> float:
        """max_k |u_k . k| / (|u_k| |k|), 0.0 for the zero field."""
        lat = self.lattice
        dots = np.abs(np.einsum("ij,ij->i", self.coeffs, lat.kfloat))
        scale = np.linalg.norm(self.coeffs, axis=1) * np.sqrt(lat.k_sq)
        mask = scale > 0
        if not mask.any():
            return 0.0
        return float(np.max(dots[mask] / scale[mask]))

    def is_divergence_free(self, rtol: float = 1e-12) -> bool:
        return self.divergence_defect() <= rtol

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_truncation(self, other)
        return SpectralField(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_truncation(self, other)
        return SpectralField(self.n, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.n, self.coeffs * scalar)

    __rmul__ = __mul__

    @classmethod
    def zero(cls, n: int) -> "SpectralField":
        return cls(n, np.zeros((lattice(n).size, 3), dtype=np.complex128))

    @classmethod
    def single_mode(cls, n: int, k: tuple[int, int, int], amplitude: complex) -> "SpectralField":
        """Divergence-free field carrying one +-k pair with L^2 norm
        |amplitude|; the polarisation is a fixed unit vector orthogonal to k."""
        k = canonical_mode(k)
        lat = lattice(n)
        coeffs = np.zeros((lat.size, 3), dtype=np.complex128)
        coeffs[lat.index_of(k)] = (amplitude / math.sqrt(2.0)) * polarization(k)
        return cls(n, coeffs)


def _check_same_truncation(a: SpectralField, b: SpectralField) -> None:
    if a.n != b.n:
        raise ValueError(f"truncation mismatch: n={a.n} vs n={b.n}")


def polarization(k: tuple[int, int, int]) -> np.ndarray:
    """Deterministic real unit vector orthogonal to k."""
    kv = np.asarray(k, dtype=float)
    helper = np.array([0.0, 0.0, 1.0]) if (k[0], k[1]) != (0, 0) else np.array([1.0, 0.0, 0.0])
    e = np.cross(kv, helper)
    return e / np.linalg.norm(e)


@dataclass(frozen=True)
class ModelContext:
    """Model parameters and truncation.

    nu > 0 viscosity, alpha > 0 smoothing length scale, theta1 >= 0 smoothing
    order, theta2 > 0 dissipation order, n >= 1 cube truncation |k_i| <= n.
    """

    nu: float
    alpha: float
    theta1: float
    theta2: float
    n: int

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not (self.theta1 >= 0 and math.isfinite(self.theta1)):
            raise ValueError("theta1 must be >= 0 and finite")
        try:  # the smoothing filter's factor; a float power that overflows raises
            self.alpha ** (2.0 * self.theta1)
        except OverflowError:
            raise ValueError("alpha^(2 theta1) must be a finite double") from None
        if not (self.theta2 > 0 and math.isfinite(self.theta2)):
            raise ValueError("theta2 must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        try:  # the largest norm weight |k|^{2 (theta2 + 1)}, at |k|^2 = 3 n^2
            float(3 * self.n**2) ** (self.theta2 + 1.0)
        except OverflowError:
            raise ValueError("(3 n^2)^(theta2 + 1) must be a finite double") from None

    @property
    def lattice(self) -> Lattice:
        return lattice(self.n)

    @property
    def filter_multiplier(self) -> np.ndarray:
        """Diagonal symbol of (I + alpha^{2 theta1} Lambda^{2 theta1})^{-1},
        in (0, 1] for every mode."""
        return _filter_multiplier(self.n, self.alpha, self.theta1)

    @property
    def dissipation_multiplier(self) -> np.ndarray:
        """Diagonal symbol |k|^{2 theta2} of the fractional dissipation."""
        return self.lattice.power(2.0 * self.theta2)


@lru_cache(maxsize=32)
def _filter_multiplier(n: int, alpha: float, theta1: float) -> np.ndarray:
    lat = lattice(n)
    arr = 1.0 / (1.0 + alpha ** (2.0 * theta1) * lat.power(2.0 * theta1))
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# transforms


def to_grid(field: SpectralField, grid_size: int | None = None) -> np.ndarray:
    """Evaluate the field on the collocation grid (3, ng, ng, ng) of
    [0, 2pi)^3.  ng defaults to the FFT-friendly size >= 2n+2 and must be
    at least 2n+1."""
    lat = field.lattice
    ng = lat.transform_ng if grid_size is None else int(grid_size)
    plan = lat.plan(ng)  # rejects ng < 2n+1
    return plan.to_physical(plan.scatter(field.coeffs))


def from_grid(values: np.ndarray, n: int) -> SpectralField:
    """Project grid samples (3, ng, ng, ng) onto the truncated lattice."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 4 or values.shape[0] != 3 or len(set(values.shape[1:])) != 1:
        raise ValueError("expected a (3, ng, ng, ng) array of grid samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid samples must be finite")
    lat = lattice(n)
    plan = lat.plan(values.shape[1])
    return SpectralField(n, plan.gather(plan.to_spectrum(values)))


# ---------------------------------------------------------------------------
# diagonal operators


def leray_project(field: SpectralField) -> SpectralField:
    """Remove the component of each coefficient along its wavevector:
    u_k <- u_k - (u_k . k) k / |k|^2."""
    coeffs = field.coeffs.copy()
    field.lattice.project(coeffs)
    return SpectralField(field.n, coeffs)


def fractional_laplacian(field: SpectralField, s: float) -> SpectralField:
    """Apply the Fourier multiplier |k|^s (any real s; k = 0 never occurs)."""
    return SpectralField(field.n, field.coeffs * field.lattice.power(float(s))[:, None])


def helmholtz_filter(field: SpectralField, ctx: ModelContext) -> SpectralField:
    """Apply the inverse Helmholtz-type smoother
    (I + alpha^{2 theta1} Lambda^{2 theta1})^{-1}; this recovers the advecting
    velocity from the model state."""
    if field.n != ctx.n:
        raise ValueError(f"truncation mismatch: field n={field.n}, context n={ctx.n}")
    return SpectralField(field.n, field.coeffs * ctx.filter_multiplier[:, None])


def sobolev_norm(field: SpectralField, s: float = 0.0) -> float:
    """||u||_s = sqrt(sum_k |k|^{2s} |u_k|^2) over the full +-k lattice."""
    return math.sqrt(float(energies(field.coeffs, [field.lattice.power(2.0 * float(s))])[0]))


def inner_product(a: SpectralField, b: SpectralField, s: float = 0.0) -> float:
    """Real pairing sum_k |k|^{2s} a_k . conj(b_k) over the full lattice."""
    _check_same_truncation(a, b)
    return float(inner_products(a.coeffs, b.coeffs, [a.lattice.power(2.0 * float(s))])[0])


def inner_products(a: np.ndarray, b: np.ndarray, weights) -> np.ndarray:
    """Real pairings sum_k w_k a_k . conj(b_k) over the full lattice of the
    coefficient arrays of two blocks (..., M, 3), for each of the W weight
    arrays w (M,): shape (..., W)."""
    pairs = np.einsum("...ij,...ij->...i", a, np.conj(b))
    return 2.0 * np.real(np.stack([(w * pairs).sum(axis=-1) for w in weights], axis=-1))


def energies(coeffs: np.ndarray, weights) -> np.ndarray:
    """Full-lattice energies 2 sum_k w_k |u_k|^2 of a block of coefficient
    arrays (..., M, 3), for each of the W weight arrays w (M,): shape
    (..., W).  Each row is reduced along its own contiguous axis, so a
    member of a block gets the numbers it would get alone.  A fancy-indexed
    block such as coeffs[:, rows] is not C-ordered, and numpy would sum its
    rows in another order, so e is made contiguous first."""
    e = np.ascontiguousarray(np.sum(np.abs(coeffs) ** 2, axis=-1))
    return 2.0 * np.stack([(w * e).sum(axis=-1) for w in weights], axis=-1)


def scalar_squares(values: np.ndarray) -> np.ndarray:
    """x ** 2 per element as a float64 scalar computes it, through the C
    library's pow.  The array square x * x differs from that in the last bit
    for about 0.1% of doubles, which a recorded series would show.  values
    may have any shape."""
    return np.array([x**2 for x in values.ravel()]).reshape(values.shape)


def lp_norm(field: SpectralField, p: float, grid_size: int | None = None) -> float:
    """Collocation L^p norm with the normalised measure dx/(2pi)^3; p = inf
    gives the max of |u(x)|.  For p = 2 this matches sobolev_norm(field, 0)
    to quadrature accuracy."""
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    values = to_grid(field, grid_size)
    mag = np.sqrt(np.sum(values * values, axis=0))
    if p == math.inf:
        return float(np.max(mag))
    return float(np.mean(mag ** p) ** (1.0 / p))


def random_field(
    ctx: ModelContext,
    seed: int,
    spectrum_slope: float = 2.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Divergence-free Gaussian field with |u_k| ~ |k|^{-spectrum_slope},
    normalised so ||u||_{L^2} = amplitude (deterministic in seed)."""
    lat = ctx.lattice
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((lat.size, 3)) + 1j * rng.standard_normal((lat.size, 3))
    raw *= lat.power(-float(spectrum_slope))[:, None]
    lat.project(raw)
    # a flattened sum, not energies(): its summation order fixes the bytes
    # of every random initial state
    norm = math.sqrt(2.0 * float(np.sum(np.abs(raw) ** 2)))
    if norm > 0:
        raw *= amplitude / norm
    return SpectralField(ctx.n, raw)
