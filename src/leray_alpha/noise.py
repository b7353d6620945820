"""Finite-dimensional Wiener drivers and noise coefficient families.

Three families ship, each mapping a state u to a Hilbert-Schmidt operator on
the driver space: additive (fixed unit-norm single-mode fields with
amplitudes sigma_j), linear multiplicative (sigma * u, one driver) and
diagonal spectral (driver j scales mode k_j of u by sigma_j).  Every family
keeps its range in the divergence-free zero-mean subspace.

Gaussian increments come from Philox4x64 keyed by (master seed, trajectory
id) with the step index in the high word of the block counter, so draws are
reproducible for any execution order of trajectories and steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    ModelContext,
    SpectralField,
    canonical_mode,
    energies,
    lattice,
    polarization,
    random_field,
    scalar_squares,
    sobolev_norm,
)


# ---------------------------------------------------------------------------
# Wiener increments


@dataclass(frozen=True)
class WienerStream:
    """Identifies one trajectory's increment stream.  It keeps one Philox
    bit generator for its key and resets the counter for every step, which
    draws what a generator built for that step would; a stream therefore
    must not be drawn from by two threads at once."""

    master_seed: int
    trajectory_id: int
    dim: int
    _bitgen: np.random.Philox = field(init=False, repr=False, compare=False)
    _normal: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("driver dimension must be >= 1")
        if not (0 <= self.master_seed < 2**64 and 0 <= self.trajectory_id < 2**64):
            raise ValueError("master seed and trajectory id must be >= 0 and < 2**64 (they key a Philox counter)")
        bitgen = np.random.Philox(key=np.array([self.master_seed, self.trajectory_id], dtype=np.uint64))
        object.__setattr__(self, "_bitgen", bitgen)
        object.__setattr__(self, "_normal", np.random.Generator(bitgen))
        # the state of the fresh generator: its key, a zero counter and an
        # empty buffer; a draw sets counter[3] to its step (the setter copies)
        object.__setattr__(self, "_state", bitgen.state)

    def _draw(self, step: int, out: np.ndarray) -> np.ndarray:
        """Fill out (dim,) with the step's standard normals, unchecked."""
        self._state["state"]["counter"][3] = step
        self._bitgen.state = self._state
        return self._normal.standard_normal(out=out)


def wiener_increment(stream: WienerStream, dt: float, step: int) -> np.ndarray:
    """The (dim,) Gaussian increments with variance dt per driver dimension,
    deterministic in (master seed, trajectory id, step)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if step < 0:
        raise ValueError("step index must be >= 0")
    return stream._draw(step, np.empty(stream.dim)) * math.sqrt(dt)


# ---------------------------------------------------------------------------
# noise families


class NoiseFamily:
    """Base for concrete noise coefficient realisations.  A family computes
    g(u) dW and the Hilbert-Schmidt norms for a block of states at once;
    apply() and hs_norm_sq() are the one-state cases."""

    kind: str = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply(self, u: SpectralField, dw: np.ndarray) -> SpectralField:
        """g(u) dW for one state and its increment dw (dim,)."""
        dw = np.asarray(dw, dtype=float)
        if dw.shape != (self.dim,):
            raise ValueError(f"increment dimension {dw.shape} does not match driver dimension {self.dim}")
        self._check_state(u)
        return SpectralField(u.n, self._apply_block(u.coeffs[None], dw[None])[0])

    def _apply_block(self, coeffs: np.ndarray, increments: np.ndarray) -> np.ndarray:
        """g(u_k) dW_k for states (K, M, 3) and their increments (K, dim)."""
        raise NotImplementedError

    def hs_norm_sq(self, u: SpectralField, s: float = 0.0) -> float:
        """||Lambda^s g(u)||_HS^2 = sum_j ||g(u) e_j||_s^2 of one state."""
        self._check_state(u)
        return float(self._hs_norms_sq(u.coeffs, (s,), np.array([sobolev_norm(u, s)]))[0])

    def _hs_norms_sq(self, coeffs: np.ndarray, orders: tuple[float, ...], norms: np.ndarray) -> np.ndarray:
        """The family's Hilbert-Schmidt formula: ||Lambda^s g(u)||_HS^2 of a
        block of states (..., M, 3) for each order s in orders, given their
        ||u||_s (..., len(orders)); broadcastable to (..., len(orders)).
        hs_norm_sq and the integrator's energy ledger (s = 0, 1) call it."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _check_state(self, u: SpectralField) -> None:
        pass


def _normalize_modes(modes, sigmas, n: int):
    if len(modes) == 0:
        raise ValueError("need at least one noise mode")
    canon = []
    for k in modes:
        k = canonical_mode(tuple(k))
        if max(abs(c) for c in k) > n:
            raise ValueError(f"noise mode {k} lies outside the truncation n={n}")
        canon.append(k)
    if len(set(canon)) != len(canon):
        raise ValueError("duplicate noise modes after +-k canonicalisation")
    sig = [float(s) for s in sigmas]
    if len(sig) != len(canon):
        raise ValueError("need one amplitude per noise mode")
    if any(s < 0 or not math.isfinite(s) for s in sig):
        raise ValueError("amplitudes sigma_j must be finite and >= 0")
    return tuple(canon), tuple(sig)


@dataclass(frozen=True)
class _ModeNoise(NoiseFamily):
    """A family with one driver per canonical mode k_j of truncation n, with
    amplitude sigma_j.  The lattice rows of the modes, their |k|^2 and the
    amplitudes as an array are built once (non-compared fields: equality
    and hashing see only modes, sigmas, n and kind)."""

    modes: tuple[tuple[int, int, int], ...]
    sigmas: tuple[float, ...]
    n: int
    kind: str = field(default="", init=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _k_sq: np.ndarray = field(init=False, repr=False, compare=False)
    _sigmas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        modes, sigmas = _normalize_modes(self.modes, self.sigmas, self.n)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "sigmas", sigmas)
        rows = np.array([lattice(self.n).index_of(k) for k in modes])
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_k_sq", lattice(self.n).k_sq[rows])
        object.__setattr__(self, "_sigmas", np.asarray(sigmas))
        # the energy ledger's s = 0 and 1 weights, and their sums, must be finite doubles
        with np.errstate(over="ignore"):
            finite = all(np.isfinite(w.sum()) for w in self._hs_weights((0.0, 1.0)))
        if not finite:
            raise ValueError("amplitudes sigma_j too large: the ledger weights sigma_j^2 |k_j|^{2s} overflow")

    def _hs_weights(self, orders: tuple[float, ...]) -> list[np.ndarray]:
        """sigma_j^2 |k_j|^{2s} per driver, for each order s."""
        return [self._sigmas**2 * self._k_sq**s for s in orders]

    @property
    def dim(self) -> int:
        return len(self.modes)

    def _check_state(self, u: SpectralField) -> None:
        if u.n != self.n:
            raise ValueError(f"state truncation n={u.n} does not match noise n={self.n}")

    def describe(self) -> str:
        parts = ", ".join(f"{k}:{s:g}" for k, s in zip(self.modes, self.sigmas))
        return f"{self.kind}[{parts}]"


@dataclass(frozen=True)
class AdditiveNoise(_ModeNoise):
    """g(u) e_j = sigma_j f_j with f_j the unit-norm divergence-free field
    carrying the single mode pair +-k_j."""

    kind: str = field(default="additive", init=False)
    _vecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        vecs = np.stack([polarization(k) for k in self.modes]) / math.sqrt(2.0)
        object.__setattr__(self, "_vecs", vecs)

    # each family carries apply and hs_norm_sq in its own namespace, where
    # perfbench/spans.py times the layer
    apply = NoiseFamily.apply
    hs_norm_sq = NoiseFamily.hs_norm_sq

    def _apply_block(self, coeffs: np.ndarray, increments: np.ndarray) -> np.ndarray:
        out = np.zeros(coeffs.shape, dtype=np.complex128)
        amp = self._sigmas * increments
        # 0.0 + x, as accumulating into the zeros would: -0.0 becomes +0.0
        out[:, self._rows] = 0.0 + amp[:, :, None] * self._vecs
        return out

    def _hs_norms_sq(self, coeffs, orders, norms):
        # sum_j sigma_j^2 |k_j|^{2s}, whatever the state (the f_j have unit norm)
        return np.array([np.sum(w) for w in self._hs_weights(orders)])


@dataclass(frozen=True)
class LinearMultiplicativeNoise(NoiseFamily):
    """g(u) e_1 = sigma * u, a one-dimensional driver."""

    sigma: float
    kind: str = field(default="linear-multiplicative", init=False)

    def __post_init__(self):
        if self.sigma < 0 or not math.isfinite(self.sigma * self.sigma):  # the ledger's weight sigma^2
            raise ValueError("sigma must be >= 0 with a finite sigma^2")

    @property
    def dim(self) -> int:
        return 1

    apply = NoiseFamily.apply
    hs_norm_sq = NoiseFamily.hs_norm_sq

    def _apply_block(self, coeffs: np.ndarray, increments: np.ndarray) -> np.ndarray:
        return (self.sigma * increments[:, 0])[:, None, None] * coeffs

    def _hs_norms_sq(self, coeffs, orders, norms):
        # sigma^2 ||u||_s^2
        return self.sigma**2 * scalar_squares(norms)

    def describe(self) -> str:
        return f"linear-multiplicative[sigma={self.sigma:g}]"


@dataclass(frozen=True)
class DiagonalSpectralNoise(_ModeNoise):
    """Driver j rescales the +-k_j coefficient pair of u by sigma_j."""

    kind: str = field(default="diagonal-spectral", init=False)

    apply = NoiseFamily.apply
    hs_norm_sq = NoiseFamily.hs_norm_sq

    def _apply_block(self, coeffs: np.ndarray, increments: np.ndarray) -> np.ndarray:
        out = np.zeros_like(coeffs)
        scale = self._sigmas * increments
        out[:, self._rows] = scale[:, :, None] * coeffs[:, self._rows]
        return out

    def _hs_norms_sq(self, coeffs, orders, norms):
        # the energy of u's +-k_j pairs weighted by sigma_j^2 |k_j|^{2s}
        return energies(coeffs[..., self._rows, :], self._hs_weights(orders))


def decay_modes(n: int, driver_dim: int, sigma: float, gamma: float):
    """First driver_dim canonical modes ordered by (|k|^2, lex) with the decay
    law sigma_j = sigma * |k_j|^{-gamma}."""
    lat = lattice(n)
    order = np.argsort(lat.k_sq, kind="stable")  # ties keep the lattice's lex order
    if driver_dim < 1:
        raise ValueError(f"driver_dim must be >= 1, got {driver_dim}")
    if driver_dim > lat.size:
        raise ValueError(f"driver_dim {driver_dim} exceeds the {lat.size} stored modes")
    modes = [tuple(int(c) for c in lat.wavevectors[i]) for i in order[:driver_dim]]
    sigmas = [sigma * float(lat.k_sq[i]) ** (-gamma / 2.0) for i in order[:driver_dim]]
    return tuple(modes), tuple(sigmas)


# ---------------------------------------------------------------------------
# hypothesis audit


@dataclass(frozen=True)
class NoiseAudit:
    family: str
    scales: tuple[float, ...]
    growth_l2: tuple[float, ...]
    growth_h1: tuple[float, ...]
    lipschitz: tuple[float, ...]
    max_growth_l2: float
    max_growth_h1: float
    max_lipschitz: float
    flagged: bool

    def render(self) -> str:
        lines = [
            f"noise audit: {self.family}",
            f"  max ||g(u)||_HS^2 / (1 + ||u||_L2^2)      = {self.max_growth_l2:.6g}",
            f"  max ||Lambda g(u)||_HS^2 / (1 + ||u||_1^2) = {self.max_growth_h1:.6g}",
            f"  max ||g(u)-g(v)||_HS / ||u-v||_L2          = {self.max_lipschitz:.6g}",
            "  scale   growth_L2     growth_H1     lipschitz",
        ]
        for sc, g0, g1, lp in zip(self.scales, self.growth_l2, self.growth_h1, self.lipschitz):
            lines.append(f"  {sc:<7g} {g0:<13.6g} {g1:<13.6g} {lp:.6g}")
        verdict = "FLAGGED: ratios grow with the norm scale" if self.flagged else "bounded ratios"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _hs_distance(family: NoiseFamily, u: SpectralField, v: SpectralField) -> float:
    """||g(u) - g(v)||_HS via unit increments along each driver."""
    total = 0.0
    for e in np.eye(family.dim):
        total += sobolev_norm(family.apply(u, e) - family.apply(v, e), 0.0) ** 2
    return math.sqrt(total)


def audit_hypotheses(
    family: NoiseFamily,
    ctx: ModelContext,
    samples: int = 8,
    seed: int = 0,
    scales: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0),
) -> NoiseAudit:
    """Empirical envelopes of the growth and Lipschitz ratios over random
    fields at increasing norm scales; a family whose envelope keeps growing
    between the two largest scales is flagged."""
    if samples < 2:
        raise ValueError("need at least 2 samples per scale")
    if len(scales) < 2:
        raise ValueError("need at least 2 norm scales: the verdict compares the two largest")
    if any(not b > a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"norm scales must increase: the verdict compares the last two, got {scales}")
    growth0, growth1, lips = [], [], []
    for si, scale in enumerate(scales):
        g0 = g1 = lp = 0.0
        for j in range(samples):
            u = random_field(ctx, seed=seed + 1000 * si + 2 * j, amplitude=scale)
            v = random_field(ctx, seed=seed + 1000 * si + 2 * j + 1, amplitude=scale)
            g0 = max(g0, family.hs_norm_sq(u, 0.0) / (1.0 + sobolev_norm(u, 0.0) ** 2))
            g1 = max(g1, family.hs_norm_sq(u, 1.0) / (1.0 + sobolev_norm(u, 1.0) ** 2))
            dist = sobolev_norm(u - v, 0.0)
            if dist > 0:
                lp = max(lp, _hs_distance(family, u, v) / dist)
        growth0.append(g0)
        growth1.append(g1)
        lips.append(lp)
    # bounded families saturate between the two largest scales; anything still
    # growing by a factor > 5 across one decade there is effectively unbounded
    floor = 1e-12
    flagged = (
        growth0[-1] > 5.0 * (growth0[-2] + floor)
        or growth1[-1] > 5.0 * (growth1[-2] + floor)
        or lips[-1] > 5.0 * (lips[-2] + floor)
    )
    return NoiseAudit(
        family=family.describe(),
        scales=tuple(scales),
        growth_l2=tuple(growth0),
        growth_h1=tuple(growth1),
        lipschitz=tuple(lips),
        max_growth_l2=max(growth0),
        max_growth_h1=max(growth1),
        max_lipschitz=max(lips),
        flagged=flagged,
    )
