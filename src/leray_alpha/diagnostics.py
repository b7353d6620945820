"""A-priori estimates turned into measurable quantities: discrete energy
ledgers, Monte-Carlo moment estimates with jackknife errors, and the
(theta1, theta2) regime classifier with the subcritical moment exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrator import RunConfig, TrajectoryRecord

# verdicts ordered weakest to strongest
VERDICT_OUTSIDE = "outside"
VERDICT_LOCAL = "local-only"
VERDICT_GLOBAL_H1 = "global-H1"
VERDICT_GLOBAL_H0 = "global-H0"
VERDICT_ORDER = (VERDICT_OUTSIDE, VERDICT_LOCAL, VERDICT_GLOBAL_H1, VERDICT_GLOBAL_H0)


@dataclass(frozen=True)
class LedgerSeries:
    """Per-step bookkeeping of the discrete energy identity.  The residual

        residual = delta + dissipation + transport - injection - martingale

    closes the ledger by definition; its magnitude measures scheme error
    (O(dt) per step on top of Monte-Carlo noise)."""

    which: str
    t: np.ndarray
    kinetic: np.ndarray
    delta: np.ndarray
    dissipation: np.ndarray
    injection: np.ndarray
    martingale: np.ndarray
    transport: np.ndarray
    residual: np.ndarray


def energy_ledger(record: TrajectoryRecord, which: str = "l2") -> LedgerSeries:
    """Assemble the L^2 or H^1 energy ledger of one trajectory.

    L^2: delta ||u||_L2^2 + 2 nu ||u||_{theta2}^2 dt vs the recorded noise
    injection and martingale increments (the advection term pairs to zero).
    H^1: same with theta2+1 dissipation, Lambda-weighted noise terms and the
    explicit advection transport 2 chi <Lambda B, Lambda u> dt.
    """
    nu = record.cfg.ctx.nu
    dt = record.cfg.dt
    if which == "l2":
        norms, diss_norms = record.norm_l2, record.norm_th2
        injection, martingale = record.inj_l2, record.mart_l2
        transport = np.zeros_like(record.mart_l2)
    elif which == "h1":
        norms, diss_norms = record.norm_h1, record.norm_th2p1
        injection, martingale = record.inj_h1, record.mart_h1
        transport = record.adv_h1
    else:
        raise ValueError("which must be 'l2' or 'h1'")
    delta = norms[1:] ** 2 - norms[:-1] ** 2
    dissipation = 2.0 * nu * diss_norms[1:] ** 2 * dt
    residual = delta + dissipation + transport - injection - martingale
    return LedgerSeries(
        which=which,
        t=record.t[1:],
        kinetic=norms[1:] ** 2,
        delta=delta,
        dissipation=dissipation,
        injection=injection,
        martingale=martingale,
        transport=transport,
        residual=residual,
    )


def jackknife_mean(values: np.ndarray) -> tuple[float, float]:
    """Mean and leave-one-out jackknife standard error (0 for one sample)."""
    values = np.asarray(values, dtype=float)
    count = len(values)
    if count == 0:
        raise ValueError("no samples")
    mean = float(np.mean(values))
    if count == 1:
        return mean, 0.0
    loo = (np.sum(values) - values) / (count - 1)
    se = math.sqrt((count - 1) / count * float(np.sum((loo - np.mean(loo)) ** 2)))
    return mean, se


@dataclass(frozen=True)
class EnsembleStats:
    """Monte-Carlo moment estimates over an ensemble of records; sup is taken
    over grid times, a lower bound for the continuous-time supremum."""

    p: float
    count: int
    sup_l2: tuple[float, float]
    sup_h1: tuple[float, float]
    diss_l2: tuple[float, float]
    diss_h1: tuple[float, float]
    final_l2_sq: tuple[float, float]


@dataclass(frozen=True)
class NormSeries:
    """What ensemble_moments reads of one trajectory: its config, its norm
    rows (TrajectoryRecord.norms) and whether it completed."""

    cfg: RunConfig
    norms: np.ndarray  # (4, len(t))
    complete: bool

    @property
    def trajectory_id(self) -> int:
        return self.cfg.trajectory_id


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(np.trapezoid(values, dx=dt))


def ensemble_moments(records: list[TrajectoryRecord] | list[NormSeries], p: float = 2.0) -> EnsembleStats:
    """Estimate E sup_t ||u||_{L2}^p, E sup_t ||u||_1^p, the weighted
    dissipation integrals E int ||u||^{p-2} ||u||_{theta2(+1)}^2 dt and the
    terminal energy, each with a jackknife standard error, from records or
    their NormSeries.  The records must sample one setup: their configs are
    equal but for trajectory_id, which picks the noise stream, and
    snapshot_every, which the norms do not see.  Only complete trajectories
    enter the estimates and the count: a halted one has no values at the
    later grid times."""
    if not records:
        raise ValueError("no records")
    if not (math.isfinite(p) and p >= 2):
        raise ValueError("moment order p must be finite and >= 2")
    setup = replace(records[0].cfg, trajectory_id=0, snapshot_every=None)
    if any(replace(r.cfg, trajectory_id=0, snapshot_every=None) != setup for r in records[1:]):
        raise ValueError("mixed configurations in ensemble")
    complete = [r for r in records if r.complete]
    if not complete:
        raise ValueError("no complete trajectories")
    dt = records[0].cfg.dt
    per_trajectory = [
        (
            np.max(l2**p),
            np.max(h1**p),
            _trapezoid(l2 ** (p - 2) * th2**2, dt),
            _trapezoid(h1 ** (p - 2) * th2p1**2, dt),
            l2[-1] ** 2,
        )
        for l2, h1, th2, th2p1 in (r.norms for r in complete)
    ]
    sup_l2, sup_h1, diss_l2, diss_h1, final = (np.array(column) for column in zip(*per_trajectory))
    return EnsembleStats(
        p=p,
        count=len(complete),
        sup_l2=jackknife_mean(sup_l2),
        sup_h1=jackknife_mean(sup_h1),
        diss_l2=jackknife_mean(diss_l2),
        diss_h1=jackknife_mean(diss_h1),
        final_l2_sq=jackknife_mean(final),
    )


# ---------------------------------------------------------------------------
# parameter regimes


@dataclass(frozen=True)
class RegimeVerdict:
    theta1: float
    theta2: float
    verdict: str

    @property
    def rank(self) -> int:
        return VERDICT_ORDER.index(self.verdict)


def classify_regime(theta1: float, theta2: float) -> RegimeVerdict:
    """Strongest solvability regime of the (theta1, theta2) pair:

    global-H0  : theta2 > 1/2 and theta1 + theta2 >= 5/4 (global solutions
                 for L^2 initial data)
    global-H1  : theta2 > 0 and theta1 + theta2 >= 5/4 (global solutions for
                 H^1 initial data)
    local-only : theta2 > 0 and theta1 + theta2 > 3/4 (maximal local
                 solutions only)
    outside    : anything weaker.
    """
    if theta1 < 0:
        raise ValueError("theta1 must be >= 0")
    if theta2 <= 0:
        return RegimeVerdict(theta1, theta2, VERDICT_OUTSIDE)
    total = theta1 + theta2
    if theta2 > 0.5 and total >= 1.25:
        verdict = VERDICT_GLOBAL_H0
    elif total >= 1.25:
        verdict = VERDICT_GLOBAL_H1
    elif total > 0.75:
        verdict = VERDICT_LOCAL
    else:
        verdict = VERDICT_OUTSIDE
    return RegimeVerdict(theta1, theta2, verdict)


def moment_exponent(theta1: float, theta2: float) -> float:
    """Initial-data moment exponent m(theta1, theta2) required for the H^1
    moment bound in the subcritical range theta1 + theta2 > 5/4:

        m = 1 + (1 + theta2) / (2 (theta1 + theta2 - 5/4))   if theta1 + theta2/2 < 5/4
        m = 2 + 1 / theta2                                   otherwise.
    """
    if theta1 < 0 or theta2 <= 0:
        raise ValueError("need theta1 >= 0 and theta2 > 0")
    if not theta1 + theta2 > 1.25:
        raise ValueError("moment exponent requires the strictly subcritical range theta1 + theta2 > 5/4")
    if theta1 + theta2 / 2.0 < 1.25:
        return 1.0 + (1.0 + theta2) / (2.0 * (theta1 + theta2 - 1.25))
    return 2.0 + 1.0 / theta2
