"""Pseudo-spectral toolkit for the stochastic 3D Leray-alpha model with
fractional dissipation on the periodic torus [0, 2pi]^3.

State lives on a truncated Fourier lattice of divergence-free, zero-mean
vector fields.  The package provides the diagonal operator calculus
(fractional Laplacian, Helmholtz smoother, Leray projection, Sobolev norms),
the dealiased advection operator, finite-dimensional noise families with a
hypothesis auditor, a semi-implicit Euler-Maruyama integrator with stopping
monitors, energy-ledger and Monte-Carlo diagnostics, and a CLI front end.
"""

from .fields import (
    ModelContext,
    SpectralField,
    from_grid,
    fractional_laplacian,
    helmholtz_filter,
    inner_product,
    leray_project,
    lp_norm,
    random_field,
    sobolev_norm,
    to_grid,
)
from .nonlinear import advect, commutator, leray_advection, trilinear
from .noise import (
    AdditiveNoise,
    DiagonalSpectralNoise,
    LinearMultiplicativeNoise,
    WienerStream,
    audit_hypotheses,
    wiener_increment,
)
from .integrator import (
    InitialData,
    Monitor,
    RunConfig,
    StoppingRecord,
    TrajectoryRecord,
    TrajectoryState,
    detect_stopping,
    run_ensemble,
    run_trajectory,
    smooth_cutoff,
    step,
)
from .diagnostics import (
    EnsembleStats,
    LedgerSeries,
    RegimeVerdict,
    classify_regime,
    energy_ledger,
    ensemble_moments,
    jackknife_mean,
    moment_exponent,
)

__all__ = [
    "ModelContext",
    "SpectralField",
    "from_grid",
    "fractional_laplacian",
    "helmholtz_filter",
    "inner_product",
    "leray_project",
    "lp_norm",
    "random_field",
    "sobolev_norm",
    "to_grid",
    "advect",
    "commutator",
    "leray_advection",
    "trilinear",
    "AdditiveNoise",
    "DiagonalSpectralNoise",
    "LinearMultiplicativeNoise",
    "WienerStream",
    "audit_hypotheses",
    "wiener_increment",
    "InitialData",
    "Monitor",
    "RunConfig",
    "StoppingRecord",
    "TrajectoryRecord",
    "TrajectoryState",
    "detect_stopping",
    "run_ensemble",
    "run_trajectory",
    "smooth_cutoff",
    "step",
    "EnsembleStats",
    "LedgerSeries",
    "RegimeVerdict",
    "classify_regime",
    "energy_ledger",
    "ensemble_moments",
    "jackknife_mean",
    "moment_exponent",
]
