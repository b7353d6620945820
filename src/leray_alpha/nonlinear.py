"""Advection operator B(u, v) = P_sigma((u . grad) v), its smoothed variant
B(Gu, u), the trilinear pairing <B(u, v), w> and the multiplier commutator
[Lambda^s, f] g.

All quadratic terms are evaluated pseudo-spectrally on a grid whose 2/3-rule
dealias band contains the whole truncation cube, so every product returned
here is the exact Galerkin-truncated convolution (no aliasing contamination).
"""

from __future__ import annotations

import numpy as np

from .fields import (
    Lattice,
    ModelContext,
    SpectralField,
    _check_same_truncation,
    fractional_laplacian,
    helmholtz_filter,
    inner_product,
)

_DIV_FREE_TOL = 1e-8


def _advective_products(physical: np.ndarray, out: np.ndarray) -> None:
    """(u . grad) v_j = sum_m u_m d_m v_j from the physical velocity and
    derivative fields."""
    for j in range(3):
        np.multiply(physical[0], physical[3 + j], out=out[j])
        out[j] += physical[1] * physical[6 + j]
        out[j] += physical[2] * physical[9 + j]


def _advect_block(lat: Lattice, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B(a_k, v_k) of coefficient blocks (K, M, 3), one product-grid
    transform per member, each written into its row of the output and
    projected there.  Unchecked: a_k must be divergence-free, and a member
    whose products overflow gets non-finite rows instead of an error."""
    grid = lat.product_grid()
    out = np.empty(a.shape, dtype=np.complex128)
    for a_k, v_k, out_k in zip(a, v, out):
        grid.transform(a_k, v_k, _advective_products, out_k, True, True)
    return out


def advect(u: SpectralField, v: SpectralField, ctx: ModelContext) -> SpectralField:
    """B(u, v): advect v by the divergence-free velocity u and project back
    onto the divergence-free truncated lattice."""
    _check_same_truncation(u, v)
    if u.n != ctx.n:
        raise ValueError(f"truncation mismatch: fields n={u.n}, context n={ctx.n}")
    defect = u.divergence_defect()
    if defect > _DIV_FREE_TOL:
        raise ValueError(f"the advecting field must be divergence-free (defect {defect:.3e})")
    return SpectralField(ctx.n, _advect_block(ctx.lattice, u.coeffs[None], v.coeffs[None])[0])


def leray_advection(u: SpectralField, ctx: ModelContext) -> SpectralField:
    """The model nonlinearity B(Gu, u): the advecting velocity is the
    Helmholtz-smoothed state."""
    return advect(helmholtz_filter(u, ctx), u, ctx)


def trilinear(u: SpectralField, v: SpectralField, w: SpectralField, ctx: ModelContext) -> float:
    """<B(u, v), w>; skew in (v, w) and zero for w = v when u is
    divergence-free."""
    _check_same_truncation(v, w)
    return inner_product(advect(u, v, ctx), w)


def _componentwise_products(physical: np.ndarray, out: np.ndarray) -> None:
    np.multiply(physical[0:3], physical[3:6], out=out)


def pointwise_multiply(f: SpectralField, g: SpectralField, ctx: ModelContext) -> SpectralField:
    """Component-wise product (f_i g_i), dealiased and truncated back onto
    the lattice."""
    _check_same_truncation(f, g)
    lat = ctx.lattice
    out = np.empty((lat.size, 3), dtype=np.complex128)
    lat.product_grid().transform(f.coeffs, g.coeffs, _componentwise_products, out, False, False)
    return SpectralField(ctx.n, out)


def commutator(f: SpectralField, g: SpectralField, s: float, ctx: ModelContext) -> SpectralField:
    """[Lambda^s, f] g = Lambda^s(f g) - f Lambda^s g with component-wise
    products; identically zero for s = 0."""
    if s < 0:
        raise ValueError("commutator order s must be >= 0")
    first = fractional_laplacian(pointwise_multiply(f, g, ctx), s)
    second = pointwise_multiply(f, fractional_laplacian(g, s), ctx)
    return first - second
