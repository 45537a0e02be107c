"""Lebesgue and Sobolev-type norms on spectral grids.

Physical L^p norms are Riemann sums with weight dx^n.  Frequency-side norms
are midpoint sums with weight dxi^n over the half-spectrum, each column
counted for the modes it stands for (Grid.column_weight, folded into the
cached weights); the inhomogeneous H^s norm weights coefficients by
(1 + |xi|^2)^(s/2) and the negative-order norm by |xi|^(-gamma).

The |xi|^(-gamma) weight is singular, so the k = 0 cell needs care.  Policy
"require_zero" demands fhat(0) = 0 (to roundoff) and sums over k != 0.
Policy "exclude" tolerates fhat(0) != 0: the sum still runs over k != 0, and
when the cell integral of |xi|^(-2 gamma) converges (2 gamma < n) the cell's
mass |fhat(0)|^2 * integral is added back, which keeps the quadrature within
about a percent of the continuum value instead of losing the singular cell.
When 2 gamma >= n that integral diverges; the returned value is then a
regularised proxy and non-membership shows up through divergence_probe,
which recomputes the norm on refined grids (L, N) -> (2L, 2N) -> (4L, 4N)
and flags growth above 20% per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import Grid, SpectralField

__all__ = [
    "lp_norm",
    "hs_norm",
    "seminorm_hs",
    "hdotneg_norm",
    "embedding_check",
    "EmbeddingReport",
    "divergence_probe",
]

_ZERO_TOL = 1e-12
POLICIES = ("require_zero", "exclude")


def lp_norm(fld: SpectralField, p: float) -> float:
    """L^p norm of the physical samples; p in [1, inf]."""
    if not (p >= 1.0):
        raise ConfigError(f"p must be >= 1 (or inf), got {p}")
    u = np.abs(fld.physical())
    if math.isinf(p):
        return float(np.max(u))
    g = fld.grid
    return float(np.sum(u**p) * g.dx**g.dim) ** (1.0 / p)


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise ConfigError(f"s must lie in (0, 1], got {s}")


def _frozen(grid: Grid, w: np.ndarray) -> np.ndarray:
    """w times the grid's column weight, read-only and shared by the caches."""
    w = w * grid.column_weight
    w.flags.writeable = False
    return w


@lru_cache(maxsize=8)
def _hs_weight(grid: Grid, s: float) -> np.ndarray:
    return _frozen(grid, (1.0 + grid.xi2) ** s)


@lru_cache(maxsize=8)
def _seminorm_weight(grid: Grid, s: float) -> np.ndarray:
    return _frozen(grid, grid.xi2**s)


@lru_cache(maxsize=8)
def _hdotneg_weight(grid: Grid, gamma: float) -> np.ndarray:
    """|xi|^(-2 gamma), 0 at the origin."""
    with np.errstate(divide="ignore"):
        w = np.where(grid.xi2 > 0.0, grid.xi2, 1.0) ** (-gamma)
    w[(0,) * grid.dim] = 0.0
    return _frozen(grid, w)


def _weighted_sum(fld: SpectralField, w: np.ndarray) -> float:
    """sum of w |fhat|^2 dxi^n over the half-spectrum."""
    g = fld.grid
    return float(np.sum(w * np.abs(fld.coeffs) ** 2) * g.dxi**g.dim)


def hs_norm(fld: SpectralField, s: float) -> float:
    """Inhomogeneous H^s norm, weight (1 + |xi|^2)^(s/2)."""
    _check_s(s)
    return math.sqrt(_weighted_sum(fld, _hs_weight(fld.grid, s)))


def seminorm_hs(fld: SpectralField, s: float) -> float:
    """Homogeneous seminorm || |xi|^s fhat ||, used by decay-rate fits."""
    _check_s(s)
    return math.sqrt(_weighted_sum(fld, _seminorm_weight(fld.grid, s)))


@lru_cache(maxsize=64)
def _unit_cube_weight_integral(dim: int, gamma: float) -> float:
    """integral of |u|^(-2 gamma) over [-1, 1]^dim, finite iff 2 gamma < dim.

    The cube is 2 dim pyramids u = t (a, 1), t in [0, 1], over its faces.
    The radial integral of t^(dim - 1 - 2 gamma) is exact; the smooth face
    integral of (1 + |a|^2)^(-gamma) over [0, 1]^(dim - 1) is a
    Gauss-Legendre tensor sum, converged to roundoff at 12 nodes.
    """
    if 2.0 * gamma >= dim:
        return math.inf
    nodes, weights = np.polynomial.legendre.leggauss(16)
    a = np.meshgrid(*[(nodes + 1.0) / 2.0] * (dim - 1), indexing="ij")
    w = np.prod(np.meshgrid(*[weights] * (dim - 1), indexing="ij"), axis=0)
    face = np.average((1.0 + sum(ai * ai for ai in a)) ** -gamma, weights=w)
    return dim * 2.0**dim / (dim - 2.0 * gamma) * float(face)


def zero_cell_weight(grid: Grid, gamma: float) -> float:
    """integral of |xi|^(-2 gamma) over the k = 0 frequency cell."""
    h = grid.dxi / 2.0
    c = _unit_cube_weight_integral(grid.dim, float(gamma))
    if math.isinf(c):
        return math.inf
    return c * h ** (grid.dim - 2.0 * gamma)


def hdotneg_norm(fld: SpectralField, gamma: float, policy: str) -> float:
    """Negative-order norm || |xi|^(-gamma) fhat ||; see module docstring."""
    if gamma < 0.0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")
    g = fld.grid
    origin = (0,) * g.dim
    c0 = fld.coeffs[origin]
    if policy == "require_zero":
        scale = float(np.max(np.abs(fld.coeffs)))
        if scale > 0.0 and abs(c0) > _ZERO_TOL * scale:
            raise ConfigError(
                f"zero mode fhat(0) = {c0:.3e} is nonzero under policy 'require_zero' "
                f"(relative size {abs(c0) / scale:.2e})"
            )
    total = _weighted_sum(fld, _hdotneg_weight(g, gamma))
    cell = zero_cell_weight(g, gamma)
    if math.isfinite(cell):
        total += abs(c0) ** 2 * cell
    return math.sqrt(total)


@dataclass
class EmbeddingReport:
    lhs: float
    rhs: float
    ratio: float


def embedding_check(
    fld: SpectralField,
    s: float,
    gamma_tilde: float,
    gamma: float,
    policy: str = "require_zero",
) -> EmbeddingReport:
    """Norm comparison behind the space inclusion for gamma_tilde < gamma.

    lhs uses the weaker weight gamma_tilde, rhs the stronger gamma; the
    ratio lhs/rhs is bounded by 2 uniformly (split |xi| <= 1 / |xi| > 1).
    """
    if not (0.0 <= gamma_tilde < gamma):
        raise ConfigError(
            f"need 0 <= gamma_tilde < gamma, got gamma_tilde={gamma_tilde}, gamma={gamma}"
        )
    base = hs_norm(fld, s)
    lhs = base + hdotneg_norm(fld, gamma_tilde, policy)
    rhs = base + hdotneg_norm(fld, gamma, policy)
    if rhs == 0.0:
        raise ConfigError("embedding check needs a nonzero field")
    return EmbeddingReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs)


def divergence_probe(
    build_field: Callable[[Grid], SpectralField],
    grid: Grid,
    gamma: float,
    policy: str = "exclude",
    levels: int = 3,
    growth_tol: float = 0.20,
) -> tuple[list[float], bool]:
    """Recompute the negative-order norm on refined grids and flag growth.

    Refinement doubles L and N together (same dx, halved dxi, unchanged
    xi_max), which probes the infrared behaviour of the underlying profile.
    The flag is set when any refinement step grows the norm by more than
    growth_tol, or when a value is non-finite.
    """
    values: list[float] = []
    for j in range(levels):
        gj = Grid(grid.dim, grid.size * 2**j, grid.half_length * 2**j)
        values.append(hdotneg_norm(build_field(gj), gamma, policy))
    flag = any(not math.isfinite(v) for v in values)
    for a, b in zip(values, values[1:]):
        if a > 0.0 and b / a - 1.0 > growth_tol:
            flag = True
    return values, flag
