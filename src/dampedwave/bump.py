"""Compactly supported bump functions with nonnegative transforms.

The base construction convolves the standard mollifier with itself on a
periodic grid: the result is smooth, supported in |x| <= 2, nonnegative,
and has nonnegative Fourier transform because convolution squares the
transform.  Integer powers of the base keep the first and third properties
and gain enough boundary flatness to survive division by fractional powers
in weighted integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid, SpectralField, evaluate_at, forward_transform

__all__ = [
    "mollifier_samples",
    "self_convolve",
    "power",
    "required_power",
    "check_conditions",
    "BumpFunction",
    "ConditionReport",
]

# support detection threshold, relative to the max sample
_SUPPORT_RTOL = 1e-300


def mollifier_samples(grid: Grid, center: float = 0.0) -> np.ndarray:
    """Samples of exp(-1/(1 - |x - c|^2)) on |x - c| < 1, zero outside.

    center shifts every axis by the same amount; nonzero centers exist to
    exercise failure modes of the origin-symmetry checks.
    """
    x = grid.x_axis - center
    r2 = grid.lattice(x * x, np.add)
    out = np.zeros(grid.shape)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


@dataclass(frozen=True)
class BumpFunction:
    """A convolved bump and an integer power of it.

    samples/coeffs describe the base function; power_samples holds
    base**exponent, the function actually used as a spatial test factor.
    """

    grid: Grid
    seed: np.ndarray
    samples: np.ndarray
    coeffs: SpectralField
    exponent: int
    power_samples: np.ndarray


def _support_half_width(grid: Grid, samples: np.ndarray) -> float:
    mask = np.abs(samples) > _SUPPORT_RTOL * np.max(np.abs(samples))
    if not mask.any():
        raise ConfigError("seed is identically zero")
    return float(np.max(grid.lattice(np.abs(grid.x_axis), np.maximum)[mask]))


def self_convolve(grid: Grid, seed: np.ndarray | None = None) -> BumpFunction:
    """Convolve a compactly supported seed with itself.

    Done in frequency space: the convolution's transform is
    (2 pi)^(n/2) seedhat^2.  The periodic product theorem only matches the
    whole-space convolution when the doubled support still fits in the box,
    so seeds reaching within one convolution-width of the boundary are
    rejected.
    """
    if seed is None:
        seed = mollifier_samples(grid)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != grid.shape:
        raise ConfigError("seed shape does not match grid")
    half = _support_half_width(grid, seed)
    if 2.0 * half > grid.half_length - 2.0 * grid.dx:
        raise ConfigError(
            f"seed support half-width {half:.3g} doubles past the box "
            f"(L = {grid.half_length}); convolution would wrap around"
        )
    seed_hat = forward_transform(grid, seed)
    conv_coeffs = (2.0 * np.pi) ** (grid.dim / 2.0) * seed_hat.coeffs**2
    coeffs = SpectralField(grid, conv_coeffs)
    samples = coeffs.physical()
    return BumpFunction(
        grid=grid,
        seed=seed,
        samples=samples,
        coeffs=coeffs,
        exponent=1,
        power_samples=samples,
    )


def power(bump: BumpFunction, exponent: int) -> BumpFunction:
    """Raise the base bump to an integer power >= 1."""
    if exponent < 1 or exponent != int(exponent):
        raise ConfigError(f"exponent must be an integer >= 1, got {exponent}")
    exponent = int(exponent)
    if exponent == bump.exponent:
        return bump
    psamples = np.maximum(bump.samples, 0.0) ** exponent
    return BumpFunction(
        grid=bump.grid,
        seed=bump.seed,
        samples=bump.samples,
        coeffs=bump.coeffs,
        exponent=exponent,
        power_samples=psamples,
    )


def required_power(p: float) -> int:
    """Smallest usable exponent for nonlinearity strength p > 1.

    Weighted integrals divide base**exponent by its p-th root conjugate,
    which stays bounded iff exponent > 2 p' with p' = p/(p-1); rounding up
    (and never below 3) gives the default.
    """
    if not (p > 1.0):
        raise ConfigError(f"need p > 1, got {p}")
    pprime = p / (p - 1.0)
    return max(3, math.floor(2.0 * pprime) + 1)


@dataclass(frozen=True)
class ConditionReport:
    """Measured results of the three admissibility checks on the base bump."""

    nonneg_ok: bool
    fourier_ok: bool
    monotone_ok: bool
    worst_negative: float
    worst_fourier: float
    worst_monotone: float

    @property
    def passed(self) -> bool:
        return self.nonneg_ok and self.fourier_ok and self.monotone_ok


def _ray_directions(dim: int) -> np.ndarray:
    dirs = []
    for d in range(dim):
        e = np.zeros(dim)
        e[d] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    if dim > 1:
        diag = np.ones(dim) / math.sqrt(dim)
        dirs.append(diag)
        dirs.append(-diag)
    return np.array(dirs)


def check_conditions(
    bump: BumpFunction, tol: float = 1e-8, ray_points: int = 80
) -> ConditionReport:
    """Verify the three hypotheses the test-function estimates rely on.

    (i)  base >= 0 pointwise,
    (ii) its transform is real and >= 0,
    (iii) R -> base(R x) is non-increasing in R > 0 for every x, checked
         along axis and diagonal rays by trig interpolation.

    Violations are measured relative to the max of the base (or of the
    transform); anything beyond tol fails.
    """
    top = float(np.max(bump.samples))
    if top <= 0.0:
        raise ConfigError("bump has no positive part")

    worst_neg = max(0.0, -float(np.min(bump.samples)) / top)
    nonneg_ok = worst_neg <= tol

    c = bump.coeffs.coeffs
    ctop = float(np.max(np.abs(c)))
    worst_f = max(
        float(np.max(np.abs(c.imag))) / ctop,
        max(0.0, -float(np.min(c.real)) / ctop),
    )
    fourier_ok = worst_f <= tol

    g = bump.grid
    reach = min(2.0 * _support_half_width(g, bump.seed) + 3.0 * g.dx, g.half_length)
    radii = np.linspace(0.0, reach, ray_points + 1)[1:]
    worst_m = 0.0
    for direction in _ray_directions(g.dim):
        pts = radii[:, None] * direction[None, :]
        vals = evaluate_at(bump.coeffs, pts)
        rise = float(np.max(np.diff(vals)))
        worst_m = max(worst_m, rise / top)
    monotone_ok = worst_m <= tol

    return ConditionReport(
        nonneg_ok=nonneg_ok,
        fourier_ok=fourier_ok,
        monotone_ok=monotone_ok,
        worst_negative=worst_neg,
        worst_fourier=worst_f,
        worst_monotone=worst_m,
    )
