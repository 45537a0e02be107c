"""Initial-data families defined by explicit Fourier profiles.

All builders return a SpectralField with real nonnegative radial
coefficients, so the physical data is real and even and the sign condition
on the transformed data sum holds by construction.  The low-frequency
families concentrate mass near the origin and are the inputs whose
negative-order norms control decay rates; the smooth family is a
polynomial-in-frequency times Gaussian and lies in every Sobolev space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid, SpectralField, hermitian_defect

__all__ = [
    "log_profile",
    "power_profile",
    "laplacian_gaussian",
    "DataPair",
    "assemble_pair",
]

# relative roundoff allowed in the real-data checks on spectral coefficients
_RTOL = 1e-12

# low-frequency builders need this many lattice shells inside the support
# radius before the Riemann sums of the singular weight are trustworthy
_MIN_SHELLS = 8


def _check_low_freq(grid: Grid, gamma: float, r0: float) -> None:
    if not (gamma > 0.0):
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if not (0.0 < r0 <= 0.5):
        raise ConfigError(f"support radius must lie in (0, 1/2], got {r0}")
    shells = int(r0 / grid.dxi * (1.0 - 1e-12))
    if shells < _MIN_SHELLS:
        raise ConfigError(
            f"only {shells} frequency shells below r0 = {r0}; need at least "
            f"{_MIN_SHELLS} (grow half_length so dxi = {grid.dxi:.4g} shrinks)"
        )


def log_profile(
    grid: Grid, gamma: float, r0: float = 0.5, scale: float = 1.0
) -> SpectralField:
    """Coefficients scale * |xi|^(gamma - n/2) / log(1/|xi|) on 0 < |xi| < r0.

    Critical member of the gamma-weighted class: the pure power profile
    fails the gamma weight by a logarithmic divergence, and the log taper
    is exactly what restores a finite norm, while every stronger weight
    gamma' > gamma still diverges.  The origin mode is exactly zero.
    Requires r0 <= 1/2 so the log factor is positive.
    """
    _check_low_freq(grid, gamma, r0)
    r = grid.xi_abs
    inside = (r > 0.0) & (r < r0)
    coeffs = grid.zeros_spectral()
    rr = r[inside]
    coeffs[inside] = scale * rr ** (gamma - grid.dim / 2.0) / np.log(1.0 / rr)
    return SpectralField(grid, coeffs)


def power_profile(
    grid: Grid, gamma: float, r0: float = 0.5, scale: float = 1.0
) -> SpectralField:
    """Coefficients scale * |xi|^(gamma - n/2) on 0 < |xi| < r0.

    Borderline member of the gamma-weighted class: the weighted square sum
    diverges logarithmically under grid refinement, but every gamma' > gamma
    norm is finite and the low-frequency amplitude is exactly the critical
    power, which makes measured decay exponents land on the sharp rate
    instead of above it.
    """
    _check_low_freq(grid, gamma, r0)
    r = grid.xi_abs
    inside = (r > 0.0) & (r < r0)
    coeffs = grid.zeros_spectral()
    coeffs[inside] = scale * r[inside] ** (gamma - grid.dim / 2.0)
    return SpectralField(grid, coeffs)


def laplacian_gaussian(grid: Grid, k: int, scale: float = 1.0) -> SpectralField:
    """Coefficients scale * |xi|^(2k) e^(-|xi|^2 / 2).

    Physical side is (-Delta)^k applied to the unit Gaussian, up to sign
    conventions absorbed into the nonnegative spectral amplitude.  For
    k >= 1 the zero mode vanishes, so the data has zero mean and every
    negative-order norm is finite.  Smooth companion to the singular
    low-frequency families.
    """
    if k < 0 or k != int(k):
        raise ConfigError(f"k must be a nonnegative integer, got {k}")
    if grid.xi_max < 5.0:
        raise ConfigError(
            f"xi_max = {grid.xi_max:.3g} truncates the Gaussian tail; need >= 5"
        )
    r2 = grid.xi2
    coeffs = scale * r2 ** int(k) * np.exp(-r2 / 2.0) + 0j
    return SpectralField(grid, coeffs)


@dataclass(frozen=True)
class DataPair:
    """Initial displacement and velocity, amplitude factored out.

    The solver multiplies both fields by eps at setup; keeping the shape
    and the amplitude separate lets lifespan ladders reuse one profile.
    Both fields must hold the half-spectrum of a real field.
    """

    u0: SpectralField
    u1: SpectralField
    eps: float
    family: str

    def __post_init__(self) -> None:
        for name in ("u0", "u1"):
            defect = hermitian_defect(getattr(self, name))
            if defect > _RTOL:
                raise ConfigError(
                    f"{name} is not the spectrum of a real field: its k = 0 and "
                    f"k = N/2 planes break c(-k) = conj(c(k)) by {defect:.3g} relative"
                )


def assemble_pair(
    field: SpectralField, eps: float, family: str = "custom"
) -> DataPair:
    """Use one profile as both displacement and velocity shape.

    Validates that the transformed sum u0hat + u1hat is real and
    nonnegative (required by the sign hypotheses of both the decay and the
    blow-up experiments).
    """
    if not (eps > 0.0):
        raise ConfigError(f"eps must be positive, got {eps}")
    total = 2.0 * field.coeffs
    top = float(np.max(np.abs(total)))
    if top == 0.0:
        raise ConfigError("profile is identically zero")
    tol = _RTOL * top
    if float(np.max(np.abs(total.imag))) > tol or float(np.min(total.real)) < -tol:
        raise ConfigError(
            "u0hat + u1hat must be real and nonnegative for this data family"
        )
    return DataPair(u0=field, u1=field.copy(), eps=eps, family=family)
