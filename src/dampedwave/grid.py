"""Periodic spectral grid and unitary discrete Fourier transforms.

The physical domain is the torus [-L, L)^n sampled at N points per axis.
Frequencies are xi_k = (pi/L) k with integer k in [-N/2, N/2).  Transforms
use the unitary convention

    fhat(xi) = (2 pi)^(-n/2) * integral f(x) exp(-i x.xi) dx,

discretised with Riemann weight dx^n, so a centred Gaussian e^{-|x|^2/2}
maps to e^{-|xi|^2/2} and the discrete Parseval identity
sum |f|^2 dx^n = sum |fhat|^2 dxi^n holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "full_of",
    "apply_radial_multiplier",
    "evaluate_at",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim with N samples per axis."""

    dim: int
    size: int
    half_length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.size
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"size must be a power of two >= 8, got {n}")
        if not (self.half_length > 0.0):
            raise ConfigError(f"half_length must be positive, got {self.half_length}")
        if self.xi_max <= 0.5:
            raise ConfigError(
                f"grid resolves no frequencies beyond the branch circle: "
                f"xi_max = {self.xi_max:.4f} <= 1/2 (increase size or shrink half_length)"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.size

    @property
    def dxi(self) -> float:
        return np.pi / self.half_length

    @property
    def xi_max(self) -> float:
        return np.pi * self.size / (2.0 * self.half_length)

    @property
    def transform_scale(self) -> float:
        """Riemann weight dx^n times the unitary factor (2 pi)^(-n/2)."""
        return self.dx**self.dim / (2.0 * np.pi) ** (self.dim / 2.0)

    @property
    def shape(self) -> tuple:
        return (self.size,) * self.dim

    @cached_property
    def x_axis(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        return -self.half_length + self.dx * np.arange(self.size)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer wavenumbers along one axis, fftn ordering."""
        return np.fft.fftfreq(self.size, 1.0 / self.size).astype(np.int64)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        return self.dxi * self.k_axis

    @cached_property
    def xi2(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice."""
        axes = np.meshgrid(*([self.xi_axis] * self.dim), indexing="ij", sparse=True)
        out = np.zeros(self.shape)
        for a in axes:
            out = out + a * a
        return out

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi2)

    @cached_property
    def phase(self) -> np.ndarray:
        """(-1)^(k1+...+kn): shifts the DFT origin to x = -L."""
        sign = 1.0 - 2.0 * (np.abs(self.k_axis) % 2)
        axes = np.meshgrid(*([sign] * self.dim), indexing="ij", sparse=True)
        out = np.ones(self.shape)
        for a in axes:
            out = out * a
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keeps |k| <= N/3 per axis."""
        keep = np.abs(self.k_axis) <= self.size // 3
        axes = np.meshgrid(*([keep] * self.dim), indexing="ij", sparse=True)
        out = np.ones(self.shape, dtype=bool)
        for a in axes:
            out = out & a
        return out

    @cached_property
    def x_abs(self) -> np.ndarray:
        """|x| on the physical lattice."""
        axes = np.meshgrid(*([self.x_axis] * self.dim), indexing="ij", sparse=True)
        out = np.zeros(self.shape)
        for a in axes:
            out = out + a * a
        return np.sqrt(out)

    def zeros_spectral(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)


@dataclass
class SpectralField:
    """A field stored by its spectral coefficients on a Grid.

    coeffs follow numpy fftn ordering and approximate the continuum unitary
    transform evaluated at xi_k (the -L origin phase is already folded in).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise ConfigError(
                f"coeffs shape {self.coeffs.shape} does not match grid shape {self.grid.shape}"
            )

    def physical(self) -> np.ndarray:
        """Inverse transform to physical samples (real part; see inverse_transform)."""
        return inverse_transform(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def is_conjugate_symmetric(self, tol: float = 1e-10) -> bool:
        """True when the field represents a real physical function."""
        phys = _inverse_complex(self)
        scale = np.max(np.abs(phys)) or 1.0
        return bool(np.max(np.abs(phys.imag)) <= tol * scale)


def forward_transform(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Transform physical samples on the grid to a SpectralField."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ConfigError(
            f"samples shape {samples.shape} does not match grid shape {grid.shape}"
        )
    coeffs = np.fft.fftn(samples) * (grid.phase * grid.transform_scale)
    return SpectralField(grid, coeffs)


def _inverse_complex(fld: SpectralField) -> np.ndarray:
    g = fld.grid
    return np.fft.ifftn(fld.coeffs * g.phase) / g.transform_scale


def inverse_transform(fld: SpectralField) -> np.ndarray:
    """Physical samples of the field.

    Returns the real part; coefficients of real fields satisfy conjugate
    symmetry and the imaginary residue is roundoff.  Use
    SpectralField.is_conjugate_symmetric to verify when in doubt.
    """
    return _inverse_complex(fld).real


def full_of(half: np.ndarray) -> np.ndarray:
    """Full fftn-ordered lattice of a real field's half-spectrum.

    half keeps the last axis for k = 0 .. N/2, as np.fft.rfftn returns it
    (N even); each missing mode is filled in as fhat(-k) = conj(fhat(k)).
    """
    mirror = half
    for ax in range(half.ndim - 1):
        mirror = np.roll(np.flip(mirror, ax), 1, ax)  # index k -> -k mod N
    return np.concatenate([half, np.conj(mirror[..., -2:0:-1])], axis=-1)


def evaluate_at(fld: SpectralField, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of the field at arbitrary points.

    points has shape (m, dim) (or (m,) in one dimension).  Evaluates the
    band-limited interpolant sum_k c_k e^{i x.xi_k} dxi^dim / (2 pi)^{dim/2},
    which agrees with inverse_transform on lattice points.  Cost is one
    tensor contraction per point; intended for modest point counts.
    """
    g = fld.grid
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if g.dim == 1 and pts.shape[0] == 1 and pts.shape[1] != 1:
        pts = pts.T
    if pts.ndim != 2 or pts.shape[1] != g.dim:
        raise ConfigError(f"points must have shape (m, {g.dim})")
    norm = g.dxi**g.dim / (2.0 * np.pi) ** (g.dim / 2.0)
    xi = np.asarray(g.xi_axis)
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for i, x in enumerate(pts):
        acc = fld.coeffs
        for d in range(g.dim):
            acc = np.tensordot(acc, np.exp(1j * x[d] * xi), axes=([0], [0]))
        out[i] = acc
    return out.real * norm


def apply_radial_multiplier(
    fld: SpectralField,
    multiplier: Callable[[np.ndarray], np.ndarray],
    *,
    zero_mode: float | str,
) -> SpectralField:
    """Multiply coefficients by m(|xi|).

    Multipliers singular at the origin must be resolved by the caller:
    zero_mode is either the float value to use at k = 0 or the string
    "evaluate" to trust m(0).  Non-finite multiplier values anywhere on the
    lattice are rejected.
    """
    g = fld.grid
    m = np.asarray(multiplier(g.xi_abs), dtype=np.float64)
    if m.shape != g.shape:
        raise ConfigError("multiplier must return one value per lattice point")
    origin = (0,) * g.dim
    if isinstance(zero_mode, str):
        if zero_mode != "evaluate":
            raise ConfigError(f"zero_mode must be a float or 'evaluate', got {zero_mode!r}")
    else:
        m[origin] = float(zero_mode)
    if not np.all(np.isfinite(m)):
        bad = g.xi_abs[~np.isfinite(m)]
        raise ConfigError(
            f"multiplier is non-finite at {bad.size} lattice points, "
            f"first offending |xi| = {bad.flat[0]:.6g}; pass an explicit zero_mode "
            f"or repair the multiplier"
        )
    return SpectralField(g, fld.coeffs * m)
