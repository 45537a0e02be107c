"""Periodic spectral grid and unitary discrete Fourier transforms.

The physical domain is the torus [-L, L)^n sampled at N points per axis.
Frequencies are xi_k = (pi/L) k with integer k in [-N/2, N/2).  Transforms
use the unitary convention

    fhat(xi) = (2 pi)^(-n/2) * integral f(x) exp(-i x.xi) dx,

discretised with Riemann weight dx^n, so a centred Gaussian e^{-|x|^2/2}
maps to e^{-|xi|^2/2}.  Every field is real, so a SpectralField and the
Grid's spectral arrays hold only the half-spectrum that np.fft.rfftn
returns (last axis k = 0 .. N/2); the discrete Parseval identity
sum |f|^2 dx^n = sum w |fhat|^2 dxi^n holds exactly with the column
weight w = 1 at k = 0 and k = N/2 and w = 2 elsewhere.  full_of rebuilds
the full fftn lattice for off-lattice interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "full_of",
    "hermitian_defect",
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

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the half-spectrum: the last axis keeps k = 0 .. N/2."""
        return self.shape[:-1] + (self.size // 2 + 1,)

    def lattice(self, per_axis: np.ndarray, op: Callable, *, half: bool = False) -> np.ndarray:
        """op folded over the axes: out[i0, .., i(n-1)] = op(v[i0], .., v[i(n-1)]).

        per_axis holds one value per axis index; half=True cuts the last
        axis to the spectral_shape, keeping fftn ordering (so its last
        entry is the Nyquist mode k = -N/2).
        """
        cols = [per_axis] * self.dim
        if half:
            cols[-1] = per_axis[: self.spectral_shape[-1]]
        return reduce(op, np.meshgrid(*cols, indexing="ij", sparse=True))

    @cached_property
    def xi2(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum."""
        return self.lattice(self.xi_axis * self.xi_axis, np.add, half=True)

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi2)

    @cached_property
    def phase(self) -> np.ndarray:
        """(-1)^(k1+...+kn) on the half-spectrum: shifts the DFT origin to x = -L."""
        return self.lattice(1.0 - 2.0 * (np.abs(self.k_axis) % 2), np.multiply, half=True)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask on the half-spectrum: keeps |k| <= N/3 per axis."""
        return self.lattice(np.abs(self.k_axis) <= self.size // 3, np.logical_and, half=True)

    @cached_property
    def column_weight(self) -> np.ndarray:
        """Modes each half-spectrum column stands for: 1 at k = 0 and N/2, else 2."""
        w = np.full(self.spectral_shape[-1], 2.0)
        w[[0, -1]] = 1.0
        return w

    @cached_property
    def x_abs(self) -> np.ndarray:
        """|x| on the physical lattice."""
        return np.sqrt(self.lattice(self.x_axis * self.x_axis, np.add))

    def zeros_spectral(self) -> np.ndarray:
        return np.zeros(self.spectral_shape, dtype=np.complex128)


@dataclass
class SpectralField:
    """A real field stored by its half-spectrum on a Grid.

    coeffs follow numpy rfftn ordering (last axis k = 0 .. N/2) and
    approximate the continuum unitary transform evaluated at xi_k (the -L
    origin phase is already folded in); the modes left out are the
    conjugates fhat(-k) = conj(fhat(k)) of a real field.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.spectral_shape:
            raise ConfigError(
                f"coeffs shape {self.coeffs.shape} does not match the half-spectrum "
                f"shape {self.grid.spectral_shape} of the grid"
            )

    def physical(self) -> np.ndarray:
        """Inverse transform to physical samples."""
        return inverse_transform(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def forward_transform(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Transform real physical samples on the grid to a SpectralField."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ConfigError(
            f"samples shape {samples.shape} does not match grid shape {grid.shape}"
        )
    coeffs = np.fft.rfftn(samples) * (grid.phase * grid.transform_scale)
    return SpectralField(grid, coeffs)


def inverse_transform(fld: SpectralField) -> np.ndarray:
    """Real physical samples of the field."""
    g = fld.grid
    axes = tuple(range(g.dim))
    return np.fft.irfftn(fld.coeffs * g.phase, s=g.shape, axes=axes) / g.transform_scale


def _mirror(half: np.ndarray) -> np.ndarray:
    """half at index -k mod N along every axis but the last."""
    for ax in range(half.ndim - 1):
        half = np.roll(np.flip(half, ax), 1, ax)
    return half


def full_of(half: np.ndarray) -> np.ndarray:
    """Full fftn-ordered lattice of a real field's half-spectrum.

    half keeps the last axis for k = 0 .. N/2, as np.fft.rfftn returns it
    (N even); each missing mode is filled in as fhat(-k) = conj(fhat(k)).
    """
    return np.concatenate([half, np.conj(_mirror(half)[..., -2:0:-1])], axis=-1)


def hermitian_defect(fld: SpectralField) -> float:
    """How far fld's coefficients are from those of a real field.

    The last-axis planes k = 0 and k = N/2 are their own mirrors, so a real
    field needs c(-k) = conj(c(k)) within them; irfftn silently drops any
    part that breaks it.  Returns the largest break relative to max |c|
    (0 for a zero field).  Costs O(N^(dim-1)).
    """
    planes = fld.coeffs[..., [0, -1]]
    top = float(np.max(np.abs(fld.coeffs)))
    if top == 0.0:
        return 0.0
    return float(np.max(np.abs(_mirror(planes) - np.conj(planes)))) / top


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
    full = full_of(fld.coeffs)  # the Nyquist mode sits at xi = -xi_max
    out = np.empty(pts.shape[0], dtype=np.complex128)
    for i, x in enumerate(pts):
        acc = full
        for d in range(g.dim):
            acc = np.tensordot(acc, np.exp(1j * x[d] * xi), axes=([0], [0]))
        out[i] = acc
    return out.real * norm
