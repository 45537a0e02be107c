"""Compactly supported bump functions with nonnegative transforms.

The base bump is the standard mollifier convolved with itself: smooth,
supported in |x| <= 2, nonnegative, radial, and with nonnegative Fourier
transform because convolution squares the transform.  Integer powers of
the base keep the first and last properties and gain enough boundary
flatness to survive division by fractional powers in weighted integrals.

RadialBump tabulates b(|x|) once per dimension by quadrature and a
Chebyshev fit; testfunc uses it.  self_convolve builds the bump on a
periodic grid instead: bump-check certifies that one, and the tests use
it as the oracle for the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import Grid, SpectralField, evaluate_at, forward_transform

__all__ = [
    "mollifier_samples",
    "self_convolve",
    "required_power",
    "check_conditions",
    "BumpFunction",
    "ConditionReport",
    "RadialBump",
    "gauss_panels",
]

# support detection threshold, relative to the max sample
_SUPPORT_RTOL = 1e-300

# relative violation of a bump condition that certification allows
CERTIFY_TOL = 1e-8

# the 48-point Gauss-Legendre rule gauss_panels maps, built once at
# import: a leggauss call goes through LAPACK, whose BLAS threads then
# spin for about 0.1 s of CPU, so the panels need no call at run time
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)

# the radial table: 48-point panels per quadrature variable, and the
# degree of the Chebyshev series in rho = r^2 on [0, 4]
_QUAD_PANELS = 4
_FIT_DEGREE = 192


def _mollifier(r2: np.ndarray) -> np.ndarray:
    """exp(-1/(1 - r2)) where r2 < 1, zero elsewhere; r2 = |x|^2."""
    out = np.zeros(np.shape(r2))
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def mollifier_samples(grid: Grid, center: float = 0.0) -> np.ndarray:
    """Samples of exp(-1/(1 - |x - c|^2)) on |x - c| < 1, zero outside.

    center shifts every axis by the same amount; nonzero centers exist to
    exercise failure modes of the origin-symmetry checks.
    """
    # |x| >= 1 on any axis is outside; clipping there keeps x * x finite
    x = np.minimum(np.abs(grid.x_axis - center), 1.0)
    return _mollifier(grid.lattice(x * x, np.add))


@dataclass(frozen=True)
class BumpFunction:
    """A convolved bump on a periodic grid: its seed, samples and coefficients."""

    grid: Grid
    seed: np.ndarray
    samples: np.ndarray
    coeffs: SpectralField


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
    coeffs = SpectralField(grid, (2.0 * np.pi) ** (grid.dim / 2.0) * seed_hat.coeffs**2)
    return BumpFunction(grid, seed, coeffs.physical(), coeffs)


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


def check_conditions(bump: BumpFunction) -> ConditionReport:
    """Verify the three hypotheses the test-function estimates rely on.

    (i)  base >= 0 pointwise,
    (ii) its transform is real and >= 0,
    (iii) R -> base(R x) is non-increasing in R > 0 for every x, checked
         at 80 radii along axis and diagonal rays by trig interpolation.

    Violations are measured relative to the max of the base (or of the
    transform); anything beyond CERTIFY_TOL fails.
    """
    top = float(np.max(bump.samples))
    if top <= 0.0:
        raise ConfigError("bump has no positive part")

    worst_neg = max(0.0, -float(np.min(bump.samples)) / top)
    nonneg_ok = worst_neg <= CERTIFY_TOL

    c = bump.coeffs.coeffs
    ctop = float(np.max(np.abs(c)))
    worst_f = max(
        float(np.max(np.abs(c.imag))) / ctop,
        max(0.0, -float(np.min(c.real)) / ctop),
    )
    fourier_ok = worst_f <= CERTIFY_TOL

    g = bump.grid
    reach = min(2.0 * _support_half_width(g, bump.seed) + 3.0 * g.dx, g.half_length)
    radii = np.linspace(0.0, reach, 81)[1:]
    worst_m = 0.0
    for direction in _ray_directions(g.dim):
        pts = radii[:, None] * direction[None, :]
        vals = evaluate_at(bump.coeffs, pts)
        rise = float(np.max(np.diff(vals)))
        worst_m = max(worst_m, rise / top)
    monotone_ok = worst_m <= CERTIFY_TOL

    return ConditionReport(
        nonneg_ok=nonneg_ok,
        fourier_ok=fourier_ok,
        monotone_ok=monotone_ok,
        worst_negative=worst_neg,
        worst_fourier=worst_f,
        worst_monotone=worst_m,
    )


def gauss_panels(a, b, panels: int = 1) -> tuple:
    """Composite 48-point Gauss-Legendre (nodes, weights) on [a, b].

    a and b broadcast; the nodes run along a new last axis.
    """
    t = ((np.arange(panels)[:, None] + (_GL_NODES + 1.0) / 2.0) / panels).ravel()
    w = np.tile(_GL_WEIGHTS, panels) / (2.0 * panels)
    width = np.asarray(b - a, dtype=np.float64)[..., None]
    return np.asarray(a)[..., None] + width * t, width * w


def _convolved_at(r: float, dim: int) -> float:
    """(m * m)(x) at |x| = r, integrating over y = s w with |w| = 1.

    m(y) m(x - y) vanishes unless s > r - 1 (and s > 0 off the line) and
    |x - y|^2 = r^2 + s^2 - 2 r s mu < 1 with mu = cos(x, w), so s and
    then the angle (2D, both sides) or mu (3D) run over that range only.
    """
    if dim == 1:
        s, ws = gauss_panels(r - 1.0, 1.0, _QUAD_PANELS)
        return float(np.sum(ws * _mollifier(s * s) * _mollifier((r - s) ** 2)))
    s, ws = gauss_panels(max(r - 1.0, 0.0), 1.0, _QUAD_PANELS)
    with np.errstate(divide="ignore"):  # at r = 0 every direction counts
        mu_lo = np.clip((r * r + s * s - 1.0) / (2.0 * r * s), -1.0, 1.0)
    if dim == 2:
        angle, wt = gauss_panels(0.0, np.arccos(mu_lo), _QUAD_PANELS)
        mu, shell = np.cos(angle), 2.0 * s
    else:
        mu, wt = gauss_panels(mu_lo, 1.0, _QUAD_PANELS)
        shell = 2.0 * np.pi * s * s
    col = s[:, None]
    inner = np.sum(wt * _mollifier(r * r + col * col - 2.0 * r * col * mu), axis=1)
    return float(np.sum(ws * shell * _mollifier(s * s) * inner))


@lru_cache(maxsize=None)
def _radial_fit(dim: int) -> tuple:
    """(g, report): b(r) = g(r^2) as a Chebyshev series, and its certificate.

    b is even in r, so a series in rho = r^2 has no odd part to get wrong
    and never divides by r.  The fit is sampled for b >= 0 and
    b' = 2 r g' <= 0 within the relative CERTIFY_TOL; b's transform
    is (2 pi)^(n/2) mhat^2 >= 0 by construction.
    """
    g = np.polynomial.Chebyshev.interpolate(
        lambda rho: [_convolved_at(math.sqrt(q), dim) for q in rho],
        _FIT_DEGREE, domain=[0.0, 4.0],
    )
    rho = np.linspace(0.0, 4.0, 4001)
    vals, slope = g(rho), g.deriv()(rho)
    neg = max(0.0, -float(vals.min())) / float(vals[0])
    rise = max(0.0, float(slope.max())) / float(np.abs(slope).max())
    report = ConditionReport(neg <= CERTIFY_TOL, True, rise <= CERTIFY_TOL, neg, 0.0, rise)
    if not report.passed:
        raise NumericalError(f"the {dim}D radial bump table fails certification: {report}")
    return g, report


@dataclass(frozen=True)
class RadialBump:
    """The base bump as a function of r = |x| in dim dimensions, and a power.

    exponent is the integer >= 1 that testfunc raises the base to.  The
    table is built on first use, once per dimension, and every exponent
    shares it; report is the table's certificate.
    """

    dim: int
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.exponent < 1 or self.exponent != int(self.exponent):
            raise ConfigError(f"exponent must be an integer >= 1, got {self.exponent}")

    @property
    def report(self) -> ConditionReport:
        return _radial_fit(self.dim)[1]

    def at(self, r: np.ndarray) -> tuple:
        """(b, b', Delta b) of the base at radii r, all 0 from r = 2 on.

        Delta b = b'' + (n - 1) b'/r = 2 n g' + 4 rho g'' with rho = r^2,
        so r = 0 needs no limit; b is clamped at 0 against fit roundoff.
        """
        g = _radial_fit(self.dim)[0]
        rho = np.minimum(np.asarray(r, dtype=np.float64) ** 2, 4.0)
        g1 = np.where(rho < 4.0, g.deriv()(rho), 0.0)
        b = np.where(rho < 4.0, np.maximum(g(rho), 0.0), 0.0)
        lap = np.where(rho < 4.0, 2.0 * self.dim * g1 + 4.0 * rho * g.deriv(2)(rho), 0.0)
        return b, 2.0 * np.sqrt(rho) * g1, lap
