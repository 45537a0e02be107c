"""Space-time test functions and the weighted integral bounds they witness.

The spatial factor is a bump power phi = base**l dilated to radius ~2R;
the temporal factor is a smooth cutoff eta = cut**l equal to 1 on
[0, R^2/2] and 0 beyond R^2.  Pairing a solution against such a product
and integrating by parts turns the equation into an inequality between

    I(R) = iint |u|^p phi_R eta_R,

its p-th root, a data pairing, and a weighted integral of the test
function alone.  Everything here is deterministic quadrature.

Weighted integrands are evaluated in a factored form: with phi = B**l and
eta = c**l the density is

    (B c)^(l - 2 p') |B^2 (E - l c c') - c^2 D|^{p'},

where D and E collect the second space and time derivatives, so only
positive powers of the vanishing factors appear and the integrand extends
continuously by zero whenever l > 2 p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bump import BumpFunction, required_power, self_convolve
from .errors import ConfigError
from .grid import Grid, SpectralField, evaluate_at
from .profiles import DataPair

__all__ = [
    "TimeCutoff",
    "TestPair",
    "SpatialFactors",
    "spatial_factors",
    "i_of_r",
    "pairing",
    "WeightReport",
    "weight_constant",
    "scaled_weight",
    "BoundReport",
    "check_bounds",
]

# cutoff transition lives on (1/2, 1); closer than this to an endpoint the
# profile is flat to double precision and the closed forms would hit 0/0
_EDGE = 1e-9


def _g(tau: np.ndarray) -> np.ndarray:
    """Bump exp(-1/((tau - 1/2)(1 - tau))) supported on (1/2, 1)."""
    tau = np.asarray(tau, dtype=np.float64)
    out = np.zeros_like(tau)
    m = (tau > 0.5 + _EDGE) & (tau < 1.0 - _EDGE)
    w = (tau[m] - 0.5) * (1.0 - tau[m])
    out[m] = np.exp(-1.0 / w)
    return out


@lru_cache(maxsize=1)
def _g_mass() -> float:
    """Integral of _g over [1/2, 1] by a 64-node Gauss-Legendre sum.

    48 nodes, as in _tail_integral, come out low enough that base()
    exceeds 1 just above tau = 1/2.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return float(np.sum(weights * _g(0.75 + 0.25 * nodes))) / 4.0


# Gauss-Legendre rule reused for the cutoff's tail integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _tail_integral(tau: np.ndarray) -> np.ndarray:
    """Integral of _g over [tau, 1], vectorised, spectrally accurate."""
    tau = np.asarray(tau, dtype=np.float64)
    half_len = (1.0 - tau) / 2.0
    mid = (1.0 + tau) / 2.0
    pts = mid[..., None] + half_len[..., None] * _GL_NODES
    return (half_len[..., None] * _GL_WEIGHTS * _g(pts)).sum(axis=-1)


class TimeCutoff:
    """Smooth non-increasing cutoff: 1 on [0, 1/2], 0 on [1, inf).

    base() is the un-powered profile; eta and its derivatives apply the
    stored integer power.  Derivatives use closed forms of the generating
    bump, not finite differences.
    """

    def __init__(self, exponent: int = 1):
        if exponent < 1 or exponent != int(exponent):
            raise ConfigError(
                f"cutoff exponent must be an integer >= 1, got {exponent}"
            )
        self.exponent = int(exponent)

    # -- un-powered profile -------------------------------------------
    @staticmethod
    def base(tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=np.float64)
        out = np.zeros_like(tau)
        out[tau <= 0.5 + _EDGE] = 1.0
        m = (tau > 0.5 + _EDGE) & (tau < 1.0 - _EDGE)
        out[m] = _tail_integral(tau[m]) / _g_mass()
        return out

    @staticmethod
    def base_prime(tau: np.ndarray) -> np.ndarray:
        return -_g(tau) / _g_mass()

    @staticmethod
    def base_second(tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=np.float64)
        out = np.zeros_like(tau)
        m = (tau > 0.5 + _EDGE) & (tau < 1.0 - _EDGE)
        tm = tau[m]
        w = (tm - 0.5) * (1.0 - tm)
        out[m] = -np.exp(-1.0 / w) * (1.5 - 2.0 * tm) / (w * w) / _g_mass()
        return out

    # -- powered profile ----------------------------------------------
    def eta(self, tau: np.ndarray) -> np.ndarray:
        return self.base(tau) ** self.exponent

    def eta_prime(self, tau: np.ndarray) -> np.ndarray:
        l = self.exponent
        b = self.base(tau)
        return l * b ** (l - 1) * self.base_prime(tau)

    def eta_second(self, tau: np.ndarray) -> np.ndarray:
        l = self.exponent
        b = self.base(tau)
        bp = self.base_prime(tau)
        bs = self.base_second(tau)
        if l == 1:
            return bs
        return l * (l - 1) * b ** (l - 2) * bp * bp + l * b ** (l - 1) * bs


@dataclass(frozen=True)
class TestPair:
    """A powered bump dilated to radius ~2R plus the matching time cutoff."""

    bump: BumpFunction
    R: float

    def __post_init__(self) -> None:
        if not (self.R >= 1.0):
            raise ConfigError(f"scale R must be >= 1, got {self.R}")

    @property
    def exponent(self) -> int:
        return self.bump.exponent

    @property
    def cutoff(self) -> TimeCutoff:
        return TimeCutoff(self.bump.exponent)


def _lattice_points(grid: Grid) -> np.ndarray:
    axes = np.meshgrid(*([grid.x_axis] * grid.dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _axis_xi(grid: Grid, d: int) -> np.ndarray:
    shape = [1] * grid.dim
    shape[d] = grid.size
    return grid.xi_axis.reshape(shape)


@dataclass
class SpatialFactors:
    """phi_R and its Laplacian sampled on a target grid.

    lap_phi_r contains the 1/R^2 dilation factor, i.e. it is Delta(phi_R)
    itself.
    """

    grid: Grid
    R: float
    exponent: int
    phi_r: np.ndarray
    lap_phi_r: np.ndarray


def spatial_factors(pair: TestPair, grid: Grid) -> SpatialFactors:
    """Sample phi_R(x) = base(x/R)**l and Delta(phi_R) on grid's lattice.

    The bump lives on its own small periodic grid; values at x/R come from
    trig interpolation there, restricted to points inside the bump support
    so the periodic interpolant is never read outside its own box.
    """
    g = grid
    b = pair.bump
    l = pair.exponent
    R = pair.R
    if 2.0 * R > g.half_length - 2.0 * g.dx:
        raise ConfigError(
            f"dilated support radius 2R = {2 * R:.3g} does not fit the box "
            f"(L = {g.half_length})"
        )
    pts = _lattice_points(g) / R
    support = 2.0 + 2.0 * b.grid.dx
    inside = np.max(np.abs(pts), axis=1) <= support
    sel = pts[inside]

    base_vals = np.maximum(evaluate_at(b.coeffs, sel), 0.0)
    grad2 = np.zeros_like(base_vals)
    for d in range(g.dim):
        dcoeffs = SpectralField(b.grid, 1j * _axis_xi(b.grid, d) * b.coeffs.coeffs)
        gr = evaluate_at(dcoeffs, sel)
        grad2 += gr * gr
    lap = evaluate_at(SpectralField(b.grid, -b.grid.xi2 * b.coeffs.coeffs), sel)
    # Delta(base**l) = l(l-1) base^(l-2) |grad base|^2 + l base^(l-1) lap
    lap_base_pow = (
        l * (l - 1) * base_vals ** (l - 2) * grad2 + l * base_vals ** (l - 1) * lap
    )

    phi_r = np.zeros(g.size**g.dim)
    lap_phi_r = np.zeros(g.size**g.dim)
    phi_r[inside] = base_vals**l
    lap_phi_r[inside] = lap_base_pow / (R * R)
    return SpatialFactors(
        grid=g,
        R=R,
        exponent=l,
        phi_r=phi_r.reshape(g.shape),
        lap_phi_r=lap_phi_r.reshape(g.shape),
    )


def _check_fields(times: np.ndarray, snapshots: np.ndarray, pair: TestPair) -> None:
    if times.ndim != 1 or snapshots.shape[0] != times.size:
        raise ConfigError("snapshots must stack one field per time")
    if times[-1] < pair.R**2 * (1.0 - 1e-9):
        raise ConfigError(
            f"fields end at t = {times[-1]:.6g}, before the cutoff window "
            f"closes at R^2 = {pair.R ** 2:.6g}"
        )


def i_of_r(
    times: np.ndarray,
    snapshots: np.ndarray,
    grid: Grid,
    p: float,
    pair: TestPair,
    factors: SpatialFactors | None = None,
) -> float:
    """I(R): space-time integral of |u|^p against phi_R eta_R.

    times must reach R^2, where the cutoff has fully switched off;
    quadrature is a Riemann sum in space, trapezoid in time.
    """
    times = np.asarray(times, dtype=np.float64)
    _check_fields(times, snapshots, pair)
    if snapshots.shape[1:] != grid.shape:
        raise ConfigError("snapshot shape does not match grid")
    if factors is None:
        factors = spatial_factors(pair, grid)
    vol = grid.dx**grid.dim
    axes = tuple(range(1, snapshots.ndim))
    spatial = (np.abs(snapshots) ** p * factors.phi_r).sum(axis=axes) * vol
    eta_vals = pair.cutoff.eta(times / pair.R**2)
    return float(np.trapezoid(spatial * eta_vals, times))


def pairing(
    data: DataPair, pair: TestPair, factors: SpatialFactors | None = None
) -> float:
    """Data pairing integral (u0 + u1, phi_R) for the unit-amplitude profile.

    Multiply by eps for the actual data term.
    """
    g = data.u0.grid
    if factors is None:
        factors = spatial_factors(pair, g)
    total = data.u0.physical() + data.u1.physical()
    return float((total * factors.phi_r).sum() * g.dx**g.dim)


# ---------------------------------------------------------------------
# weighted integrals of the test function alone


@dataclass
class WeightReport:
    """Unit-scale weighted integrals of the test function.

    dominating bounds the operator by the sum of absolute values of its
    three terms before powering (the constant the R-form bounds use);
    literal keeps the signed combination.  rel_change_* report the effect
    of doubling both quadrature resolutions.
    """

    p: float
    exponent: int
    dim: int
    dominating: float
    literal: float
    rel_change_dominating: float
    rel_change_literal: float


def _bump_for(dim: int, size: int, half_length: float) -> BumpFunction:
    return self_convolve(Grid(dim, size, half_length))


def _weight_integral(
    bump: BumpFunction,
    p: float,
    l: int,
    R: float | None,
    time_points: int,
    variant: str,
) -> float:
    """Core quadrature shared by weight_constant and scaled_weight.

    R = None computes the unit-scale constant (every term at weight one);
    a float R applies the dilation factors R^-4 / R^-2 and the volume
    factor R^(n+2).  variant selects the signed ("literal") or termwise
    absolute ("dominating") combination.
    """
    if variant not in ("dominating", "literal"):
        raise ConfigError(f"unknown variant {variant!r}")
    pprime = p / (p - 1.0)
    surplus = l - 2.0 * pprime
    if surplus <= 0.0:
        raise ConfigError(
            f"exponent {l} is too small for p' = {pprime:.4g}: need l > 2p' "
            f"for an integrable weight"
        )
    g = bump.grid
    B = np.maximum(bump.samples, 0.0)
    grad2 = np.zeros_like(B)
    for d in range(g.dim):
        gr = SpectralField(g, 1j * _axis_xi(g, d) * bump.coeffs.coeffs).physical()
        grad2 += gr * gr
    lap = SpectralField(g, -g.xi2 * bump.coeffs.coeffs).physical()
    D = l * (l - 1) * grad2 + l * B * lap  # Delta(B^l) = B^(l-2) D

    tau = np.linspace(0.0, 1.0, time_points)
    cut = TimeCutoff(1)
    c = cut.base(tau)
    cp = cut.base_prime(tau)
    cs = cut.base_second(tau)
    E = l * (l - 1) * cp * cp + l * c * cs  # (c^l)'' = c^(l-2) E

    r4 = 1.0 if R is None else R**-4
    r2 = 1.0 if R is None else R**-2
    vol_factor = 1.0 if R is None else R ** (g.dim + 2)

    vol = g.dx**g.dim
    tw = np.full(time_points, (tau[1] - tau[0]))
    tw[0] *= 0.5
    tw[-1] *= 0.5

    B2 = B * B
    total = 0.0
    for j in range(time_points):
        cj, Ej, cpj = c[j], E[j], cp[j]
        if variant == "literal":
            bracket = np.abs(r4 * B2 * Ej - r2 * B2 * (l * cj * cpj) - r2 * cj * cj * D)
        else:
            bracket = r4 * B2 * np.abs(Ej) + r2 * B2 * (l * cj * np.abs(cpj)) + (
                r2 * cj * cj * np.abs(D)
            )
        density = (B * cj) ** surplus * bracket**pprime
        total += tw[j] * float(density.sum()) * vol
    return total * vol_factor


def weight_constant(
    p: float,
    exponent: int | None = None,
    dim: int = 1,
    size: int = 512,
    half_length: float = 4.0,
    time_points: int = 513,
    refine: bool = True,
) -> WeightReport:
    """Unit-scale weighted integral of the powered bump test function.

    Builds its own bump so quadrature refinement can rebuild on a finer
    grid; exponent defaults to the smallest admissible integer for p.
    """
    l = required_power(p) if exponent is None else int(exponent)
    bump = _bump_for(dim, size, half_length)
    dom = _weight_integral(bump, p, l, None, time_points, "dominating")
    lit = _weight_integral(bump, p, l, None, time_points, "literal")
    rel_d = math.nan
    rel_l = math.nan
    if refine:
        fine_bump = _bump_for(dim, size * 2, half_length)
        fine_t = 2 * (time_points - 1) + 1
        dom2 = _weight_integral(fine_bump, p, l, None, fine_t, "dominating")
        lit2 = _weight_integral(fine_bump, p, l, None, fine_t, "literal")
        rel_d = abs(dom2 - dom) / dom2 if dom2 else math.nan
        rel_l = abs(lit2 - lit) / lit2 if lit2 else math.nan
        dom, lit = dom2, lit2
    return WeightReport(
        p=p,
        exponent=l,
        dim=dim,
        dominating=dom,
        literal=lit,
        rel_change_dominating=rel_d,
        rel_change_literal=rel_l,
    )


def scaled_weight(
    p: float,
    exponent: int,
    R: float,
    dim: int = 1,
    size: int = 512,
    half_length: float = 4.0,
    time_points: int = 513,
    variant: str = "dominating",
    bump: BumpFunction | None = None,
) -> float:
    """Weighted integral of the scaled test function phi_R eta_R.

    For R >= 1 the dominating variant is bounded by the unit-scale
    constant times R^(n + 2 - 2 p'), which is what the absorbed bound
    uses; the ratio of the two measures the slack.
    """
    if bump is None:
        bump = _bump_for(dim, size, half_length)
    return _weight_integral(bump, p, int(exponent), float(R), time_points, variant)


# ---------------------------------------------------------------------
# bounds on a computed solution


@dataclass
class BoundReport:
    """Measured two-sided data for the weak-solution inequalities at one R.

    margin_holder: slack of  I <= -eps P + W^(1/p') I^(1/p) R^((n+2)/p'-2).
    margin_absorbed: slack of I <= p'(-eps P) + W R^(n+2-2p').
    identity_residual is the defect of the exact integrated identity
    I = -eps P + iint u Op(phi_R eta_R), relative to its largest term;
    it measures quadrature plus time-discretisation error, not estimate
    slack.
    """

    R: float
    i_value: float
    data_term: float  # -eps * pairing
    holder_rhs: float
    absorbed_rhs: float
    margin_holder: float
    margin_absorbed: float
    identity_residual: float
    identity_scale: float
    weight_dominating: float
    scaled_weight_dominating: float


def check_bounds(
    times: np.ndarray,
    snapshots: np.ndarray,
    grid: Grid,
    data: DataPair,
    p: float,
    pair: TestPair,
    weight: WeightReport | None = None,
) -> BoundReport:
    """Evaluate both weak-solution inequalities on recorded fields.

    snapshots must be the signed solution u of a run with amplitude
    data.eps and nonlinearity p, recorded densely enough for time
    quadrature up to R^2.
    """
    times = np.asarray(times, dtype=np.float64)
    _check_fields(times, snapshots, pair)
    if weight is None:
        weight = weight_constant(p, pair.exponent, dim=grid.dim)
    if weight.exponent != pair.exponent:
        raise ConfigError("weight constant was computed for a different exponent")
    pprime = p / (p - 1.0)
    n = grid.dim
    R = pair.R

    factors = spatial_factors(pair, grid)
    ival = i_of_r(times, snapshots, grid, p, pair, factors)
    pair_val = pairing(data, pair, factors)
    data_term = -data.eps * pair_val

    W = weight.dominating
    holder_rhs = data_term + W ** (1.0 / pprime) * ival ** (1.0 / p) * R ** (
        (n + 2.0) / pprime - 2.0
    )
    absorbed_rhs = pprime * data_term + W * R ** (n + 2.0 - 2.0 * pprime)

    # exact identity defect: I - (-eps P) - iint u Op(phi_R eta_R)
    cut = pair.cutoff
    tau = times / R**2
    eta = cut.eta(tau)
    etap = cut.eta_prime(tau) / R**2
    etas = cut.eta_second(tau) / R**4
    vol = grid.dx**grid.dim
    axes = tuple(range(1, snapshots.ndim))
    u_phi = (snapshots * factors.phi_r).sum(axis=axes) * vol
    u_lap = (snapshots * factors.lap_phi_r).sum(axis=axes) * vol
    op_series = u_phi * (etas - etap) - u_lap * eta
    j_val = float(np.trapezoid(op_series, times))
    scale = max(abs(ival), abs(data_term), abs(j_val))
    residual = ival - data_term - j_val

    swd = scaled_weight(
        p,
        pair.exponent,
        R,
        dim=grid.dim,
        size=pair.bump.grid.size,
        half_length=pair.bump.grid.half_length,
        bump=pair.bump,
    )

    return BoundReport(
        R=R,
        i_value=ival,
        data_term=data_term,
        holder_rhs=holder_rhs,
        absorbed_rhs=absorbed_rhs,
        margin_holder=holder_rhs - ival,
        margin_absorbed=absorbed_rhs - ival,
        identity_residual=residual,
        identity_scale=scale,
        weight_dominating=W,
        scaled_weight_dominating=swd,
    )
