"""Space-time test functions and the weighted integral bounds they witness.

The spatial factor is a power phi = B**l of the radial bump B(|x|)
(bump.RadialBump) dilated to radius 2R; the temporal factor is a smooth
cutoff eta = c**l equal to 1 on [0, R^2/2] and 0 beyond R^2.  Pairing a
solution against such a product and integrating by parts turns the
equation into an inequality between

    I(R) = iint |u|^p phi_R eta_R,

its p-th root, a data pairing, and a weighted integral of the test
function alone.  Everything here is deterministic quadrature, and each
weak-form quantity is computed once: cutoff gives eta, eta' and eta''
from one evaluation of c, spatial_factors phi_R and Delta(phi_R) from
one lookup, and check_bounds derives every reported number.

check_bounds makes one forward pass over the snapshots, in the row
blocks its caller yields: each block gives every radius whose window
still covers it the per-row sums of |u|^p phi_R, u phi_R and
u Delta(phi_R), and is then dropped, so no snapshot outlives its block.

Weighted integrands are evaluated in a factored form: with phi = B**l and
eta = c**l the density is

    (B c)^(l - 2 p') |B^2 (E - l c c') - c^2 D|^{p'},

where D and E collect the second space and time derivatives, so only
positive powers of the vanishing factors appear and the integrand extends
continuously by zero whenever l > 2 p'.  Since phi is radial, phi_R and
Delta(phi_R) are table lookups at |x|/R in every dimension, and the
weight integrals are sums over radii.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bump import RadialBump, gauss_panels
from .errors import ConfigError
from .grid import Grid
from .profiles import DataPair

__all__ = [
    "cutoff",
    "spatial_factors",
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

# 48-point Gauss-Legendre panels over the radii of the weight quadratures
# (doubled to refine), and the time points they take at once
_RADIAL_PANELS = 3
_TIME_BLOCK = 64


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

    48 nodes, as in _tail_integral, come out low enough that the cutoff
    exceeds 1 just above tau = 1/2.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return float(np.sum(weights * _g(0.75 + 0.25 * nodes))) / 4.0


def _tail_integral(tau: np.ndarray) -> np.ndarray:
    """Integral of _g over [tau, 1], vectorised, spectrally accurate."""
    pts, weights = gauss_panels(np.asarray(tau, dtype=np.float64), 1.0)
    return (weights * _g(pts)).sum(axis=-1)


def cutoff(tau: np.ndarray, exponent: int) -> tuple:
    """(eta, eta', eta'') at tau for eta = c**exponent.

    c is a smooth non-increasing cutoff: 1 on [0, 1/2], 0 on [1, inf).
    c, c' and c'' are computed once, from closed forms of the generating
    bump rather than finite differences; exponent 1 returns them as is.
    """
    if exponent < 1 or exponent != int(exponent):
        raise ConfigError(f"cutoff exponent must be an integer >= 1, got {exponent}")
    l = int(exponent)
    tau = np.asarray(tau, dtype=np.float64)
    c = np.zeros_like(tau)
    c[tau <= 0.5 + _EDGE] = 1.0
    m = (tau > 0.5 + _EDGE) & (tau < 1.0 - _EDGE)
    c[m] = _tail_integral(tau[m]) / _g_mass()
    cp = -_g(tau) / _g_mass()
    cs = np.zeros_like(tau)
    tm = tau[m]
    w = (tm - 0.5) * (1.0 - tm)
    cs[m] = -np.exp(-1.0 / w) * (1.5 - 2.0 * tm) / (w * w) / _g_mass()
    if l == 1:
        return c, cp, cs
    second = l * (l - 1) * c ** (l - 2) * cp * cp + l * c ** (l - 1) * cs
    return c**l, l * c ** (l - 1) * cp, second


def _power_terms(bump: RadialBump, r: np.ndarray) -> tuple:
    """(B, D) at radii r, with Delta(B^l) = B^(l-2) D."""
    l = bump.exponent
    B, slope, lap = bump.at(r)
    return B, l * (l - 1) * slope * slope + l * B * lap


def spatial_factors(bump: RadialBump, R: float, grid: Grid) -> tuple:
    """(phi_R, Delta(phi_R)) on grid's lattice, phi_R(x) = B(|x|/R)**l.

    Both are lookups in the bump's table at |x|/R, taken only inside the
    support |x| < 2R; the Laplacian carries the 1/R^2 dilation factor.
    """
    if not (R >= 1.0):
        raise ConfigError(f"scale R must be >= 1, got {R}")
    l = bump.exponent
    if 2.0 * R > grid.half_length - 2.0 * grid.dx:
        raise ConfigError(
            f"dilated support radius 2R = {2 * R:.3g} does not fit the box "
            f"(L = {grid.half_length})"
        )
    inside = grid.x_abs < 2.0 * R
    B, D = _power_terms(bump, grid.x_abs[inside] / R)
    phi_r = np.zeros(grid.shape)
    lap_phi_r = np.zeros(grid.shape)
    phi_r[inside] = B**l
    lap_phi_r[inside] = B ** (l - 2) * D / (R * R)
    return phi_r, lap_phi_r


def pairing(data: DataPair, phi_r: np.ndarray) -> float:
    """Data pairing integral (u0 + u1, phi_R) for the unit-amplitude profile.

    phi_r holds phi_R's samples on the data's grid; multiply by eps for
    the actual data term.
    """
    g = data.u0.grid
    total = data.u0.physical() + data.u1.physical()
    return float((total * phi_r).sum() * g.dx**g.dim)


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

    exponent: int
    dominating: float
    literal: float
    rel_change_dominating: float
    rel_change_literal: float


def _weight_integrals(
    bump: RadialBump, p: float, R: float, time_points: int, radial_panels: int
) -> tuple[float, float]:
    """(dominating, literal) weighted integrals of bump's test function.

    R = 1 gives the unit-scale constants (every term at weight one); a
    larger R applies the dilation factors R^-4 / R^-2 and the volume
    factor R^(n+2).  dominating sums the absolute values of the three
    terms, literal takes the absolute value of their signed sum.  Space
    is a Gauss-Legendre sum over radii in [0, 2] with weight
    |S^(n-1)| r^(n-1), time a trapezoid sum over [0, 1].
    """
    l = bump.exponent
    pprime = p / (p - 1.0)
    surplus = l - 2.0 * pprime
    if surplus <= 0.0:
        raise ConfigError(
            f"exponent {l} is too small for p' = {pprime:.4g}: need l > 2p' "
            f"for an integrable weight"
        )
    n = bump.dim
    r, weights = gauss_panels(0.0, 2.0, radial_panels)
    rw = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * r ** (n - 1) * weights
    B, D = _power_terms(bump, r)

    tau = np.linspace(0.0, 1.0, time_points)
    c, cp, cs = cutoff(tau, 1)
    E = l * (l - 1) * cp * cp + l * c * cs  # (c^l)'' = c^(l-2) E

    r4, r2 = R**-4, R**-2
    B2 = B * B
    dom_t, lit_t = np.empty(time_points), np.empty(time_points)
    # (time, radius) blocks of _TIME_BLOCK rows keep the temporaries small
    for j in range(0, time_points, _TIME_BLOCK):
        b = slice(j, j + _TIME_BLOCK)
        cj, cpj, Ej = c[b, None], cp[b, None], E[b, None]
        vanish = (B * cj) ** surplus * rw
        dom = r4 * B2 * np.abs(Ej) + r2 * B2 * (l * cj * np.abs(cpj)) + (
            r2 * cj * cj * np.abs(D)
        )
        lit = np.abs(r4 * B2 * Ej - r2 * B2 * (l * cj * cpj) - r2 * cj * cj * D)
        dom_t[b] = (vanish * dom**pprime).sum(axis=1)
        lit_t[b] = (vanish * lit**pprime).sum(axis=1)
    vol_factor = R ** (n + 2)
    return (float(np.trapezoid(dom_t, tau)) * vol_factor,
            float(np.trapezoid(lit_t, tau)) * vol_factor)


def weight_constant(p: float, bump: RadialBump, time_points: int = 513) -> WeightReport:
    """Unit-scale weighted integrals of bump's test function.

    They are taken with the radial panels and time intervals doubled, and
    reported with their relative change from the undoubled values.
    """
    dom, lit = _weight_integrals(bump, p, 1.0, time_points, _RADIAL_PANELS)
    fine_t = 2 * (time_points - 1) + 1
    dom2, lit2 = _weight_integrals(bump, p, 1.0, fine_t, 2 * _RADIAL_PANELS)
    return WeightReport(
        exponent=bump.exponent,
        dominating=dom2,
        literal=lit2,
        rel_change_dominating=abs(dom2 - dom) / dom2 if dom2 else math.nan,
        rel_change_literal=abs(lit2 - lit) / lit2 if lit2 else math.nan,
    )


def scaled_weight(
    p: float, bump: RadialBump, R: float, time_points: int = 513
) -> float:
    """Dominating weighted integral of the scaled test function phi_R eta_R.

    For R >= 1 it is bounded by the unit-scale constant times
    R^(n + 2 - 2 p'), which is what the absorbed bound uses; the ratio of
    the two measures the slack.
    """
    return _weight_integrals(bump, p, float(R), time_points, _RADIAL_PANELS)[0]


# ---------------------------------------------------------------------
# bounds on a computed solution


@dataclass
class BoundReport:
    """Measured two-sided data for the weak-solution inequalities at one R.

    margin_holder: slack of  I <= -eps P + W^(1/p') I^(1/p) R^((n+2)/p'-2).
    margin_absorbed: slack of I <= p'(-eps P) + W R^(n+2-2p').
    identity_rel: |defect| of the exact identity I = -eps P + iint u
    Op(phi_R eta_R) over its largest term (0 if all are 0); it measures
    quadrature plus time-discretisation error, not estimate slack.
    The fields are the testfunc CSV columns, in order.
    """

    R: float
    i_value: float
    data_term: float  # -eps * pairing
    holder_rhs: float
    absorbed_rhs: float
    margin_holder: float
    margin_absorbed: float
    identity_rel: float


def check_bounds(
    times: np.ndarray,
    blocks: Iterable[np.ndarray],
    grid: Grid,
    data: DataPair,
    p: float,
    bump: RadialBump,
    R_values: Sequence[float],
    weight: WeightReport,
) -> list[BoundReport]:
    """Evaluate both weak-solution inequalities at each R on recorded fields.

    The snapshots must be the signed solution u of a run with amplitude
    data.eps and nonlinearity p, one field per time, recorded densely
    enough for time quadrature up to R^2; phi_R is bump dilated to radius
    2R.  blocks yields the snapshots as consecutive row blocks, each a
    stack of fields on axis 0; an in-memory stack is passed as [snapshots].
    Every check on the radii and times runs before the first block is
    taken; the rows then pass once.  Each row's sums are one pairwise sum
    whatever the block it arrives in, so the result is bit-identical to the
    one-shot expression.  Returns one BoundReport per R, in order.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or not times.size:
        raise ConfigError("snapshots must stack one field per time")
    if weight.exponent != bump.exponent:
        raise ConfigError("weight constant was computed for a different exponent")
    # (R, phi_R, Delta(phi_R), per-row sums of |u|^p phi_R, u phi_R, u Delta(phi_R))
    windows = []
    for R in map(float, R_values):
        phi_r, lap_phi_r = spatial_factors(bump, R, grid)
        if times[-1] < R**2 * (1.0 - 1e-9):
            raise ConfigError(
                f"fields end at t = {times[-1]:.6g}, before the cutoff window "
                f"closes at R^2 = {R ** 2:.6g}"
            )
        # eta(t/R^2) is 0 past R^2: the window ends at the first time at or
        # past it, or at the last time when that falls just short of R^2
        stop = min(times.size, int(np.searchsorted(times, R * R)) + 1)
        windows.append((R, phi_r, lap_phi_r, np.empty((3, stop))))
    last = max(sums.shape[1] for *_, sums in windows)

    axes = tuple(range(1, grid.dim + 1))
    start = 0
    for rows in blocks:
        if rows.shape[1:] != grid.shape:
            raise ConfigError("snapshot shape does not match grid")
        end = start + len(rows)
        if start < last:
            powered = np.abs(rows[: last - start])
            powered **= p
            for _, phi_r, lap_phi_r, sums in windows:
                k = min(end, sums.shape[1]) - start  # rows of this block in R's window
                if k > 0:
                    b = slice(start, start + k)
                    sums[0, b] = (powered[:k] * phi_r).sum(axis=axes)
                    sums[1, b] = (rows[:k] * phi_r).sum(axis=axes)
                    sums[2, b] = (rows[:k] * lap_phi_r).sum(axis=axes)
            del powered  # freed before the next block is read
        start = end
    if start != times.size:
        raise ConfigError("snapshots must stack one field per time")

    pprime = p / (p - 1.0)
    n = grid.dim
    vol = grid.dx**grid.dim
    W = weight.dominating
    reports = []
    for R, phi_r, _, sums in windows:
        window = times[: sums.shape[1]]
        eta, etap, etas = cutoff(window / R**2, bump.exponent)
        ival = float(np.trapezoid(sums[0] * vol * eta, window))
        data_term = -data.eps * pairing(data, phi_r)

        holder_rhs = data_term + W ** (1.0 / pprime) * ival ** (1.0 / p) * R ** (
            (n + 2.0) / pprime - 2.0
        )
        absorbed_rhs = pprime * data_term + W * R ** (n + 2.0 - 2.0 * pprime)

        # exact identity defect: I - (-eps P) - iint u Op(phi_R eta_R)
        u_phi = sums[1] * vol
        u_lap = sums[2] * vol
        op_series = u_phi * (etas / R**4 - etap / R**2) - u_lap * eta
        j_val = float(np.trapezoid(op_series, window))
        scale = max(abs(ival), abs(data_term), abs(j_val))
        residual = ival - data_term - j_val

        reports.append(BoundReport(
            R=R,
            i_value=ival,
            data_term=data_term,
            holder_rhs=holder_rhs,
            absorbed_rhs=absorbed_rhs,
            margin_holder=holder_rhs - ival,
            margin_absorbed=absorbed_rhs - ival,
            identity_rel=abs(residual) / scale if scale > 0.0 else 0.0,
        ))
    return reports
