"""Convolved bump: certification conditions, transform identity, powers of
the radial table, and the radial table against the grid bump."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dampedwave import bump as bump_module
from dampedwave.bump import (
    RadialBump,
    check_conditions,
    mollifier_samples,
    power,
    required_power,
    self_convolve,
)
from dampedwave.errors import ConfigError, NumericalError
from dampedwave.grid import Grid, SpectralField, evaluate_at, forward_transform

GRID = Grid(1, 512, 4.0)


@pytest.fixture(scope="module")
def base():
    return self_convolve(GRID)


def test_base_passes_all_conditions(base):
    rep = check_conditions(base)
    assert rep.nonneg_ok and rep.fourier_ok and rep.monotone_ok
    assert rep.passed


def test_transform_identity_against_direct_convolution(base):
    # phi = m * m computed by direct circular convolution; its transform
    # must equal the stored spectral coefficients.  With x_i = -L + i dx the
    # lattice index of the difference x_j - x_i is (j - i + n/2) mod n.
    m = mollifier_samples(GRID)
    n = GRID.size
    conv = np.empty(n)
    rev = m[::-1]
    for j in range(n):
        conv[j] = np.sum(m * np.roll(rev, j + 1 + n // 2))
    conv *= GRID.dx
    direct = forward_transform(GRID, conv)
    assert np.max(np.abs(direct.coeffs - base.coeffs.coeffs)) < 1e-10
    assert np.max(np.abs(conv - base.samples)) < 1e-10


def test_bump_is_nonnegative_with_unit_support(base):
    # inverse-transform roundoff may leave O(1e-17) dust below zero
    assert base.samples.min() >= -1e-15 * base.samples.max()
    x = GRID.x_axis
    outside = np.abs(x) > 2.0 + 2.0 * GRID.dx
    assert np.max(np.abs(base.samples[outside])) < 1e-15 * base.samples.max()


def test_fourier_side_nonnegative(base):
    c = base.coeffs.coeffs
    assert np.max(np.abs(c.imag)) < 1e-12 * np.max(np.abs(c))
    assert c.real.min() > -1e-12 * np.max(c.real)


def test_shifted_seed_fails_certification():
    shifted = self_convolve(GRID, mollifier_samples(GRID, 0.8))
    rep = check_conditions(shifted)
    assert not rep.passed
    assert not rep.fourier_ok
    assert not rep.monotone_ok


def test_wraparound_guard():
    # a seed of half-width 1.2 convolves to half-width 2.4, wrapping in [-2, 2)
    g = Grid(1, 256, 2.0)
    seed = np.maximum(0.0, 1.2 - np.abs(g.x_axis))
    with pytest.raises(ConfigError):
        self_convolve(g, seed)


def test_required_power_values():
    assert required_power(2.0) == 5
    assert required_power(3.0) == 4
    assert required_power(5.0) == 3
    assert required_power(1.5) == 7
    # always at least 3 and strictly above 2 p'
    for p in (1.2, 1.8, 2.5, 4.0, 9.0):
        l = required_power(p)
        pprime = p / (p - 1.0)
        assert l >= 3
        assert l > 2.0 * pprime


def test_certification_in_two_dimensions():
    g = Grid(2, 256, 3.0)
    rep = check_conditions(self_convolve(g))
    assert rep.passed


def test_power_requires_valid_exponent():
    base = RadialBump(1)
    with pytest.raises(ConfigError):
        power(base, 0)
    with pytest.raises(ConfigError):
        power(base, -2)
    # exponent 1 is the base itself
    assert power(base, 1) is base


@pytest.mark.parametrize("grid", [Grid(1, 512, 4.0), Grid(2, 256, 3.0)])
def test_radial_table_matches_the_grid_bump_along_an_axis(grid):
    # b, b' and the axis second derivative by trig interpolation of the
    # certified grid bump; off the origin b'' = Delta b - (n - 1) b'/r.
    # The 2D grid bump's own derivatives are good to about 5e-8: a 512^2
    # grid moves its b'' at r = 1.9 from 1.472e-7 to 1.238e-7, the table's
    n = grid.dim
    coeffs = self_convolve(grid).coeffs.coeffs
    xi = grid.xi_axis[: grid.spectral_shape[0]].reshape((-1,) + (1,) * (n - 1))
    r = np.linspace(0.0, 2.2, 111)
    pts = np.zeros((r.size, n))
    pts[:, 0] = r
    want = [evaluate_at(SpectralField(grid, m * coeffs), pts)
            for m in (1.0, 1j * xi, -xi * xi, -grid.xi2)]
    b, slope, lap = RadialBump(n).at(r)
    second = lap / n
    second[1:] = lap[1:] - (n - 1) * slope[1:] / r[1:]
    for got, ref, tol in zip((b, slope, second, lap), want, (1e-9, 1e-8, 1e-7, 1e-7)):
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_table_exact_identities(dim):
    # b(0) = int m^2 and int b = (int m)^2, each a radial integral
    sphere = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)

    def radial(f, upper):
        return sphere * quad(lambda r: f(r) * r ** (dim - 1), 0.0, upper,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0]

    m_sq = radial(lambda s: math.exp(-2.0 / (1.0 - s * s)), 1.0)
    m_int = radial(lambda s: math.exp(-1.0 / (1.0 - s * s)), 1.0)
    bump = RadialBump(dim)
    b_int = radial(lambda r: float(bump.at(np.array([r]))[0][0]), 2.0)
    assert bump.at(np.zeros(1))[0][0] == pytest.approx(m_sq, rel=1e-11)
    assert b_int == pytest.approx(m_int**2, rel=1e-11)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_table_is_certified(dim):
    rep = RadialBump(dim).report
    assert rep.passed
    assert rep.worst_negative <= 1e-12 and rep.worst_monotone <= 1e-10
    b, slope, lap = power(RadialBump(dim), 5).at(np.array([2.0, 2.5]))
    assert not b.any() and not slope.any() and not lap.any()


def test_an_uncertified_table_is_refused(monkeypatch):
    # a degree-12 series cannot follow b's flat tail: it dips below 0 and rises
    monkeypatch.setattr(bump_module, "_FIT_DEGREE", 12)
    bump_module._radial_fit.cache_clear()
    with pytest.raises(NumericalError, match="fails certification"):
        RadialBump(1).at(np.zeros(1))


def test_radial_bump_validation():
    for dim, exponent in ((0, 1), (4, 1), (1, 0), (1, 2.5)):
        with pytest.raises(ConfigError):
            power(RadialBump(dim), exponent)
    # the table is shared: a power keeps the base's dimension and certificate
    assert power(RadialBump(2), 5) == RadialBump(2, 5)
    assert power(RadialBump(2), 5).report is RadialBump(2).report
