"""Convolved bump: certification conditions, powers, transform identity."""

import numpy as np
import pytest

from dampedwave.bump import (
    check_conditions,
    mollifier_samples,
    power,
    required_power,
    self_convolve,
)
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, forward_transform

GRID = Grid(1, 512, 4.0)


@pytest.fixture(scope="module")
def base():
    return self_convolve(GRID)


def test_base_passes_all_conditions(base):
    rep = check_conditions(base, tol=1e-8)
    assert rep.nonneg_ok and rep.fourier_ok and rep.monotone_ok
    assert rep.passed


def test_powers_pass_conditions(base):
    for l in (3, 5, 7):
        rep = check_conditions(power(base, l), tol=1e-8)
        assert rep.passed, f"power {l}: {rep}"


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
    rep = check_conditions(shifted, tol=1e-8)
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
    rep = check_conditions(self_convolve(g), tol=1e-8)
    assert rep.passed


def test_power_requires_valid_exponent(base):
    with pytest.raises(ConfigError):
        power(base, 0)
    with pytest.raises(ConfigError):
        power(base, -2)
    # exponent 1 is the base itself
    assert power(base, 1) is base
