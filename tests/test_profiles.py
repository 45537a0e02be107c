"""Profile families: membership, guards, and pair assembly."""

import math

import numpy as np
import pytest

from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, SpectralField, forward_transform
from dampedwave.norms import divergence_probe, hdotneg_norm
from dampedwave.profiles import (
    DataPair,
    assemble_pair,
    laplacian_gaussian,
    log_profile,
    power_profile,
)


def test_power_profile_values_and_support():
    g = Grid(1, 512, 100.0)
    fld = power_profile(g, 0.4)
    r = g.xi_abs
    inside = (r > 0.0) & (r < 0.5)
    assert np.allclose(fld.coeffs[inside].real, r[inside] ** (0.4 - 0.5))
    assert np.all(fld.coeffs[~inside] == 0.0)
    origin = fld.coeffs[(0,)]
    assert origin == 0.0


def test_log_profile_taper():
    g = Grid(1, 512, 100.0)
    log_f = log_profile(g, 0.5)
    pow_f = power_profile(g, 0.5)
    r = g.xi_abs
    inside = (r > 0.0) & (r < 0.5)
    ratio = log_f.coeffs[inside].real / pow_f.coeffs[inside].real
    assert np.allclose(ratio, 1.0 / np.log(1.0 / r[inside]))
    # taper vanishes toward the support edge, so log < power well inside
    assert np.all(ratio > 0.0)


def test_shell_count_guard():
    # dxi = pi / 8 leaves only a handful of shells below 1/2
    with pytest.raises(ConfigError):
        power_profile(Grid(1, 64, 8.0), 0.4)


def test_gamma_and_radius_validation():
    g = Grid(1, 512, 100.0)
    with pytest.raises(ConfigError):
        power_profile(g, 0.0)
    with pytest.raises(ConfigError):
        power_profile(g, 0.4, r0=0.7)
    with pytest.raises(ConfigError):
        log_profile(g, 0.4, r0=0.0)


def test_log_profile_membership_is_sharp():
    # finite at its own gamma, divergent under any stronger weight
    base = Grid(1, 512, 100.0)
    vals_own, flag_own = divergence_probe(
        lambda g: log_profile(g, 0.5), base, 0.5, policy="require_zero"
    )
    assert not flag_own
    _, flag_stronger = divergence_probe(
        lambda g: log_profile(g, 0.5), base, 1.25, policy="require_zero"
    )
    assert flag_stronger


def test_power_profile_log_divergence_at_own_gamma():
    # the squared norm grows by a fixed increment per grid doubling
    base = Grid(1, 512, 100.0)
    vals, _ = divergence_probe(
        lambda g: power_profile(g, 0.5), base, 0.5, policy="require_zero", levels=4
    )
    inc = np.diff(np.asarray(vals) ** 2)
    assert np.all(inc > 0.0)
    assert np.max(inc) / np.min(inc) < 1.2


def test_power_profile_diverges_under_stronger_weight():
    base = Grid(1, 512, 100.0)
    _, flag = divergence_probe(
        lambda g: power_profile(g, 0.5), base, 0.75, policy="require_zero"
    )
    assert flag


def test_laplacian_gaussian_zero_mean_and_membership():
    g = Grid(1, 256, 25.0)
    fld = laplacian_gaussian(g, 1)
    assert fld.coeffs[(0,)] == 0.0
    # zero mean and quadratic vanishing admit any negative weight in 1d
    vals, flag = divergence_probe(lambda gg: laplacian_gaussian(gg, 1), g, 1.0)
    assert not flag
    assert all(math.isfinite(v) for v in vals)


def test_laplacian_gaussian_guards():
    with pytest.raises(ConfigError):
        laplacian_gaussian(Grid(1, 256, 25.0), -1)
    # xi_max = pi * 64 / 64 ~ 3.14 < 5 truncates the tail
    with pytest.raises(ConfigError):
        laplacian_gaussian(Grid(1, 64, 32.0), 1)


def test_assemble_pair_basics():
    g = Grid(1, 512, 100.0)
    fld = power_profile(g, 0.4)
    pair = assemble_pair(fld, 0.25)
    assert pair.eps == 0.25
    assert pair.u0 is fld
    assert pair.u1 is not fld
    assert np.array_equal(pair.u0.coeffs, pair.u1.coeffs)


def test_assemble_pair_rejects_bad_eps_and_zero():
    g = Grid(1, 512, 100.0)
    fld = power_profile(g, 0.4)
    with pytest.raises(ConfigError):
        assemble_pair(fld, 0.0)
    with pytest.raises(ConfigError):
        assemble_pair(SpectralField(g, g.zeros_spectral()), 0.1)


def test_assemble_pair_rejects_signed_spectrum():
    g = Grid(1, 512, 100.0)
    fld = power_profile(g, 0.4, scale=-1.0)
    with pytest.raises(ConfigError):
        assemble_pair(fld, 0.1)


def test_assemble_pair_rejects_complex_asymmetry():
    g = Grid(1, 128, 20.0)
    # a shifted bump has complex coefficients with nonzero imaginary part
    samples = np.exp(-0.5 * (g.x_axis - 3.0) ** 2)
    fld = forward_transform(g, samples)
    with pytest.raises(ConfigError):
        assemble_pair(fld, 0.1)


def test_data_pair_rejects_coefficients_of_no_real_field():
    # an imaginary zero mode: irfftn would drop it and step another field
    coeffs = laplacian_gaussian(Grid(1, 64, 8.0), 0).coeffs
    real = SpectralField(Grid(1, 64, 8.0), coeffs)
    # NaN coefficients, and an interior +-inf, which would read as defect 0
    # once hermitian_defect divides by max|c| = inf
    infs = [coeffs.copy(), coeffs.copy()]
    infs[0][3], infs[1][3] = np.inf, -np.inf
    for bad in (SpectralField(Grid(1, 64, 8.0), 1j * coeffs),
                SpectralField(Grid(1, 64, 8.0), np.full_like(coeffs, np.nan)),
                *(SpectralField(Grid(1, 64, 8.0), c) for c in infs)):
        for u0, u1 in ((bad, real), (real, bad)):
            with pytest.raises(ConfigError, match="u0" if u0 is bad else "u1"):
                DataPair(u0=u0, u1=u1, eps=0.1)
    DataPair(u0=real, u1=real, eps=0.1)


def test_physical_data_is_real_and_even():
    g = Grid(1, 512, 100.0)
    u = power_profile(g, 0.4).physical()
    # evenness on the lattice: u(x_j) == u(x_{(N-j) mod N})
    mirrored = np.roll(u[::-1], 1)
    assert np.max(np.abs(u - mirrored)) < 1e-12 * np.max(np.abs(u))
