"""Norms: closed-form oracles, zero-cell weight, divergence probe."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, SpectralField, forward_transform
from dampedwave.norms import (
    divergence_probe,
    embedding_check,
    hdotneg_norm,
    hs_norm,
    lp_norm,
    seminorm_hs,
    zero_cell_weight,
)


def _gaussian(grid: Grid) -> SpectralField:
    return forward_transform(grid, np.exp(-0.5 * grid.x_abs**2))


def test_gaussian_l2_oracle():
    fld = _gaussian(Grid(1, 1024, 30.0))
    assert lp_norm(fld, 2.0) == pytest.approx(math.pi**0.25, rel=1e-10)
    # the peak e^0 sits on the lattice point x = 0
    assert lp_norm(fld, math.inf) == pytest.approx(1.0, rel=1e-8)


def test_gaussian_h1_oracle():
    fld = _gaussian(Grid(1, 1024, 30.0))
    expected = math.sqrt(1.5 * math.sqrt(math.pi))
    assert hs_norm(fld, 1.0) == pytest.approx(expected, rel=1e-10)


def test_gaussian_seminorm_oracle():
    # homogeneous order-1 piece: integral xi^2 e^{-xi^2} = sqrt(pi)/2
    fld = _gaussian(Grid(1, 1024, 30.0))
    expected = math.sqrt(0.5 * math.sqrt(math.pi))
    assert seminorm_hs(fld, 1.0) == pytest.approx(expected, rel=1e-10)


def test_gaussian_negative_norm_oracle():
    # integral |xi|^{-1/2} e^{-xi^2} = Gamma(1/4); corrected quadrature
    # (the Gaussian has nonzero mean, so the tolerant policy is needed)
    fld = _gaussian(Grid(1, 4096, 40.0))
    expected = math.sqrt(math.gamma(0.25))
    got = hdotneg_norm(fld, 0.25, "exclude")
    assert got == pytest.approx(expected, rel=0.01)


def test_zero_cell_weight_against_quadrature():
    # 1d: integral over [-h/2, h/2] of |xi|^{-2 gamma}
    g = Grid(1, 64, 10.0)
    for gamma in (0.1, 0.25, 0.4):
        h = g.dxi
        exact = quad(lambda r: r ** (-2.0 * gamma), 0.0, h / 2.0)[0] * 2.0
        assert zero_cell_weight(g, gamma) == pytest.approx(exact, rel=1e-10)


def test_zero_cell_weight_2d_against_quadrature():
    # polar form with the radial integral closed: the square [-h,h]^2 is
    # eight wedges with outer radius h / cos(theta)
    g = Grid(2, 32, 10.0)
    gamma = 0.4
    h = g.dxi / 2.0
    exact = (
        8.0
        * quad(lambda th: (h / math.cos(th)) ** (2.0 - 2.0 * gamma), 0.0, math.pi / 4.0)[0]
        / (2.0 - 2.0 * gamma)
    )
    assert zero_cell_weight(g, gamma) == pytest.approx(exact, rel=1e-8)


def test_zero_cell_weight_3d_against_monte_carlo():
    g = Grid(3, 16, 10.0)
    gamma = 0.6
    h = g.dxi / 2.0
    rng = np.random.default_rng(21)
    pts = rng.uniform(-h, h, size=(400_000, 3))
    r2 = np.sum(pts * pts, axis=1)
    est = float(np.mean(r2 ** (-gamma))) * (2.0 * h) ** 3
    assert zero_cell_weight(g, gamma) == pytest.approx(est, rel=0.02)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_cell_weight_is_cell_volume_at_gamma_zero(dim):
    g = Grid(dim, 16, 10.0)
    assert zero_cell_weight(g, 0.0) == pytest.approx(g.dxi**dim, rel=1e-13)


def test_zero_cell_weight_infinite_at_critical_gamma():
    g = Grid(1, 64, 10.0)
    assert math.isinf(zero_cell_weight(g, 0.5))
    assert math.isinf(zero_cell_weight(g, 0.75))


def test_gamma_to_zero_limit_matches_l2():
    # corrected norm at gamma = 0 with the zero mode excluded equals l2
    g = Grid(1, 256, 15.0)
    rng = np.random.default_rng(12)
    samples = rng.standard_normal(g.shape)
    samples -= samples.mean()
    fld = forward_transform(g, samples)
    assert hdotneg_norm(fld, 0.0, "require_zero") == pytest.approx(
        lp_norm(fld, 2.0), rel=1e-10
    )


def test_policy_require_zero_rejects_nonzero_mean():
    fld = _gaussian(Grid(1, 256, 15.0))
    with pytest.raises(ConfigError):
        hdotneg_norm(fld, 0.75, "require_zero")
    # exclude drops the zero mode and returns the lattice sum
    val = hdotneg_norm(fld, 0.75, "exclude")
    assert math.isfinite(val) and val > 0.0


def test_unknown_policy_rejected():
    fld = _gaussian(Grid(1, 256, 15.0))
    with pytest.raises(ConfigError):
        hdotneg_norm(fld, 0.25, "ignore")


def test_divergence_probe_flags_supercritical_weight():
    values, flag = divergence_probe(_gaussian, Grid(1, 512, 20.0), 0.75)
    assert flag
    assert values[1] > values[0] * 1.2


def test_divergence_probe_accepts_subcritical_weight():
    values, flag = divergence_probe(_gaussian, Grid(1, 512, 20.0), 0.25)
    assert not flag
    spread = max(values) / min(values) - 1.0
    assert spread < 0.2


def test_embedding_ratio_bounded():
    g = Grid(1, 256, 20.0)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        samples = rng.standard_normal(g.shape)
        samples -= samples.mean()
        fld = forward_transform(g, samples)
        rep = embedding_check(fld, 1.0, 0.25, 0.5)
        assert rep.lhs <= 2.0 * rep.rhs
        worst = max(worst, rep.ratio)
    assert worst <= 2.0


def test_embedding_validates_order():
    fld = _gaussian(Grid(1, 256, 15.0))
    with pytest.raises(ConfigError):
        embedding_check(fld, 1.0, 0.5, 0.25)


def test_hs_order_validation():
    fld = _gaussian(Grid(1, 256, 15.0))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            hs_norm(fld, bad)


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16), (3, 8)])
def test_spectral_norms_match_a_full_lattice_reference(dim, size):
    g = Grid(dim, size, 6.0)
    samples = np.random.default_rng(dim).standard_normal(g.shape)
    fld = forward_transform(g, samples)
    # reference: every mode of the full fftn lattice, each counted once
    k = np.fft.fftfreq(size, 1.0 / size)
    xi2 = sum((g.dxi * a) ** 2 for a in np.meshgrid(*[k] * dim, indexing="ij"))
    phase = np.prod(np.meshgrid(*[(-1.0) ** np.abs(k)] * dim, indexing="ij"), axis=0)
    full = np.fft.fftn(samples) * phase * g.transform_scale
    mass = np.abs(full) ** 2 * g.dxi**dim
    for s in (0.5, 1.0):
        ref = math.sqrt(np.sum((1.0 + xi2) ** s * mass))
        assert hs_norm(fld, s) == pytest.approx(ref, rel=1e-14)
        ref = math.sqrt(np.sum(xi2**s * mass))
        assert seminorm_hs(fld, s) == pytest.approx(ref, rel=1e-14)
    gamma = 0.3
    off = xi2 > 0.0
    ref = np.sum(xi2[off] ** -gamma * mass[off]) + abs(full.flat[0]) ** 2 * zero_cell_weight(
        g, gamma
    )
    assert hdotneg_norm(fld, gamma, "exclude") == pytest.approx(math.sqrt(ref), rel=1e-14)
