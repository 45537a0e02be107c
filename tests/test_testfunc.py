"""Cutoff calculus, scaled test functions, weighted integrals, bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dampedwave.bump import power, self_convolve
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, SpectralField, forward_transform
from dampedwave.profiles import assemble_pair
from dampedwave.solver import SimConfig, run
from dampedwave.testfunc import (
    TestPair,
    TimeCutoff,
    _axis_xi,
    _g,
    _g_mass,
    check_bounds,
    i_of_r,
    pairing,
    scaled_weight,
    spatial_factors,
    weight_constant,
)

# a library dataclass, not a test container
TestPair.__test__ = False


@pytest.fixture(scope="module")
def bump5():
    return power(self_convolve(Grid(1, 512, 4.0)), 5)


def test_cutoff_profile_shape():
    cut = TimeCutoff(3)
    tau = np.linspace(0.0, 1.5, 301)
    vals = cut.eta(tau)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[tau <= 0.5] == 1.0)
    assert np.all(vals[tau >= 1.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_cutoff_mass_matches_adaptive_quadrature():
    ref, _ = quad(lambda t: float(_g(np.array([t]))[0]), 0.5, 1.0, epsabs=1e-15)
    assert _g_mass() == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("exponent", [1, 3, 5])
def test_cutoff_derivatives_match_finite_differences(exponent):
    cut = TimeCutoff(exponent)
    tau = np.linspace(0.55, 0.93, 9)
    h = 1e-5
    fd1 = (cut.eta(tau + h) - cut.eta(tau - h)) / (2.0 * h)
    fd2 = (cut.eta(tau + h) - 2.0 * cut.eta(tau) + cut.eta(tau - h)) / (h * h)
    scale1 = np.max(np.abs(fd1))
    scale2 = np.max(np.abs(fd2))
    assert np.max(np.abs(cut.eta_prime(tau) - fd1)) < 1e-6 * scale1
    assert np.max(np.abs(cut.eta_second(tau) - fd2)) < 1e-4 * scale2


def test_cutoff_and_pair_validation(bump5):
    with pytest.raises(ConfigError):
        TimeCutoff(0)
    with pytest.raises(ConfigError):
        TestPair(bump5, 0.5)


def test_weight_requires_integrable_surplus():
    # p' = 2 needs exponent strictly above 4
    bump4 = power(self_convolve(Grid(1, 64, 4.0)), 4)
    with pytest.raises(ConfigError):
        weight_constant(2.0, bump4, time_points=33, refine=False)


def test_weight_refinement_is_stable(bump5):
    rep = weight_constant(2.0, bump5)
    assert rep.exponent == 5
    assert rep.dominating > rep.literal > 0.0
    assert rep.rel_change_dominating < 0.01
    assert rep.rel_change_literal < 0.01


def test_scaled_weight_bounded_by_unit_constant(bump5):
    rep = weight_constant(2.0, bump5, refine=False)
    expo = 1 + 2 - 2 * 2.0  # n + 2 - 2 p'
    for R in (2.0, 8.0, 32.0):
        s = scaled_weight(2.0, bump5, R)
        assert s <= rep.dominating * R**expo * (1.0 + 1e-9)


def test_scaled_weight_asymptotic_ratio(bump5):
    s128 = scaled_weight(2.0, bump5, 128.0)
    s256 = scaled_weight(2.0, bump5, 256.0)
    # n + 2 - 2p' = -1, so doubling R should halve the integral in the limit
    assert s256 / s128 == pytest.approx(0.5, rel=0.01)


def test_spatial_factors_values_and_laplacian(bump5):
    g = Grid(1, 256, 16.0)
    pair = TestPair(bump5, 2.0)
    fac = spatial_factors(pair, g)
    assert fac.phi_r.shape == g.shape
    center = g.size // 2
    assert g.x_axis[center] == 0.0
    peak = float(np.max(bump5.samples)) ** 5
    assert fac.phi_r[center] == pytest.approx(peak, rel=1e-10)
    # support of phi_R sits inside |x| <= 2R
    outside = np.abs(g.x_axis) > 2.0 * pair.R + 2.0 * g.dx
    assert np.max(np.abs(fac.phi_r[outside])) < 1e-12 * peak
    # Laplacian factor agrees with the target grid's spectral Laplacian
    from dampedwave.grid import SpectralField

    hat = forward_transform(g, fac.phi_r)
    lap_grid = SpectralField(g, -g.xi2 * hat.coeffs).physical()
    scale = np.max(np.abs(lap_grid))
    # limited by the target grid resolving the clamped interpolant
    assert np.max(np.abs(fac.lap_phi_r - lap_grid)) < 5e-4 * scale


def test_spatial_factors_fit_guard(bump5):
    g = Grid(1, 64, 8.0)
    with pytest.raises(ConfigError):
        spatial_factors(TestPair(bump5, 4.0), g)


def test_i_of_r_window_and_scaling(bump5):
    g = Grid(1, 64, 16.0)
    pair = TestPair(bump5, 2.0)
    times = np.linspace(0.0, 5.0, 161)
    rng = np.random.default_rng(7)
    snaps = rng.standard_normal((times.size, g.size))
    base = i_of_r(times, snaps, g, 2.0, pair)
    doubled = i_of_r(times, 2.0 * snaps, g, 2.0, pair)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)
    # fields supported after the cutoff closes contribute nothing
    late = np.where(times[:, None] >= 4.0, snaps, 0.0)
    assert i_of_r(times, late, g, 2.0, pair) == 0.0
    # times must reach R^2
    with pytest.raises(ConfigError):
        i_of_r(times[:100], snaps[:100], g, 2.0, pair)
    with pytest.raises(ConfigError):
        i_of_r(times, snaps[:, :32], g, 2.0, pair)


def test_pairing_ignores_eps(bump5):
    g = Grid(1, 256, 16.0)
    field = forward_transform(g, np.exp(-g.x_axis**2))
    small = assemble_pair(field, 1e-3)
    big = assemble_pair(field, 10.0)
    pair = TestPair(bump5, 2.0)
    fac = spatial_factors(pair, g)
    assert pairing(small, pair, fac) == pairing(big, pair, fac)
    assert pairing(small, pair, fac) > 0.0


def test_check_bounds_on_small_run(bump5):
    g = Grid(1, 256, 32.0)
    field = forward_transform(g, np.exp(-g.x_axis**2))
    data = assemble_pair(field, 0.05)
    cfg = SimConfig(
        data=data, p=2.0, dt=0.03125, t_max=4.5,
        record_every=16, record_fields_every=2,
    )
    traj = run(cfg)
    assert traj.outcome == "survived"
    pair = TestPair(bump5, 2.0)
    weight = weight_constant(2.0, bump5)
    rep = check_bounds(
        traj.field_times, traj.field_snapshots, g, data, 2.0, pair, weight
    )
    assert rep.i_value > 0.0
    assert rep.margin_holder > 0.0
    assert rep.margin_absorbed > 0.0
    assert abs(rep.identity_residual) < 0.05 * rep.identity_scale
    # a weight constant computed for another exponent is rejected
    bump7 = power(self_convolve(Grid(1, 128, 4.0)), 7)
    other = weight_constant(2.5, bump7, time_points=65, refine=False)
    with pytest.raises(ConfigError):
        check_bounds(
            traj.field_times, traj.field_snapshots, g, data, 2.0, pair, other
        )


def test_check_bounds_ignores_snapshots_past_the_window(bump5):
    # eta(t/R^2) is 0 from t = R^2 on, so snapshots after the first one at
    # or past R^2 must not enter the sums: poisoning them changes nothing
    g = Grid(1, 256, 32.0)
    data = assemble_pair(forward_transform(g, np.exp(-g.x_axis**2)), 0.05)
    traj = run(SimConfig(data=data, p=2.0, dt=0.03125, t_max=4.5, record_every=16,
                         record_fields_every=2))
    times, snaps = traj.field_times, traj.field_snapshots
    pair = TestPair(bump5, 2.0)
    weight = weight_constant(2.0, bump5, time_points=65, refine=False)
    rep = check_bounds(times, snaps, g, data, 2.0, pair, weight)
    first_past = int(np.argmax(times >= 4.0))
    assert first_past + 1 < times.size
    poisoned = snaps.copy()
    poisoned[first_past + 1:] = np.nan
    again = check_bounds(times, poisoned, g, data, 2.0, pair, weight)
    assert again == rep
    assert rep.i_value == pytest.approx(i_of_r(times, snaps, g, 2.0, pair), rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_odd_derivative_fields_match_a_full_lattice_reference(dim):
    # The reference keeps the full fftn lattice and takes the real part of
    # ifftn, as the full-lattice layout did; that zeroes the Nyquist plane
    # of an odd multiplier, which the half-spectrum must do by itself
    g = Grid(dim, 16, 4.0)
    bump = self_convolve(g)
    k = np.fft.fftfreq(g.size, 1.0 / g.size)
    phase = np.prod(np.meshgrid(*[(-1.0) ** np.abs(k)] * dim, indexing="ij"), axis=0)
    seed_hat = np.fft.fftn(bump.seed) * phase * g.transform_scale
    full = (2.0 * np.pi) ** (dim / 2.0) * seed_hat**2
    for d in range(dim):
        xi_d = (g.dxi * k).reshape([-1 if e == d else 1 for e in range(dim)])
        ref = np.fft.ifftn(1j * xi_d * full * phase).real / g.transform_scale
        got = SpectralField(g, 1j * _axis_xi(g, d) * bump.coeffs.coeffs).physical()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
