"""Cutoff calculus, scaled test functions, weighted integrals, bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dampedwave import testfunc as testfunc_module
from dampedwave.bump import RadialBump, power
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, forward_transform
from dampedwave.profiles import assemble_pair
from dampedwave.solver import SimConfig, run
from dampedwave.testfunc import (
    _g,
    _g_mass,
    check_bounds,
    cutoff,
    pairing,
    scaled_weight,
    spatial_factors,
    weight_constant,
)


@pytest.fixture(scope="module")
def bump5():
    return power(RadialBump(1), 5)


def test_cutoff_profile_shape():
    tau = np.linspace(0.0, 1.5, 301)
    vals = cutoff(tau, 3)[0]
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[tau <= 0.5] == 1.0)
    assert np.all(vals[tau >= 1.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_cutoff_mass_matches_adaptive_quadrature():
    ref, _ = quad(lambda t: float(_g(np.array([t]))[0]), 0.5, 1.0, epsabs=1e-15)
    assert _g_mass() == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("exponent", [1, 3, 5])
def test_cutoff_derivatives_match_finite_differences(exponent):
    tau = np.linspace(0.55, 0.93, 9)
    h = 1e-5
    eta, eta_prime, eta_second = cutoff(tau, exponent)
    up, down = cutoff(tau + h, exponent)[0], cutoff(tau - h, exponent)[0]
    fd1 = (up - down) / (2.0 * h)
    fd2 = (up - 2.0 * eta + down) / (h * h)
    scale1 = np.max(np.abs(fd1))
    scale2 = np.max(np.abs(fd2))
    assert np.max(np.abs(eta_prime - fd1)) < 1e-6 * scale1
    assert np.max(np.abs(eta_second - fd2)) < 1e-4 * scale2


def test_cutoff_and_pair_validation(bump5):
    for bad in (0, 2.5):
        with pytest.raises(ConfigError):
            cutoff(np.array([0.7]), bad)
    with pytest.raises(ConfigError, match="scale R must be >= 1"):
        spatial_factors(bump5, 0.5, Grid(1, 64, 8.0))


def test_weight_requires_integrable_surplus():
    # p' = 2 needs exponent strictly above 4
    bump4 = power(RadialBump(1), 4)
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
    R = 2.0
    phi_r, lap_phi_r = spatial_factors(bump5, R, g)
    assert phi_r.shape == g.shape
    center = g.size // 2
    assert g.x_axis[center] == 0.0
    peak = float(bump5.at(np.zeros(1))[0][0]) ** 5
    assert phi_r[center] == pytest.approx(peak, rel=1e-10)
    # support of phi_R sits inside |x| <= 2R
    outside = np.abs(g.x_axis) > 2.0 * R + 2.0 * g.dx
    assert np.max(np.abs(phi_r[outside])) < 1e-12 * peak
    # Laplacian factor agrees with the target grid's spectral Laplacian
    from dampedwave.grid import SpectralField

    hat = forward_transform(g, phi_r)
    lap_grid = SpectralField(g, -g.xi2 * hat.coeffs).physical()
    scale = np.max(np.abs(lap_grid))
    # limited by the target grid resolving the clamped interpolant
    assert np.max(np.abs(lap_phi_r - lap_grid)) < 5e-4 * scale


@pytest.mark.parametrize("dim, size, half_length, R, tol", [
    (2, 64, 8.0, 3.0, 1e-3), (3, 32, 4.0, 1.5, 1e-2),
])
def test_spatial_factors_laplacian_matches_finite_differences(dim, size, half_length, R, tol):
    # Richardson-extrapolated central differences of phi_R on N and 2N
    # lattices over the same box are O(dx^4) from Delta(phi_R); the
    # uncorrected N-lattice difference is off by 4% (2D) and 15% (3D)
    bump = power(RadialBump(dim), 5)

    def laplacians(n):
        g = Grid(dim, n, half_length)
        phi, lap = spatial_factors(bump, R, g)
        fd = sum(np.roll(phi, 1, axis=a) - 2.0 * phi + np.roll(phi, -1, axis=a)
                 for a in range(dim)) / g.dx**2
        return lap, fd

    lap, fd = laplacians(size)
    _, fd_fine = laplacians(2 * size)
    richardson = (4.0 * fd_fine[(slice(None, None, 2),) * dim] - fd) / 3.0
    assert np.max(np.abs(richardson - lap)) < tol * np.max(np.abs(lap))


def test_spatial_factors_fit_guard(bump5):
    g = Grid(1, 64, 8.0)
    with pytest.raises(ConfigError):
        spatial_factors(bump5, 4.0, g)


def test_i_of_r_window_and_scaling(bump5):
    g = Grid(1, 64, 16.0)
    data = assemble_pair(forward_transform(g, np.exp(-g.x_axis**2)), 0.05)
    weight = weight_constant(2.0, bump5, time_points=65, refine=False)
    times = np.linspace(0.0, 5.0, 161)
    rng = np.random.default_rng(7)
    snaps = rng.standard_normal((times.size, g.size))

    def i_value(times, snaps):
        return check_bounds(times, snaps, g, data, 2.0, bump5, [2.0], weight)[0].i_value

    base = i_value(times, snaps)
    doubled = i_value(times, 2.0 * snaps)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)
    # fields supported after the cutoff closes contribute nothing
    late = np.where(times[:, None] >= 4.0, snaps, 0.0)
    assert i_value(times, late) == 0.0
    # times must reach R^2
    with pytest.raises(ConfigError):
        i_value(times[:100], snaps[:100])
    with pytest.raises(ConfigError):
        i_value(times, snaps[:, :32])


def test_pairing_ignores_eps(bump5):
    g = Grid(1, 256, 16.0)
    field = forward_transform(g, np.exp(-g.x_axis**2))
    small = assemble_pair(field, 1e-3)
    big = assemble_pair(field, 10.0)
    phi_r = spatial_factors(bump5, 2.0, g)[0]
    assert pairing(small, phi_r) == pairing(big, phi_r)
    assert pairing(small, phi_r) > 0.0


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
    weight = weight_constant(2.0, bump5)
    (rep,) = check_bounds(
        traj.field_times, traj.field_snapshots, g, data, 2.0, bump5, [2.0], weight
    )
    assert rep.i_value > 0.0
    assert rep.margin_holder > 0.0
    assert rep.margin_absorbed > 0.0
    assert rep.identity_rel < 0.05
    # a weight constant computed for another exponent is rejected
    bump7 = power(RadialBump(1), 7)
    other = weight_constant(2.5, bump7, time_points=65, refine=False)
    with pytest.raises(ConfigError):
        check_bounds(
            traj.field_times, traj.field_snapshots, g, data, 2.0, bump5, [2.0], other
        )


def test_check_bounds_ignores_snapshots_past_the_window(bump5):
    # eta(t/R^2) is 0 from t = R^2 on, so snapshots after the first one at
    # or past R^2 must not enter the sums: poisoning them changes nothing
    g = Grid(1, 256, 32.0)
    data = assemble_pair(forward_transform(g, np.exp(-g.x_axis**2)), 0.05)
    traj = run(SimConfig(data=data, p=2.0, dt=0.03125, t_max=4.5, record_every=16,
                         record_fields_every=2))
    times, snaps = traj.field_times, traj.field_snapshots
    weight = weight_constant(2.0, bump5, time_points=65, refine=False)
    (rep,) = check_bounds(times, snaps, g, data, 2.0, bump5, [2.0], weight)
    first_past = int(np.argmax(times >= 4.0))
    assert first_past + 1 < times.size
    poisoned = snaps.copy()
    poisoned[first_past + 1:] = np.nan
    (again,) = check_bounds(times, poisoned, g, data, 2.0, bump5, [2.0], weight)
    assert again == rep
    # the one-shot I(R) over every snapshot, as in the blocked-reduction test
    phi_r = spatial_factors(bump5, 2.0, g)[0]
    spatial = (np.abs(snaps) ** 2.0 * phi_r).sum(axis=(1,)) * g.dx
    one_shot = float(np.trapezoid(spatial * cutoff(times / 4.0, 5)[0], times))
    assert rep.i_value == pytest.approx(one_shot, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_reductions_are_bit_identical(dim, monkeypatch):
    # 73 snapshots, 65 of them up to R^2 = 4: neither is a multiple of the
    # 7-row blocks, and each row's sum must not depend on its block
    g = Grid(dim, 256 // dim**2, 32.0)
    r2 = g.x_axis**2 if dim == 1 else g.x_abs**2
    data = assemble_pair(forward_transform(g, np.exp(-r2)), 0.05)
    traj = run(SimConfig(data=data, p=2.0, dt=0.03125, t_max=4.5, record_every=16,
                         record_fields_every=2))
    times, snaps = traj.field_times, traj.field_snapshots
    bump = power(RadialBump(dim), 5)
    weight = weight_constant(2.0, bump, time_points=65, refine=False)
    phi_r = spatial_factors(bump, 2.0, g)[0]
    axes = tuple(range(1, dim + 1))
    spatial = (np.abs(snaps) ** 2.0 * phi_r).sum(axis=axes) * g.dx**dim
    one_shot = float(np.trapezoid(spatial * cutoff(times / 4.0, 5)[0], times))

    monkeypatch.setattr(testfunc_module, "BLOCK_BYTES", 1 << 40)
    (whole,) = check_bounds(times, snaps, g, data, 2.0, bump, [2.0], weight)
    monkeypatch.setattr(testfunc_module, "BLOCK_BYTES", 7 * snaps[0].nbytes)
    assert len(snaps) == 73 and int(np.searchsorted(times, 4.0)) + 1 == 65
    blocks = testfunc_module.row_blocks(len(snaps), snaps[0].nbytes)
    assert [b.start for b in blocks] == list(range(0, 73, 7))
    (blocked,) = check_bounds(times, snaps, g, data, 2.0, bump, [2.0], weight)
    assert blocked.i_value == one_shot
    assert blocked == whole

    # several radii in one pass: their windows (37, 65, 69 and 72 rows)
    # end mid-block, and the block of rows 63-69 holds two windows' ends;
    # the last R^2 lies just past the last time, so its window is all 73 rows
    radii = [1.5, 2.0, 2.05, 2.1, 2.1213203436]
    assert times[-1] == 4.5 < radii[-1] ** 2 < 4.5 * (1.0 + 1e-9)
    stops = [min(len(times), int(np.searchsorted(times, R * R)) + 1) for R in radii]
    assert stops == [37, 65, 69, 72, 73]
    reports = check_bounds(times, snaps, g, data, 2.0, bump, radii, weight)
    assert reports[1] == whole
    for R, stop, rep in zip(radii, stops, reports):
        window, phi_r = times[:stop], spatial_factors(bump, R, g)[0]
        spatial = (np.abs(snaps[:stop]) ** 2.0 * phi_r).sum(axis=axes) * g.dx**dim
        assert rep.i_value == float(np.trapezoid(spatial * cutoff(window / R**2, 5)[0], window))
    monkeypatch.setattr(testfunc_module, "BLOCK_BYTES", 1 << 40)
    assert check_bounds(times, snaps, g, data, 2.0, bump, radii, weight) == reports
    assert [check_bounds(times, snaps, g, data, 2.0, bump, [R], weight)[0]
            for R in radii] == reports
