"""Dispersion multiplier: exact values, mode ODE, branch consistency."""

import math

import numpy as np
import pytest

from dampedwave import accel
from dampedwave.accel import DELTA
from dampedwave.dispersion import khat, khat_kprime, kprimehat, propagate_linear
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, forward_transform

# spot values computed from the closed forms with mpmath at 50 digits
KHAT_1_1 = 0.533507195114693
KPRIME_1_1 = 0.12619295827700872


def test_frozen_spot_values():
    assert khat(1.0, 1.0) == pytest.approx(KHAT_1_1, rel=1e-13)
    assert kprimehat(1.0, 1.0) == pytest.approx(KPRIME_1_1, rel=1e-13)


def test_zero_frequency_closed_form():
    # at xi = 0 the multiplier integrates the pure damping: 1 - e^{-t}
    for t in (0.25, 1.0, 5.0, 40.0):
        assert khat(t, 0.0) == pytest.approx(1.0 - math.exp(-t), rel=1e-12)


def test_initial_conditions():
    xi2 = np.array([0.0, 0.01, 0.24, 0.25, 0.26, 1.0, 25.0, 1e4])
    kh, kp = khat_kprime(0.0, xi2)
    assert np.max(np.abs(kh)) == 0.0
    assert np.max(np.abs(kp - 1.0)) < 1e-14


def test_mode_ode_residual():
    # d2K + dK + xi^2 K = 0, finite differences at h = 1e-5
    h = 1e-5
    xi2 = np.array([0.0, 0.01, 0.24, 0.25, 0.25 + 1e-7, 0.26, 1.0, 25.0])
    for t in (0.1, 1.0, 10.0):
        km, _ = khat_kprime(t - h, xi2)
        k0, kp0 = khat_kprime(t, xi2)
        kpl, _ = khat_kprime(t + h, xi2)
        d2 = (kpl - 2.0 * k0 + km) / (h * h)
        d1 = (kpl - km) / (2.0 * h)
        resid = d2 + d1 + xi2 * k0
        assert np.max(np.abs(resid)) < 1e-5
        # the analytic derivative matches the centred difference
        assert np.max(np.abs(d1 - kp0)) < 1e-9


def test_kprime_is_time_derivative_of_khat():
    h = 1e-6
    xi2 = np.linspace(0.0, 30.0, 301)
    for t in (0.5, 2.0, 8.0):
        km, _ = khat_kprime(t - h, xi2)
        kp_, _ = khat_kprime(t + h, xi2)
        _, kp = khat_kprime(t, xi2)
        fd = (kp_ - km) / (2.0 * h)
        assert np.max(np.abs(fd - kp)) < 1e-8


def test_branch_values_agree_near_the_circle():
    # piecewise rule vs direct branch formulas just past DELTA on either side
    for t in (0.5, 1.0, 10.0):
        for D in (2e-4, 5e-4):
            xi2 = 0.25 - D
            q = math.sqrt(D)
            direct = math.exp(-0.5 * t) * math.sinh(t * q) / q
            assert khat(t, xi2) == pytest.approx(direct, rel=1e-12)
        for D in (-2e-4, -5e-4):
            xi2 = 0.25 - D
            q = math.sqrt(-D)
            direct = math.exp(-0.5 * t) * math.sin(t * q) / q
            assert khat(t, xi2) == pytest.approx(direct, rel=1e-12)


def test_series_window_matches_analytic_branches():
    # inside the window the expm1 and oscillatory forms agree with sinh and sin
    t = 1.0
    for D in (1e-6, 5e-5, 9.9e-5):
        xi2 = 0.25 - D
        assert abs(D) <= DELTA
        q = math.sqrt(D)
        direct = math.exp(-0.5 * t) * math.sinh(t * q) / q
        assert abs(khat(t, xi2) - direct) < 1e-9
    for D in (-1e-6, -5e-5, -9.9e-5):
        xi2 = 0.25 - D
        q = math.sqrt(-D)
        direct = math.exp(-0.5 * t) * math.sin(t * q) / q
        assert abs(khat(t, xi2) - direct) < 1e-9


def test_handoff_continuity_at_window_edges():
    # evaluate on both sides of the dispatch threshold |D| = DELTA
    t = 2.0
    for edge in (0.25 - DELTA, 0.25 + DELTA):
        below = khat(t, edge * (1.0 - 1e-12))
        above = khat(t, edge * (1.0 + 1e-12))
        assert abs(below - above) < 1e-9


def test_khat_bounded_by_t():
    xi2 = np.linspace(0.0, 100.0, 1001)
    for t in (0.01, 0.5, 3.0, 25.0):
        kh, _ = khat_kprime(t, xi2)
        assert np.max(np.abs(kh)) <= t * (1.0 + 1e-12)


def test_no_overflow_at_large_time():
    kh, kp = khat_kprime(5000.0, np.array([0.0, 0.2, 0.25, 0.3, 100.0]))
    assert np.all(np.isfinite(kh)) and np.all(np.isfinite(kp))
    assert kh[0] == pytest.approx(1.0, rel=1e-12)


def test_window_stays_finite_at_long_times():
    # 0 < |D| <= DELTA at t = 1e5, where t^2 |D| reaches 1e6: the true values
    # are below 1e-20000, so they round to zero
    D = np.array([1e-12, 1e-6, 5e-5, 0.99 * DELTA])
    kh, kp = khat_kprime(1e5, 0.25 - np.concatenate([D, -D]))
    assert np.all(np.isfinite(kh)) and np.all(np.isfinite(kp))
    assert np.all(kh == 0.0) and np.all(kp == 0.0)


def test_each_element_is_its_value_alone():
    # the multiplier is elementwise: no element depends on the others
    rng = np.random.default_rng(5)
    xi2 = np.concatenate([
        0.25 - rng.uniform(-DELTA, DELTA, 200), rng.uniform(0.0, 30.0, 100), [0.0, 0.25],
    ])
    for t in (0.5, 1.0, 10.0, 100.0, 1000.0):
        together = khat_kprime(t, xi2)
        alone = [khat_kprime(t, xi2[i : i + 1]) for i in range(xi2.size)]
        for which in (0, 1):
            single = np.concatenate([pair[which] for pair in alone])
            assert np.array_equal(single.view(np.uint64), together[which].view(np.uint64)), t


def test_integer_time_matches_float_time_through_both_imports():
    # the solver's and dispersion's multiplier are one function; xi2 = 1/4
    # sits in the window, where khat is t e^{-t/2}
    assert khat_kprime is accel.khat_kprime
    xi2 = np.array([0.0, 0.2, 0.25, 0.25 + 0.5 * DELTA, 0.3, 100.0])
    for fn in (khat_kprime, accel.khat_kprime):
        for whole, real in zip(fn(3, xi2), fn(3.0, xi2)):
            assert whole.dtype == np.float64
            assert np.array_equal(whole, real)
        with pytest.raises(ConfigError):
            fn(-1, xi2)


def test_propagate_identity_and_semigroup():
    g = Grid(1, 128, 12.0)
    rng = np.random.default_rng(11)
    f = forward_transform(g, rng.standard_normal(g.shape))
    h = forward_transform(g, rng.standard_normal(g.shape))
    u0, v0 = propagate_linear(f, h, 0.0)
    assert np.max(np.abs(u0.coeffs - f.coeffs)) < 1e-14
    assert np.max(np.abs(v0.coeffs - h.coeffs)) < 1e-14
    # one hop of 3.0 equals two hops of 1.5
    ua, va = propagate_linear(f, h, 3.0)
    um, vm = propagate_linear(f, h, 1.5)
    ub, vb = propagate_linear(um, vm, 1.5)
    assert np.max(np.abs(ua.coeffs - ub.coeffs)) < 1e-12
    assert np.max(np.abs(va.coeffs - vb.coeffs)) < 1e-12
