"""Time stepping: linear exactness, ODE oracle, blow-up, lifespan."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dampedwave.dispersion import propagate_linear
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid, forward_transform
from dampedwave.profiles import DataPair, assemble_pair
from dampedwave.solver import (
    SimConfig,
    initial_state,
    measure_lifespan,
    run,
    step,
)


def constant_pair(grid: Grid, c0: float, c1: float, eps: float = 1.0) -> DataPair:
    """Spatially constant data; the PDE collapses to u'' + u' = |u|^p."""
    u0 = forward_transform(grid, np.full(grid.shape, c0))
    u1 = forward_transform(grid, np.full(grid.shape, c1))
    return DataPair(u0=u0, u1=u1, eps=eps, family="constant")


def gaussian_pair(grid: Grid, eps: float) -> DataPair:
    r2 = grid.x_axis**2 if grid.dim == 1 else grid.x_abs**2
    return assemble_pair(forward_transform(grid, np.exp(-r2)), eps)


# (dim, size) of the 2D and 3D variants of the 1D Gaussian tests
_MULTI_D = [pytest.param(2, 32, id="2d"), pytest.param(3, 16, id="3d")]


def ode_solution(p: float, u0: float, v0: float, t_end: float):
    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    return solve_ivp(
        rhs, (0.0, t_end), [u0, v0], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )


def test_linear_run_matches_exact_propagator():
    check_linear_run_matches_exact_propagator(Grid(1, 64, 16.0))


@pytest.mark.parametrize("dim,size", _MULTI_D)
def test_linear_run_matches_exact_propagator_multi_d(dim, size):
    check_linear_run_matches_exact_propagator(Grid(dim, size, 8.0))


def check_linear_run_matches_exact_propagator(g: Grid):
    pair = gaussian_pair(g, 0.7)
    dt, n = 0.05, 60
    cfg = SimConfig(data=pair, p=2.0, dt=dt, t_max=n * dt, nonlinear=False)
    state = initial_state(cfg)
    for _ in range(n):
        state = step(state, dt, cfg.p, nonlinear=False)
    uex, vex = propagate_linear(pair.u0, pair.u1, n * dt)
    scale = np.max(np.abs(uex.coeffs)) * pair.eps
    assert np.max(np.abs(state.uhat - pair.eps * uex.coeffs)) < 1e-12 * scale
    assert np.max(np.abs(state.vhat - pair.eps * vex.coeffs)) < 1e-12 * scale


# the 1D cases keep their original ids
@pytest.mark.parametrize(
    "dim,p,horizon",
    [
        pytest.param(dim, p, horizon, id=f"{p}-{horizon}" if dim == 1 else f"{dim}d-{p}-{horizon}")
        for dim in (1, 2, 3)
        for p, horizon in [(1.5, 2.0), (2.0, 1.5), (3.0, 1.2)]
    ],
)
def test_constant_data_tracks_ode_oracle(dim, p, horizon):
    g = Grid(dim, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 1.0, 0.5), p=p, dt=0.005, t_max=horizon
    )
    traj = run(cfg)
    assert traj.outcome == "survived"
    ref = ode_solution(p, 1.0, 0.5, horizon)
    u_ref = ref.sol(horizon)[0]
    assert traj.times[-1] == pytest.approx(horizon, abs=1e-12)
    assert traj.linf[-1] == pytest.approx(u_ref, rel=1e-3)


def test_second_order_convergence():
    p, t_end = 2.0, 1.0
    g = Grid(1, 8, 4.0)
    ref = ode_solution(p, 1.0, 0.5, t_end).sol(t_end)[0]
    errs = []
    for dt in (0.04, 0.02, 0.01):
        cfg = SimConfig(data=constant_pair(g, 1.0, 0.5), p=p, dt=dt, t_max=t_end)
        traj = run(cfg)
        errs.append(abs(traj.linf[-1] - ref))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for q in orders:
        assert 1.7 < q < 2.3, f"observed orders {orders}"


def test_blowup_detection_and_threshold_time():
    p = 2.0
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 3.0, 0.0), p=p, dt=0.01, t_max=20.0
    )
    traj = run(cfg)
    assert traj.outcome == "blewup"
    assert traj.t_blowup is not None and traj.t_blowup > 0.0
    # last recorded amplitude is past the threshold
    assert traj.linf[-1] > cfg.blowup_threshold

    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    def hit(t, y):
        return y[0] - cfg.blowup_threshold

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, 20.0), [3.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=hit)
    t_hit = sol.t_events[0][0]
    assert traj.t_blowup == pytest.approx(t_hit, abs=2 * cfg.dt)


def test_lifespan_extrapolation_brackets_ode_time():
    p = 2.0
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 3.0, 0.0), p=p, dt=0.01, t_max=20.0
    )
    res = measure_lifespan(cfg)
    assert not res.censored
    assert res.t_fine <= res.t_coarse + cfg.dt
    assert abs(res.t_blowup - res.t_fine) <= abs(res.t_fine - res.t_coarse) + 1e-12

    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    def hit(t, y):
        return y[0] - cfg.blowup_threshold

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, 20.0), [3.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=hit)
    t_hit = sol.t_events[0][0]
    assert abs(res.t_blowup - t_hit) <= res.error + cfg.dt


def test_lifespan_censoring():
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 1.0, 0.0, eps=1e-3), p=3.0, dt=0.05, t_max=2.0
    )
    res = measure_lifespan(cfg)
    assert res.censored
    assert math.isinf(res.t_blowup)
    assert math.isnan(res.error)


def test_run_is_deterministic():
    g = Grid(1, 64, 8.0)
    cfg = SimConfig(data=gaussian_pair(g, 0.4), p=2.0, dt=0.02, t_max=0.5)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.l2, b.l2)
    assert np.array_equal(a.linf, b.linf)
    assert np.array_equal(a.hs, b.hs)
    assert a.t_blowup == b.t_blowup and a.outcome == b.outcome


def test_run_matches_repeated_step():
    check_run_matches_repeated_step(Grid(1, 64, 8.0))


@pytest.mark.parametrize("dim,size", _MULTI_D)
def test_run_matches_repeated_step_multi_d(dim, size):
    check_run_matches_repeated_step(Grid(dim, size, 8.0))


def check_run_matches_repeated_step(g: Grid):
    cfg = SimConfig(data=gaussian_pair(g, 0.3), p=2.0, dt=0.02, t_max=0.2)
    traj = run(cfg)
    state = initial_state(cfg)
    for _ in range(10):
        state = step(state, cfg.dt, cfg.p)
    vol = g.dx**g.dim
    l2 = math.sqrt(float(np.sum(state.u_phys**2)) * vol)
    assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)
    assert traj.linf[-1] == pytest.approx(float(np.max(np.abs(state.u_phys))), rel=1e-13)
    assert traj.l2[-1] == pytest.approx(l2, rel=1e-13)


def test_recording_cadence():
    g = Grid(1, 64, 8.0)
    cfg = SimConfig(
        data=gaussian_pair(g, 0.3), p=2.0, dt=0.02, t_max=0.2,
        record_every=4, record_fields_every=5,
    )
    traj = run(cfg)
    assert np.allclose(traj.times, [0.0, 0.08, 0.16, 0.2])
    assert traj.field_times is not None
    assert np.allclose(traj.field_times, [0.0, 0.1, 0.2])
    assert traj.field_snapshots.shape == (3, 64)


def test_boundary_monitor():
    g = Grid(1, 64, 8.0)
    narrow = SimConfig(
        data=gaussian_pair(g, 1.0), p=2.0, dt=0.02, t_max=0.1, nonlinear=False
    )
    traj = run(narrow)
    assert not traj.boundary_flagged
    # periodization makes this spectrum dip negative, so bypass assemble_pair
    wide_field = forward_transform(g, np.exp(-((g.x_axis / 4.0) ** 2)))
    wide_pair = DataPair(u0=wide_field, u1=wide_field, eps=1.0, family="wide")
    wide = SimConfig(data=wide_pair, p=2.0, dt=0.02, t_max=0.1, nonlinear=False)
    traj = run(wide)
    assert traj.boundary_flagged
    assert traj.boundary_ratio > 1e-3


def test_config_validation():
    g = Grid(1, 64, 8.0)
    pair = gaussian_pair(g, 0.3)
    limit = 0.5 / g.xi_max
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=2.0 * limit, t_max=1.0)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=1.0, dt=0.02, t_max=1.0)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=-0.01, t_max=1.0)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=0.01)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=1.0, record_every=0)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=1.0, blowup_threshold=0.0)
    # linear runs accept p at or below 1
    SimConfig(data=pair, p=1.0, dt=0.02, t_max=1.0, nonlinear=False)


def test_initial_amplitude_already_over_threshold():
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 2.0, 0.0), p=2.0, dt=0.01, t_max=1.0,
        blowup_threshold=1.5,
    )
    with pytest.raises(ConfigError):
        run(cfg)


def test_lifespan_shrinks_with_amplitude():
    g = Grid(1, 8, 4.0)
    times = []
    for eps in (1.0, 0.5):
        cfg = SimConfig(
            data=constant_pair(g, 3.0, 3.0, eps=eps), p=2.0, dt=0.01, t_max=50.0
        )
        res = measure_lifespan(cfg)
        assert not res.censored
        times.append(res.t_blowup)
    assert times[1] > times[0]
