"""Time stepping: linear exactness, ODE oracle, blow-up, lifespan."""

import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dampedwave import solver
from dampedwave.accel import khat_kprime
from dampedwave.dispersion import propagate_linear
from dampedwave.errors import ConfigError, NumericalError
from dampedwave.grid import Grid, SpectralField, forward_transform
from dampedwave.profiles import DataPair, assemble_pair, laplacian_gaussian, power_profile
from dampedwave.solver import (
    LifespanResult,
    SimConfig,
    Stepper,
    _coarsest_size,
    _step_level,
    measure_lifespan,
    run,
)


def constant_pair(grid: Grid, c0: float, c1: float, eps: float = 1.0) -> DataPair:
    """Spatially constant data; the PDE collapses to u'' + u' = |u|^p."""
    u0 = forward_transform(grid, np.full(grid.shape, c0))
    u1 = forward_transform(grid, np.full(grid.shape, c1))
    return DataPair(u0=u0, u1=u1, eps=eps)


def gaussian_pair(grid: Grid, eps: float, band: bool = False) -> DataPair:
    """The Gaussian pair; band=True keeps only its coefficients inside the kept band."""
    r2 = grid.x_axis**2 if grid.dim == 1 else grid.x_abs**2
    field = forward_transform(grid, np.exp(-r2))
    if band:
        field = SpectralField(grid, field.coeffs * grid.dealias_mask)
    return assemble_pair(field, eps)


def assert_extent(stepper: Stepper, g: Grid, band: bool) -> None:
    """The stepper holds the compact band |k| <= N/3, or the whole half-spectrum."""
    m = g.size // 3
    want = (2 * m + 1,) * (g.dim - 1) + (m + 1,) if band else g.spectral_shape
    assert stepper.uhat.shape == want


# (dim, size) of the 2D and 3D variants of the 1D Gaussian tests
_MULTI_D = [pytest.param(2, 32, id="2d"), pytest.param(3, 16, id="3d")]
# (dim, size, band): the Gaussian rows step the whole half-spectrum, the
# band rows the Gaussian pair cut to the kept band
_EXTENTS = [
    pytest.param(1, 64, False, id="1d"), pytest.param(2, 32, False, id="2d"),
    pytest.param(3, 16, False, id="3d"), pytest.param(1, 64, True, id="1d-band"),
    pytest.param(2, 32, True, id="2d-band"), pytest.param(3, 16, True, id="3d-band"),
]


def ode_solution(p: float, u0: float, v0: float, t_end: float):
    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    return solve_ivp(
        rhs, (0.0, t_end), [u0, v0], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )


def test_linear_run_matches_exact_propagator():
    check_linear_run_matches_exact_propagator(Grid(1, 64, 16.0), False)


# dt = 0.05 needs N <= 50 at L = 8 in 1D
@pytest.mark.parametrize("dim,size,band", [
    pytest.param(2, 32, False, id="2d"), pytest.param(3, 16, False, id="3d"),
    pytest.param(1, 32, True, id="1d-band"), pytest.param(2, 32, True, id="2d-band"),
    pytest.param(3, 16, True, id="3d-band"),
])
def test_linear_run_matches_exact_propagator_multi_d(dim, size, band):
    check_linear_run_matches_exact_propagator(Grid(dim, size, 8.0), band)


def check_linear_run_matches_exact_propagator(g: Grid, band: bool):
    pair = gaussian_pair(g, 0.7, band)
    dt, n = 0.05, 60
    stepper = Stepper(SimConfig(data=pair, p=2.0, dt=dt, t_max=n * dt, nonlinear=False))
    assert_extent(stepper, g, band)
    stepper.start()
    for _ in range(n):
        uhat, vhat, _, _ = stepper.advance()
    uhat, vhat = stepper.half_spectrum(uhat), stepper.half_spectrum(vhat)
    uex, vex = propagate_linear(pair.u0, pair.u1, n * dt)
    scale = np.max(np.abs(uex.coeffs)) * pair.eps
    assert np.max(np.abs(uhat - pair.eps * uex.coeffs)) < 1e-12 * scale
    assert np.max(np.abs(vhat - pair.eps * vex.coeffs)) < 1e-12 * scale


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
    # rows are due only at step 0 and at the 2000-step horizon, snapshots
    # every 19 steps; the run crosses at step 190
    cfg = SimConfig(
        data=constant_pair(g, 3.0, 0.0), p=p, dt=0.01, t_max=20.0,
        record_every=10_000, record_fields_every=19,
    )
    traj = run(cfg)
    assert traj.outcome == "blewup"
    assert traj.t_blowup is not None and traj.t_blowup > 0.0
    assert traj.steps_taken == 190
    assert traj.steps_taken * cfg.dt == traj.t_blowup
    # the crossing row is recorded off cadence, past the threshold
    assert traj.times.tolist() == [0.0, traj.t_blowup]
    assert traj.linf[-1] > cfg.blowup_threshold
    # the crossing step is on the snapshot cadence but takes no snapshot
    assert traj.field_times.tolist() == [n * cfg.dt for n in range(0, 190, 19)]
    assert traj.field_snapshots.shape == (10, 8)

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
    assert abs(res.t_blowup - ode_threshold_time(cfg)) <= res.error + cfg.dt


def ode_threshold_time(cfg: SimConfig) -> float:
    """When u'' + u' = |u|^p from (3, 0) first reaches cfg's threshold."""
    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** cfg.p]

    def hit(t, y):
        return y[0] - cfg.blowup_threshold

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, cfg.t_max), [3.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=hit)
    return sol.t_events[0][0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lifespan_error_bar_covers_ode_time(p):
    # at dt = 1/32, Richardson of a dt and a dt/2 run missed the ODE time
    # by 0.0169 at p = 1.5 (bar 0.0156) and 0.0316 at p = 3 (bar 0.0260)
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(data=constant_pair(g, 3.0, 0.0), p=p, dt=1 / 32, t_max=20.0)
    res = measure_lifespan(cfg)
    assert not res.censored
    assert abs(res.t_blowup - ode_threshold_time(cfg)) <= res.error


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
    stepper = Stepper(cfg)
    stepper.start()
    for _ in range(10):
        u_phys = stepper.advance()[2]
    vol = g.dx**g.dim
    l2 = math.sqrt(float(np.sum(u_phys**2)) * vol)
    assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)
    assert traj.linf[-1] == pytest.approx(float(np.max(np.abs(u_phys))), rel=1e-13)
    assert traj.l2[-1] == pytest.approx(l2, rel=1e-13)


def reference_steps(cfg: SimConfig, n: int):
    """The step written out of place, operand for operand: yields n + 1 states."""
    g = cfg.grid
    axes = tuple(range(g.dim))
    kh, kp = khat_kprime(cfg.dt, g.xi2)
    half = 0.5 * cfg.dt
    xi2_kh, half_kh = g.xi2 * kh, half * kh
    inv_factor = g.phase / g.transform_scale
    fwd_factor = g.phase * g.transform_scale * g.dealias_mask

    def physical(uhat):
        return np.fft.irfftn(uhat * inv_factor, s=g.shape, axes=axes)

    def nl_coeffs(u):
        if not cfg.nonlinear:
            return np.zeros(kh.shape, dtype=np.complex128)
        a = np.abs(u)
        powered = a * a if cfg.p == 2.0 else a * a * a if cfg.p == 3.0 else a**cfg.p
        return np.fft.rfftn(powered, axes=axes) * fwd_factor

    uhat = cfg.data.eps * cfg.data.u0.coeffs
    vhat = cfg.data.eps * cfg.data.u1.coeffs
    u = physical(uhat)
    nl = nl_coeffs(u)
    yield uhat, vhat, u, nl
    for _ in range(n):
        unew = kp * uhat + kh * (uhat + vhat) + half_kh * nl
        pv = kp * vhat - xi2_kh * uhat
        u = physical(unew)
        nl_new = nl_coeffs(u)
        vhat = pv + half * (kp * nl + nl_new)
        uhat, nl = unew, nl_new
        yield uhat, vhat, u, nl


@pytest.mark.parametrize("dim,size,band", _EXTENTS)
@pytest.mark.parametrize(
    "p,nonlinear", [(2.0, True), (3.0, True), (1.71, True), (2.0, False)],
    ids=["p2", "p3", "p1.71", "linear"],
)
def test_in_place_step_is_bit_identical(dim, size, band, p, nonlinear):
    g = Grid(dim, size, 8.0)
    cfg = SimConfig(data=gaussian_pair(g, 0.8, band), p=p, dt=0.02, t_max=1.0,
                    nonlinear=nonlinear)
    stepper = Stepper(cfg)
    assert_extent(stepper, g, band)
    ref = reference_steps(cfg, 20)
    for n, want in enumerate(ref):
        uhat, vhat, u_phys, nl_hat = stepper.advance() if n else stepper.start()
        got = (*map(stepper.half_spectrum, (uhat, vhat)), u_phys, stepper.half_spectrum(nl_hat))
        for a, b in zip(got, want):
            assert np.array_equal(a, b), f"step {n}"


# the band rows take grids whose compact band is at least 20 KB, so that
# NumPy's per-call bookkeeping (about 1.5 KB) stays below the bound
@pytest.mark.parametrize(
    "dim,size,half_length,dt,band",
    [pytest.param(1, 4096, 256.0, 0.01, False, id="1d"),
     pytest.param(2, 64, 8.0, 0.02, False, id="2d"),
     pytest.param(3, 16, 8.0, 0.02, False, id="3d"),
     pytest.param(1, 4096, 256.0, 0.01, True, id="1d-band"),
     pytest.param(2, 128, 16.0, 0.02, True, id="2d-band"),
     pytest.param(3, 32, 16.0, 0.02, True, id="3d-band")],
)
def test_step_allocates_no_state_arrays(dim, size, half_length, dt, band):
    g = Grid(dim, size, half_length)
    cfg = SimConfig(data=gaussian_pair(g, 0.5, band), p=1.71, dt=dt, t_max=1.0)
    stepper = Stepper(cfg)
    assert_extent(stepper, g, band)
    stepper.start()
    stepper.advance()
    tracemalloc.start()
    try:
        for _ in range(50):
            stepper.advance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every multiplier is complex128, so no multiply allocates a cast
    # buffer; what is left is NumPy's per-call bookkeeping
    assert peak < 0.1 * stepper.uhat.nbytes, peak / stepper.uhat.nbytes


def test_measure_lifespan_is_one_adapted_run():
    # dt = 0.01 is not a power of two, so a step time off the tick clock
    # would show as a mismatch below
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(data=constant_pair(g, 3.0, 0.0), p=2.0, dt=0.01, t_max=20.0)
    res = measure_lifespan(cfg)
    assert not res.censored
    # the same run by hand: level k = ceil(log2(dt / 0.25) + (p - 1)/2 log2 max|u|)
    stepper = Stepper(cfg)
    stepper.start()
    top = stepper.top()
    levels = []
    while top <= cfg.blowup_threshold:
        k = min(20, max(0, math.ceil(math.log2(cfg.dt / 0.25) + 0.5 * math.log2(top))))
        stepper.advance(k)
        levels.append(k)
        top = stepper.top()
    assert levels[0] == 0 and levels[-1] == 6 and levels == sorted(levels)
    tick = cfg.dt / 2**20
    ticks = sum(2 ** (20 - k) for k in levels)
    assert res.t_blowup == ticks * tick
    assert res.error == cfg.dt / 2 + cfg.dt / 2 ** levels[-1]
    # a horizon at the crossing keeps it; one tick below censors the member
    assert measure_lifespan(dataclasses.replace(cfg, t_max=res.t_blowup)) == res
    res = measure_lifespan(dataclasses.replace(cfg, t_max=(ticks - 1) * tick))
    assert res.censored and math.isinf(res.t_blowup) and math.isnan(res.error)


def test_step_level_is_worked_in_log_space():
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(data=constant_pair(g, 1.0, 0.0), p=2.0, dt=1 / 32, t_max=1.0)
    # h = dt / 2**k at most a quarter of max|u|^(-1/2): k = ceil(-3 + log2(top) / 2)
    assert [_step_level(cfg, top) for top in (0.0, 1.0, 64.0, 65.0, 1e6)] == [0, 0, 0, 1, 7]
    for top in (1e300, math.inf, math.nan):
        assert _step_level(cfg, top) == 20
    # max|u|^((p-1)/2) overflows a float here, its logarithm does not
    huge = dataclasses.replace(cfg, p=1e308)
    assert [_step_level(huge, top) for top in (0.5, 1.0, 2.0)] == [0, 0, 20]


def test_stepper_levels_step_by_a_halved_dt():
    # advance(k) is a step of dt / 2**k: a step of level 1 is bit for bit a
    # step of a stepper built at dt/2
    g = Grid(1, 64, 8.0)
    cfg = SimConfig(data=gaussian_pair(g, 0.8), p=1.71, dt=0.02, t_max=1.0)
    coarse = Stepper(cfg)
    fine = Stepper(dataclasses.replace(cfg, dt=0.01))
    coarse.start()
    fine.start()
    for _ in range(6):
        got, want = coarse.advance(1), fine.advance()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_lifespan_agrees_with_converged_richardson():
    # a small 1D power-profile member: the adapted run at dt against
    # Richardson of two fixed runs at dt/4 and dt/8
    g = Grid(1, 512, 64.0)
    cfg = SimConfig(data=assemble_pair(power_profile(g, 1.0), 1.0), p=2.0, dt=1 / 32,
                    t_max=200.0, record_every=10**6)
    res = measure_lifespan(cfg)
    t4 = run(dataclasses.replace(cfg, dt=cfg.dt / 4)).t_blowup
    t8 = run(dataclasses.replace(cfg, dt=cfg.dt / 8)).t_blowup
    converged = (4.0 * t8 - t4) / 3.0
    assert not res.censored
    assert abs(res.t_blowup - converged) <= res.error


def test_run_neither_aliases_data_nor_snapshots():
    g = Grid(1, 64, 8.0)
    pair = gaussian_pair(g, 0.3)
    u0, u1 = pair.u0.coeffs.copy(), pair.u1.coeffs.copy()
    cfg = SimConfig(data=pair, p=2.0, dt=0.02, t_max=0.2, record_fields_every=1)
    snaps = run(cfg).field_snapshots
    assert np.array_equal(pair.u0.coeffs, u0)
    assert np.array_equal(pair.u1.coeffs, u1)
    assert all(not np.array_equal(a, b) for a, b in zip(snaps, snaps[1:]))
    stepper = Stepper(cfg)
    hand = [stepper.start()[2].copy()] + [stepper.advance()[2].copy() for _ in range(10)]
    assert np.array_equal(snaps, np.stack(hand))


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


def _hand_fields(cfg: SimConfig, steps: int) -> np.ndarray:
    """u_phys of steps 0 .. steps - 1, each copied by hand."""
    stepper = Stepper(cfg)
    return np.stack([stepper.start()[2].copy()]
                    + [stepper.advance()[2].copy() for _ in range(steps - 1)])


def test_off_cadence_last_snapshot_is_kept():
    # 10 steps at every 3rd: snapshots at steps 0, 3, 6, 9 and the last, 10
    g = Grid(1, 64, 8.0)
    cfg = SimConfig(data=gaussian_pair(g, 0.3), p=2.0, dt=0.02, t_max=0.2,
                    record_every=4, record_fields_every=3)
    traj = run(cfg)
    assert traj.outcome == "survived" and traj.steps_taken == 10
    kept = [0, 3, 6, 9, 10]
    assert traj.field_times.tolist() == [n * cfg.dt for n in kept]
    assert traj.field_snapshots.shape == (5, 64)
    assert np.array_equal(traj.field_snapshots, _hand_fields(cfg, 11)[kept])


def test_blowup_snapshots_match_a_hand_loop():
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(data=constant_pair(g, 3.0, 0.0), p=2.0, dt=0.01, t_max=20.0,
                    record_every=10_000, record_fields_every=7)
    traj = run(cfg)
    assert traj.outcome == "blewup"
    # steps 0 .. steps_taken - 1 on the cadence; the crossing step takes none
    kept = list(range(0, traj.steps_taken, 7))
    assert np.array_equal(traj.field_times, np.array(kept) * cfg.dt)
    assert np.array_equal(traj.field_snapshots, _hand_fields(cfg, traj.steps_taken)[kept])


def test_snapshots_are_held_once():
    # snapshots go to a file on disk as they are taken: the traced peak is
    # the stepper and the recorded norms, a small part of the snapshots
    g = Grid(1, 1024, 128.0)
    cfg = SimConfig(data=gaussian_pair(g, 1.0), p=2.0, nonlinear=False, dt=0.03125,
                    t_max=16.0, record_every=64, record_fields_every=1)
    tracemalloc.start()
    try:
        traj = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.outcome == "survived"
    assert traj.field_snapshots.shape == (513, 1024)
    assert peak < 0.05 * traj.field_snapshots.nbytes, peak / traj.field_snapshots.nbytes


def test_boundary_monitor():
    g = Grid(1, 64, 8.0)
    narrow = SimConfig(
        data=gaussian_pair(g, 1.0), p=2.0, dt=0.02, t_max=0.1, nonlinear=False
    )
    traj = run(narrow)
    assert not traj.boundary_flagged
    # periodization makes this spectrum dip negative, so bypass assemble_pair
    wide_field = forward_transform(g, np.exp(-((g.x_axis / 4.0) ** 2)))
    wide_pair = DataPair(u0=wide_field, u1=wide_field, eps=1.0)
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
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=math.inf)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=1.0, record_every=0)
    with pytest.raises(ConfigError):
        SimConfig(data=pair, p=2.0, dt=0.02, t_max=1.0, blowup_threshold=0.0)
    # linear runs accept p at or below 1
    SimConfig(data=pair, p=1.0, dt=0.02, t_max=1.0, nonlinear=False)


def test_initial_amplitude_already_over_threshold():
    g = Grid(1, 8, 4.0)
    starts = [
        (constant_pair(g, 2.0, 0.0), 1.5),
        # eps * coeffs overflows to inf in every mode, and u to NaN
        (assemble_pair(forward_transform(g, 100.0 * np.exp(-g.x_axis**2)), 1e308), 1e6),
    ]
    for data, threshold in starts:
        cfg = SimConfig(data=data, p=2.0, dt=0.01, t_max=1.0, blowup_threshold=threshold)
        with pytest.raises(ConfigError, match="initial amplitude"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            run(cfg)


def test_nonlinear_overflow_is_blowup_at_that_step():
    p, dt = 2.0, 0.01
    g = Grid(1, 8, 4.0)
    cfg = SimConfig(
        data=constant_pair(g, 3.0, 0.0), p=p, dt=dt, t_max=20.0,
        blowup_threshold=math.inf,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run(cfg)
    assert traj.outcome == "blewup"
    assert traj.t_blowup == traj.steps_taken * dt
    # the non-finite step is not recorded
    assert traj.times[-1] < traj.t_blowup
    assert np.all(np.isfinite(traj.linf))

    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    def hit(t, y):
        return y[0] - 1e12

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, 20.0), [3.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=hit)
    # u ~ 6 / (T - t)^2 near the blow-up time T, so T is 2.4e-6 past the hit
    t_ode = sol.t_events[0][0] + math.sqrt(6.0 / 1e12)
    # the discrete map lags the singularity by about 8 steps (dt 0.0025 to 0.02)
    assert 0.0 < traj.t_blowup - t_ode < 10 * dt


def test_linear_overflow_raises_numerical_error():
    g = Grid(1, 8, 4.0)
    # finite data whose u + v overflows in the first step's combine
    u0 = forward_transform(g, np.full(g.shape, 2e307))
    pair = DataPair(u0=u0, u1=SpectralField(g, 2.5 * u0.coeffs), eps=1.0)
    cfg = SimConfig(
        data=pair, p=2.0, dt=0.01, t_max=1.0, nonlinear=False,
        blowup_threshold=math.inf,
    )
    with pytest.raises(NumericalError, match="t = 0.01$"), np.errstate(
        over="ignore", invalid="ignore"
    ):
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


def _single_grid_lifespan(cfg: SimConfig) -> LifespanResult:
    """measure_lifespan's clock and step levels on the configured grid alone."""
    stepper = Stepper(cfg)
    stepper.start()
    top = stepper.top()
    scale = 2**20
    horizon = math.floor((cfg.t_max / cfg.dt + 1e-9) * scale)
    ticks = 0
    while True:
        level = _step_level(cfg, top)
        ticks += scale >> level
        assert ticks <= horizon, "the member outlived t_max"
        stepper.advance(level)
        top = stepper.top()
        if not top <= cfg.blowup_threshold:
            return LifespanResult(ticks * cfg.dt / scale, cfg.dt / 2 + cfg.dt / 2**level, False)


def _steps_by_size(monkeypatch) -> collections.Counter:
    """Counts each Stepper.advance by the size of the stepper's grid."""
    counts: collections.Counter = collections.Counter()
    advance = Stepper.advance

    def counting(self, level=0):
        counts[self.size] += 1
        return advance(self, level)

    monkeypatch.setattr(Stepper, "advance", counting)
    return counts


def _c11_member(eps: float) -> SimConfig:
    g = Grid(1, 2048, 256.0)
    return SimConfig(data=assemble_pair(power_profile(g, 1.0), eps), p=2.0, dt=1 / 32,
                     t_max=600.0)


def _off_centre_member() -> SimConfig:
    """c11's eps 0.4 member, moved to x = dx, which no coarser grid samples, at threshold 1.5."""
    g = Grid(1, 2048, 256.0)
    coeffs = power_profile(g, 1.0).coeffs * np.exp(-1j * g.dx * g.xi_axis[: g.spectral_shape[-1]])
    field = SpectralField(g, coeffs)
    return SimConfig(data=DataPair(field, field.copy(), 0.4), p=2.0, dt=1 / 32, t_max=600.0,
                     blowup_threshold=1.5)


def _stepper_holding(dim: int, size: int, uhat: np.ndarray) -> Stepper:
    """A stepper on Grid(dim, size, 4.0) whose band holds uhat's coefficients |k| <= size/3."""
    g = Grid(dim, size, 4.0)
    stepper = Stepper(SimConfig(data=constant_pair(g, 1.0, 0.0), p=2.0, dt=1e-3, t_max=1.0))
    m = size // 3
    lead = np.r_[0 : m + 1, size - m : size]
    stepper.uhat[...] = uhat[np.ix_(*[lead] * (dim - 1), np.arange(m + 1))]
    return stepper


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 32), (3, 16)])
def test_quiet_compares_the_weighted_top_half_with_the_band(monkeypatch, dim, size):
    # against masks on the half-spectrum: the top half of the kept band is
    # size/6 < max over axes |k| <= size/3, the inner box |k| <= size/6
    rng = np.random.default_rng(dim)
    g = Grid(dim, size, 4.0)
    uhat = rng.standard_normal(g.spectral_shape) + 1j * rng.standard_normal(g.spectral_shape)
    reach = g.lattice(np.abs(g.k_axis), np.maximum, half=True)
    mass = np.broadcast_to(g.column_weight, uhat.shape) * np.abs(uhat) ** 2
    top = mass[(reach > size // 6) & (reach <= size // 3)].sum()
    share = top / (top + mass[reach <= size // 6].sum())
    stepper = _stepper_holding(dim, size, uhat)
    monkeypatch.setattr(solver, "_TAIL_TOL", share * (1.0 + 1e-9))
    assert stepper.quiet()
    monkeypatch.setattr(solver, "_TAIL_TOL", share * (1.0 - 1e-9))
    assert not stepper.quiet()


@pytest.mark.parametrize("dim,size", [(2, 256), (3, 64)])
def test_quiet_copies_no_band_slab(dim, size):
    # after its first call, quiet() squares the band into the stepper's own
    # scratch and takes two vdots: no slab copy, no allocation
    stepper = _stepper_holding(dim, size, np.ones(Grid(dim, size, 4.0).spectral_shape))
    assert not stepper.quiet()
    tracemalloc.start()
    try:
        for _ in range(100):
            stepper.quiet()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


def test_lifespan_at_tail_tol_zero_is_the_single_grid_run(monkeypatch):
    # tol 0 leaves every coarse grid before step 1: the configured grid
    # takes the data back bit for bit and steps the whole run
    g = Grid(1, 512, 64.0)
    cfg = SimConfig(data=assemble_pair(power_profile(g, 1.0), 1.0), p=2.0, dt=1 / 32,
                    t_max=200.0)
    assert _coarsest_size(cfg) == 32
    want = _single_grid_lifespan(cfg)
    counts = _steps_by_size(monkeypatch)
    monkeypatch.setattr(solver, "_TAIL_TOL", 0.0)
    assert measure_lifespan(cfg) == want
    assert list(counts) == [512]


@pytest.mark.parametrize("make_cfg", [
    pytest.param(lambda: _c11_member(0.4), id="c11-eps0.4"),
    pytest.param(lambda: SimConfig(
        data=assemble_pair(power_profile(Grid(2, 128, 64.0), 1.0), 0.5), p=2.0,
        dt=0.0625, t_max=60.0), id="2d-power"),
    # a coarse grid's max|u| misses the peak: the run must still leave it
    # before the threshold, which here lies below the first halved step
    pytest.param(_off_centre_member, id="off-centre"),
])
def test_coarse_grids_give_the_tol_zero_lifespan(monkeypatch, make_cfg):
    cfg = make_cfg()
    counts = _steps_by_size(monkeypatch)
    res = measure_lifespan(cfg)
    assert not res.censored and min(counts) < cfg.grid.size
    monkeypatch.setattr(solver, "_TAIL_TOL", 0.0)
    assert measure_lifespan(cfg) == res


def test_quiet_phase_steps_on_coarse_grids(monkeypatch):
    # c11's eps 0.1 member: its data and solution live at |xi| < 1 for
    # most of the run, far inside the band of N = 2048
    counts = _steps_by_size(monkeypatch)
    res = measure_lifespan(_c11_member(0.1))
    assert not res.censored
    coarse = sum(n for size, n in counts.items() if size < 2048)
    assert coarse > 0.9 * sum(counts.values()), counts


def test_data_at_the_nyquist_mode_builds_only_the_configured_grid(monkeypatch):
    g = Grid(1, 64, 8.0)
    field = laplacian_gaussian(g, 1)
    assert field.coeffs[-1] != 0.0
    cfg = SimConfig(data=assemble_pair(field, 3.0), p=2.0, dt=1 / 32, t_max=20.0)
    assert _coarsest_size(cfg) == 64
    built = []
    init = Stepper.__init__

    def recording(self, config, grid=None):
        init(self, config, grid)
        built.append(self.size)

    monkeypatch.setattr(Stepper, "__init__", recording)
    assert not measure_lifespan(cfg).censored
    assert built == [64]
