"""Time integration of the damped wave equation with power nonlinearity.

Works entirely on Fourier coefficients.  One step (Stepper.advance, the
single step body behind run() and step()) applies the exact linear
propagator and a trapezoid rule to the memory integral of the nonlinear
term; the kernel vanishing at zero time lag makes the displacement update
explicit, and a predicted endpoint closes the velocity update.  The
predicted nonlinearity is reused as the next step's left endpoint, so each
step costs one forward and one inverse transform.

Second order accurate in dt.  The step size must resolve the fastest
resolved oscillation, dt <= 1/(2 xi_max).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .accel import abs_pow, correct_combine, khat_kprime, predict_combine
from .errors import ConfigError, NumericalError
from .grid import Grid, SpectralField
from .norms import hdotneg_norm, hs_norm
from .profiles import DataPair

__all__ = [
    "SimConfig",
    "Trajectory",
    "LifespanResult",
    "Stepper",
    "run",
    "step",
    "measure_lifespan",
]

# physical samples within this many cells of the box face count as boundary
_BOUNDARY_CELLS = 2.5
_BOUNDARY_RTOL = 1e-8


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs besides the clock.

    Norm parameters (s, gamma, norm_policy) only affect what the trajectory
    records, not the dynamics.  record_fields_every = 0 disables physical
    snapshots.
    """

    data: DataPair
    p: float
    dt: float
    t_max: float
    blowup_threshold: float = 1e6
    dealias: bool = True
    nonlinear: bool = True
    record_every: int = 1
    record_fields_every: int = 0
    s: float = 1.0
    gamma: float = 0.5
    norm_policy: str = "exclude"

    def __post_init__(self) -> None:
        g = self.grid
        if self.nonlinear and not (self.p > 1.0):
            raise ConfigError(f"need p > 1, got p = {self.p}")
        if not (self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.dt > 0.5 / g.xi_max:
            raise ConfigError(
                f"dt = {self.dt:.4g} exceeds the oscillation limit "
                f"1/(2 xi_max) = {0.5 / g.xi_max:.4g}"
            )
        if not (self.t_max >= self.dt):
            raise ConfigError(f"t_max = {self.t_max} is below one step")
        if self.record_every < 1 or self.record_fields_every < 0:
            raise ConfigError("record intervals must be positive (fields: >= 0)")
        if not (self.blowup_threshold > 0.0):
            raise ConfigError("blowup_threshold must be positive")

    @property
    def grid(self) -> Grid:
        return self.data.u0.grid


@dataclass
class Trajectory:
    """Recorded norms (and optionally fields) of one run."""

    config: SimConfig
    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    hs: np.ndarray
    hdotneg: np.ndarray
    outcome: str  # "survived" or "blewup"
    t_blowup: float | None
    boundary_ratio: float
    boundary_flagged: bool
    steps_taken: int
    field_times: np.ndarray | None = None
    field_snapshots: np.ndarray | None = None


@dataclass
class State:
    """Solver state between steps; u_phys and nl_hat mirror uhat."""

    grid: Grid
    uhat: np.ndarray
    vhat: np.ndarray
    u_phys: np.ndarray
    nl_hat: np.ndarray
    t: float


class Stepper:
    """Steps of size dt on one grid, with the multipliers computed once."""

    def __init__(self, grid: Grid, dt: float, p: float, *, dealias: bool = True,
                 nonlinear: bool = True) -> None:
        self.xi2 = grid.xi2
        self.p = p
        self.nonlinear = nonlinear
        self.half = 0.5 * dt
        self.kh, self.kp = khat_kprime(dt, self.xi2)
        self.mask = grid.dealias_mask.astype(np.float64) if dealias else None
        self.phase = grid.phase
        self.scale = grid.transform_scale
        self.fwd_factor = self.phase * self.scale

    def physical(self, uhat: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(uhat * self.phase).real / self.scale

    def nl_coeffs(self, u_phys: np.ndarray) -> np.ndarray:
        """Dealiased coefficients of |u|^p (zero for linear runs)."""
        if not self.nonlinear:
            return np.zeros(u_phys.shape, dtype=np.complex128)
        out = np.fft.fftn(abs_pow(u_phys, self.p)) * self.fwd_factor
        if self.mask is not None:
            out *= self.mask
        return out

    def advance(self, uhat: np.ndarray, vhat: np.ndarray, nl_hat: np.ndarray):
        """(uhat, vhat, u_phys, nl_hat) one step later."""
        uhat_new, pv = predict_combine(
            uhat, vhat, nl_hat, self.kh, self.kp, self.xi2, self.half
        )
        u_new = self.physical(uhat_new)
        nl_new = self.nl_coeffs(u_new)
        vhat_new = correct_combine(pv, nl_hat, nl_new, self.kp, self.half)
        return uhat_new, vhat_new, u_new, nl_new


def _stepper(config: SimConfig) -> Stepper:
    return Stepper(config.grid, config.dt, config.p, dealias=config.dealias,
                   nonlinear=config.nonlinear)


def _boundary_mask(grid: Grid) -> np.ndarray:
    edge = grid.half_length - _BOUNDARY_CELLS * grid.dx
    near = np.abs(grid.x_axis) >= edge
    axes = np.meshgrid(*([near] * grid.dim), indexing="ij", sparse=True)
    out = np.zeros(grid.shape, dtype=bool)
    for a in axes:
        out = out | a
    return out


def step(state: State, dt: float, p: float, *, dealias: bool = True,
         nonlinear: bool = True) -> State:
    """Advance one step of size dt.  Recomputes multipliers every call."""
    stepper = Stepper(state.grid, dt, p, dealias=dealias, nonlinear=nonlinear)
    uhat, vhat, u_phys, nl_hat = stepper.advance(state.uhat, state.vhat, state.nl_hat)
    return State(state.grid, uhat, vhat, u_phys, nl_hat, state.t + dt)


def initial_state(config: SimConfig, stepper: Stepper | None = None) -> State:
    """Scale the data pair by eps and prepare cached physical samples."""
    if stepper is None:
        stepper = _stepper(config)
    eps = config.data.eps
    uhat = eps * config.data.u0.coeffs
    vhat = eps * config.data.u1.coeffs
    u_phys = stepper.physical(uhat)
    return State(config.grid, uhat, vhat, u_phys, stepper.nl_coeffs(u_phys), 0.0)


def run(config: SimConfig) -> Trajectory:
    """Integrate up to t_max or the first threshold crossing.

    Nonlinear runs treat a non-finite state as blow-up at that step;
    linear runs must stay finite, anything else raises NumericalError.
    The blow-up time is the first step time where max|u| exceeds the
    threshold, so it carries a +-dt detection granularity.
    """
    g = config.grid
    stepper = _stepper(config)
    state = initial_state(config, stepper)

    linf0 = float(np.max(np.abs(state.u_phys)))
    if linf0 >= config.blowup_threshold:
        raise ConfigError(
            f"initial amplitude {linf0:.3g} already at the blow-up "
            f"threshold {config.blowup_threshold:.3g}"
        )

    bmask = _boundary_mask(g)

    n_steps = int(math.floor(config.t_max / config.dt + 1e-9))
    times: list[float] = []
    l2s: list[float] = []
    linfs: list[float] = []
    hss: list[float] = []
    hnegs: list[float] = []
    ftimes: list[float] = []
    fsnaps: list[np.ndarray] = []
    boundary_ratio = 0.0
    vol = g.dx**g.dim

    def record(t: float, u_phys: np.ndarray, uhat: np.ndarray) -> None:
        nonlocal boundary_ratio
        fld = SpectralField(g, uhat)
        times.append(t)
        l2s.append(float(math.sqrt(np.sum(u_phys * u_phys) * vol)))
        top = float(np.max(np.abs(u_phys)))
        linfs.append(top)
        hss.append(hs_norm(fld, config.s))
        hnegs.append(hdotneg_norm(fld, config.gamma, config.norm_policy))
        if top > 0.0:
            ratio = float(np.max(np.abs(u_phys[bmask]))) / top
            boundary_ratio = max(boundary_ratio, ratio)

    record(0.0, state.u_phys, state.uhat)
    if config.record_fields_every > 0:
        ftimes.append(0.0)
        fsnaps.append(state.u_phys.copy())

    outcome = "survived"
    t_blowup: float | None = None
    uhat, vhat, u_phys, nl_hat = state.uhat, state.vhat, state.u_phys, state.nl_hat
    steps_taken = 0

    for n in range(1, n_steps + 1):
        uhat, vhat, u_phys, nl_hat = stepper.advance(uhat, vhat, nl_hat)
        t = n * config.dt
        steps_taken = n

        top = float(np.max(np.abs(u_phys)))
        if not math.isfinite(top):
            if not config.nonlinear:
                raise NumericalError(
                    f"linear run lost finiteness at t = {t:.6g}"
                )
            outcome, t_blowup = "blewup", t
            break
        if top > config.blowup_threshold:
            outcome, t_blowup = "blewup", t
            record(t, u_phys, uhat)
            break
        if n % config.record_every == 0 or n == n_steps:
            record(t, u_phys, uhat)
        if config.record_fields_every > 0 and (
            n % config.record_fields_every == 0 or n == n_steps
        ):
            ftimes.append(t)
            fsnaps.append(u_phys.copy())

    return Trajectory(
        config=config,
        times=np.array(times),
        l2=np.array(l2s),
        linf=np.array(linfs),
        hs=np.array(hss),
        hdotneg=np.array(hnegs),
        outcome=outcome,
        t_blowup=t_blowup,
        boundary_ratio=boundary_ratio,
        boundary_flagged=boundary_ratio > _BOUNDARY_RTOL,
        steps_taken=steps_taken,
        field_times=np.array(ftimes) if fsnaps else None,
        field_snapshots=np.stack(fsnaps) if fsnaps else None,
    )


@dataclass
class LifespanResult:
    """Blow-up time with step-halving extrapolation and its error bar."""

    t_blowup: float
    error: float
    censored: bool
    t_coarse: float
    t_fine: float


def measure_lifespan(config: SimConfig) -> LifespanResult:
    """Detect the blow-up time at dt and dt/2 and extrapolate.

    The detector is first-order in the step (threshold crossing between
    samples), the scheme second order, so Richardson with ratio 4 is
    slightly optimistic; the reported error adds the fine-run granularity
    on top of the extrapolation difference.  Surviving the horizon at
    either step size censors the measurement.
    """
    lean = dataclasses.replace(
        config,
        record_every=max(1, int(round(config.t_max / config.dt)) // 4 or 1),
        record_fields_every=0,
    )
    coarse = run(lean)
    fine = run(dataclasses.replace(lean, dt=config.dt / 2.0))
    if coarse.outcome != "blewup" or fine.outcome != "blewup":
        return LifespanResult(
            t_blowup=math.inf,
            error=math.nan,
            censored=True,
            t_coarse=coarse.t_blowup if coarse.t_blowup is not None else math.inf,
            t_fine=fine.t_blowup if fine.t_blowup is not None else math.inf,
        )
    tc, tf = coarse.t_blowup, fine.t_blowup
    t_star = (4.0 * tf - tc) / 3.0
    err = abs(tf - tc) / 3.0 + config.dt / 2.0
    return LifespanResult(
        t_blowup=t_star, error=err, censored=False, t_coarse=tc, t_fine=tf
    )
