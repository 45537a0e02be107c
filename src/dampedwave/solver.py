"""Time integration of the damped wave equation with power nonlinearity.

Works entirely on Fourier coefficients.  One step (Stepper.advance, the
single step body: run() drives it, and Stepper(config) steps by hand)
applies the exact linear propagator and a trapezoid rule to the memory
integral of the nonlinear term; the kernel vanishing at zero time lag
makes the displacement update explicit, and a predicted endpoint closes
the velocity update.  The predicted nonlinearity is reused as the next
step's left endpoint, so each step costs one real forward and one real
inverse transform.  The Stepper owns its state and workspace: every
combine and transform of a step writes into them in place, with the
operand order of the out-of-place expressions.  Inside a step only
NumPy's cast buffers and irfftn's passes over the leading axes allocate.
Fields are real, and every spectral array here is the half-spectrum that
SpectralField holds (last axis k = 0 .. N/2, as np.fft.rfftn returns it).
run() is one loop over steps: step 0 is the eps-scaled data, and it goes
through the same finiteness and threshold gate as every later step.

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
        if not (self.dt <= self.t_max < math.inf):
            raise ConfigError(f"t_max = {self.t_max} must be finite and not below one step")
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


class Stepper:
    """Steps of config.dt on the half-spectrum, multipliers computed once.

    The stepper owns its state and workspace, allocated once here, and a
    step creates no arrays of its own.  start() fills the state at t = 0
    and advance() moves it one step on; each returns the stepper's own
    (uhat, vhat, u_phys, nl_hat), which the next advance() overwrites, so
    a caller copies what it keeps.  run() is the loop over both.  work is
    the real scratch array: |u|^p inside a step, free between steps.
    """

    def __init__(self, config: SimConfig) -> None:
        grid = config.grid
        self.data = config.data
        self.shape = grid.shape
        self.axes = tuple(range(grid.dim))
        self.p = config.p
        self.nonlinear = config.nonlinear
        self.half = 0.5 * config.dt
        self.kh, self.kp = khat_kprime(config.dt, grid.xi2)
        self.xi2_kh = grid.xi2 * self.kh
        self.half_kh = self.half * self.kh
        self.inv_factor = grid.phase / grid.transform_scale
        self.fwd_factor = grid.phase * grid.transform_scale
        if config.dealias:
            self.fwd_factor = self.fwd_factor * grid.dealias_mask
        # linear runs keep both nl buffers at zero
        self.uhat, self.vhat, self.nl_hat, self._nl_next, self._pv, self._spec_work = (
            np.zeros(self.kh.shape, dtype=np.complex128) for _ in range(6)
        )
        self.u_phys = np.empty(self.shape)
        self.work = np.empty(self.shape)

    def _fill_physical_and_nl(self, nl_out: np.ndarray) -> None:
        """u_phys from uhat, then the dealiased coefficients of |u|^p into nl_out."""
        np.multiply(self.uhat, self.inv_factor, out=self._spec_work)
        np.fft.irfftn(self._spec_work, s=self.shape, axes=self.axes, out=self.u_phys)
        if self.nonlinear:
            np.fft.rfftn(abs_pow(self.u_phys, self.p, self.work), axes=self.axes, out=nl_out)
            np.multiply(nl_out, self.fwd_factor, out=nl_out)

    def start(self):
        """(uhat, vhat, u_phys, nl_hat) of the eps-scaled data at t = 0."""
        np.multiply(self.data.eps, self.data.u0.coeffs, out=self.uhat)
        np.multiply(self.data.eps, self.data.u1.coeffs, out=self.vhat)
        self._fill_physical_and_nl(self.nl_hat)
        return self.uhat, self.vhat, self.u_phys, self.nl_hat

    def advance(self):
        """(uhat, vhat, u_phys, nl_hat) one step later, written over the last.

        pv is taken before uhat is overwritten, and the new nl goes into the
        spare buffer, which then swaps with nl_hat.
        """
        predict_combine(
            self.uhat, self.vhat, self.nl_hat, self.kh, self.kp, self.xi2_kh,
            self.half_kh, self._pv, self._spec_work,
        )
        self._fill_physical_and_nl(self._nl_next)
        correct_combine(self._pv, self.nl_hat, self._nl_next, self.kp, self.half, self.vhat)
        self.nl_hat, self._nl_next = self._nl_next, self.nl_hat
        return self.uhat, self.vhat, self.u_phys, self.nl_hat


def _boundary_mask(grid: Grid) -> np.ndarray:
    edge = grid.half_length - _BOUNDARY_CELLS * grid.dx
    return grid.lattice(np.abs(grid.x_axis) >= edge, np.logical_or)


def run(config: SimConfig) -> Trajectory:
    """Integrate up to t_max or the first threshold crossing.

    Step 0 is the eps-scaled data, every later step one Stepper.advance,
    and each goes through the same gate on max|u|.  At step 0 an amplitude
    not below the threshold, NaN and inf included, is a ConfigError.  Later
    on, nonlinear runs treat a non-finite state as blow-up at that step;
    linear runs must stay finite, anything else raises NumericalError.
    The blow-up time is the first step time where max|u| exceeds the
    threshold, so it carries a +-dt detection granularity.  The crossing
    step is recorded off cadence, but takes no field snapshot.

    Field snapshots go into one array reserved before step 0 for a run
    that reaches t_max, the last step included if it is off cadence; the
    trajectory holds its filled rows, and rows an early blow-up never
    writes are never touched, so they take no resident memory.  A reservation that cannot be allocated is a
    ConfigError.
    """
    g = config.grid
    stepper = Stepper(config)
    bmask = _boundary_mask(g)
    vol = g.dx**g.dim
    n_steps = int(math.floor(config.t_max / config.dt + 1e-9))
    every = config.record_fields_every
    ftimes = fsnaps = None
    if every:
        count = n_steps // every + 1 + (n_steps % every != 0)
        try:
            fsnaps = np.empty((count,) + g.shape)
        except (MemoryError, ValueError) as exc:
            size = count * math.prod(g.shape) * 8
            raise ConfigError(
                f"cannot reserve {count} field snapshots ({size} bytes) for "
                f"t_max / dt / record_fields_every"
            ) from exc
        ftimes = np.empty(count)
    k = 0
    rows: list[tuple] = []
    boundary_ratio = 0.0
    outcome = "survived"
    t_blowup: float | None = None

    for n in range(n_steps + 1):
        uhat, _, u_phys, _ = stepper.advance() if n else stepper.start()
        t = n * config.dt
        top = float(np.max(np.abs(u_phys, out=stepper.work)))
        if n == 0 and not top < config.blowup_threshold:
            raise ConfigError(
                f"initial amplitude {top:.3g} is not below the blow-up "
                f"threshold {config.blowup_threshold:.3g}"
            )
        if not math.isfinite(top):
            if not config.nonlinear:
                raise NumericalError(f"linear run lost finiteness at t = {t:.6g}")
            outcome, t_blowup = "blewup", t
            break
        crossed = top > config.blowup_threshold
        if crossed or n % config.record_every == 0 or n == n_steps:
            fld = SpectralField(g, uhat)
            l2 = math.sqrt(np.sum(u_phys * u_phys) * vol)
            hneg = hdotneg_norm(fld, config.gamma, config.norm_policy)
            rows.append((t, l2, top, hs_norm(fld, config.s), hneg))
            if top > 0.0:
                ratio = float(np.max(np.abs(u_phys[bmask]))) / top
                boundary_ratio = max(boundary_ratio, ratio)
        if crossed:
            outcome, t_blowup = "blewup", t
            break
        if every and (n % every == 0 or n == n_steps):
            ftimes[k] = t
            fsnaps[k] = u_phys
            k += 1

    return Trajectory(
        *(np.array(col) for col in zip(*rows)),  # times, l2, linf, hs, hdotneg
        outcome=outcome,
        t_blowup=t_blowup,
        boundary_ratio=boundary_ratio,
        boundary_flagged=boundary_ratio > _BOUNDARY_RTOL,
        steps_taken=n,
        field_times=ftimes[:k] if every else None,
        field_snapshots=fsnaps[:k] if every else None,
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
        record_every=max(1, int(round(config.t_max / config.dt)) // 4),
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
