"""Time integration of the damped wave equation with power nonlinearity.

Works entirely on Fourier coefficients.  One step (Stepper.advance, the
single step body: run_stack() drives it, and a Stepper steps by hand)
applies the exact linear propagator and a trapezoid rule to the memory
integral of the nonlinear term; the kernel vanishing at zero time lag
makes the displacement update explicit, and a predicted endpoint closes
the velocity update.  The predicted nonlinearity is reused as the next
step's left endpoint, so each step costs one real inverse and one real
forward transform, made one axis at a time: in n dimensions that is
n - 1 complex ifft calls and one irfft, then one rfft and n - 1 complex
fft calls.  A Stepper steps a stack of runs that share grid, p and the
nonlinear and dealias settings, one row per run with its own data and
dt; the transforms and combines take the whole stack in one call each.
The Stepper owns its state and workspace: every combine and transform of
a step writes into them in place, with the operand order of the
out-of-place expressions.  Inside a step only NumPy's cast buffers for
the real multipliers allocate.  Fields are real, and every spectral
array here is the half-spectrum that SpectralField holds (last axis
k = 0 .. N/2, as np.fft.rfftn returns it).  run_stack() is one loop over
steps: step 0 is the eps-scaled data, and it goes through the same
finiteness and threshold gate as every later step; run() is a stack of
one, and measure_lifespan() stacks its dt and dt/2 runs.

Second order accurate in dt.  The step size must resolve the fastest
resolved oscillation, dt <= 1/(2 xi_max).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Sequence
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
    "check_start",
    "run_stack",
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
    """Steps a stack of runs on the half-spectrum, multipliers computed once.

    The runs share grid, p, nonlinear and dealias; each has its own data
    and dt.  Every state, scratch and multiplier array has a leading row
    axis, and row r belongs to configs[r].  The stepper owns these arrays,
    allocated once here, and a step creates no arrays of its own.  start()
    fills the state at t = 0 and advance() moves each row one step of its
    own dt; each returns the stepper's own (uhat, vhat, u_phys, nl_hat),
    which the next advance() overwrites, so a caller copies what it keeps.
    keep() drops the rows that have finished.  run_stack() is the loop over
    all three.  work is the real scratch array: |u|^p inside a step, free
    between steps.

    A step transforms the whole stack once each way, one call per axis, in
    the axis order of np.fft.irfftn and rfftn: ifft over each leading axis
    and irfft over the last, then rfft over the last and fft over each
    leading axis.  The calls look np.fft up when they run, and the
    complex ones write in place.  Each row is transformed on its own, so a
    row steps bit for bit as it would in a stack of one.
    """

    # the arrays with a row axis, which keep() compacts
    _ROWS = ("kh", "kp", "half", "xi2_kh", "half_kh", "uhat", "vhat", "nl_hat",
             "_nl_next", "_pv", "_spec_work", "u_phys", "work")

    def __init__(self, configs: Sequence[SimConfig]) -> None:
        configs = list(configs)
        if not configs:
            raise ConfigError("a stack needs at least one run")
        first = configs[0]
        for config in configs[1:]:
            for name in ("grid", "p", "nonlinear", "dealias"):
                mine, theirs = getattr(config, name), getattr(first, name)
                if mine != theirs:
                    raise ConfigError(f"stacked runs must share {name}: {theirs} != {mine}")
        grid = first.grid
        self.data = [config.data for config in configs]
        self.dim, self.size = grid.dim, grid.size
        self.p = first.p
        self.nonlinear = first.nonlinear
        pairs = [khat_kprime(config.dt, grid.xi2) for config in configs]
        self.kh = np.stack([kh for kh, _ in pairs])
        self.kp = np.stack([kp for _, kp in pairs])
        dts = np.array([config.dt for config in configs])
        self.half = (0.5 * dts).reshape((-1,) + (1,) * grid.dim)
        self.xi2_kh = grid.xi2 * self.kh
        self.half_kh = self.half * self.kh
        self.inv_factor = grid.phase / grid.transform_scale
        self.fwd_factor = grid.phase * grid.transform_scale
        if first.dealias:
            self.fwd_factor = self.fwd_factor * grid.dealias_mask
        # linear runs keep both nl buffers at zero
        self.uhat, self.vhat, self.nl_hat, self._nl_next, self._pv, self._spec_work = (
            np.zeros(self.kh.shape, dtype=np.complex128) for _ in range(6)
        )
        self.u_phys = np.empty((len(configs),) + grid.shape)
        self.work = np.empty(self.u_phys.shape)

    def _fill_physical_and_nl(self, nl_out: np.ndarray) -> None:
        """u_phys from uhat, then the dealiased coefficients of |u|^p into nl_out."""
        spec = self._spec_work
        np.multiply(self.uhat, self.inv_factor, out=spec)
        for axis in range(1, self.dim):
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, n=self.size, axis=-1, out=self.u_phys)
        if self.nonlinear:
            np.fft.rfft(abs_pow(self.u_phys, self.p, self.work), axis=-1, out=nl_out)
            for axis in range(self.dim - 1, 0, -1):
                np.fft.fft(nl_out, axis=axis, out=nl_out)
            np.multiply(nl_out, self.fwd_factor, out=nl_out)

    def start(self):
        """(uhat, vhat, u_phys, nl_hat) of each row's eps-scaled data at t = 0."""
        for row, data in enumerate(self.data):
            np.multiply(data.eps, data.u0.coeffs, out=self.uhat[row])
            np.multiply(data.eps, data.u1.coeffs, out=self.vhat[row])
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

    def row_max(self) -> np.ndarray:
        """max|u| of each row, NaN where the row holds one; overwrites work."""
        np.abs(self.u_phys, out=self.work)
        return np.maximum.reduce(self.work, axis=tuple(range(1, self.dim + 1)))

    def keep(self, rows: Sequence[int]) -> None:
        """Keep only these rows, renumbered 0, 1, ... in this order; each steps on."""
        rows = list(rows)
        self.data = [self.data[row] for row in rows]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[rows])


def _boundary_mask(grid: Grid) -> np.ndarray:
    edge = grid.half_length - _BOUNDARY_CELLS * grid.dx
    return grid.lattice(np.abs(grid.x_axis) >= edge, np.logical_or)


def _start_gate(config: SimConfig, top: float) -> None:
    """The step-0 gate: the data's max|u| must be below the threshold."""
    if not top < config.blowup_threshold:
        raise ConfigError(
            f"initial amplitude {top:.3g} is not below the blow-up "
            f"threshold {config.blowup_threshold:.3g}"
        )


def check_start(configs: Sequence[SimConfig]) -> None:
    """run_stack()'s step-0 gate alone, without advancing any run.

    Each config's eps-scaled data goes through a stack of one in turn;
    the first whose max|u| is not below its threshold is a ConfigError.
    """
    for config in configs:
        stepper = Stepper([config])
        stepper.start()
        _start_gate(config, float(stepper.row_max()[0]))


class _Recorder:
    """One run's gate, norm rows and field snapshots while a stack steps it."""

    def __init__(self, config: SimConfig, bmask: np.ndarray) -> None:
        g = config.grid
        self.config = config
        self.bmask = bmask
        self.vol = g.dx**g.dim
        self.n_steps = int(math.floor(config.t_max / config.dt + 1e-9))
        self.every = every = config.record_fields_every
        self.ftimes = self.fsnaps = None
        if every:
            count = self.n_steps // every + 1 + (self.n_steps % every != 0)
            try:
                self.fsnaps = np.empty((count,) + g.shape)
            except (MemoryError, ValueError) as exc:
                size = count * math.prod(g.shape) * 8
                raise ConfigError(
                    f"cannot reserve {count} field snapshots ({size} bytes) for "
                    f"t_max / dt / record_fields_every"
                ) from exc
            self.ftimes = np.empty(count)
        self.k = 0
        self.rows: list[tuple] = []
        self.boundary_ratio = 0.0
        self.outcome = "survived"
        self.t_blowup: float | None = None
        self.steps_taken = 0

    def record(self, n: int, top: float, uhat: np.ndarray, u_phys: np.ndarray) -> bool:
        """Gate and record step n, whose max|u| is top; True once the run has ended."""
        config = self.config
        self.steps_taken = n
        t = n * config.dt
        if n == 0:
            _start_gate(config, top)
        if not math.isfinite(top):
            if not config.nonlinear:
                raise NumericalError(f"linear run lost finiteness at t = {t:.6g}")
            self.outcome, self.t_blowup = "blewup", t
            return True
        crossed = top > config.blowup_threshold
        if crossed or n % config.record_every == 0 or n == self.n_steps:
            g = config.grid
            fld = SpectralField(g, uhat)
            l2 = math.sqrt(np.sum(u_phys * u_phys) * self.vol)
            hneg = hdotneg_norm(fld, config.gamma, config.norm_policy)
            self.rows.append((t, l2, top, hs_norm(fld, config.s), hneg))
            if top > 0.0:
                ratio = float(np.max(np.abs(u_phys[self.bmask]))) / top
                self.boundary_ratio = max(self.boundary_ratio, ratio)
        if crossed:
            self.outcome, self.t_blowup = "blewup", t
            return True
        every = self.every
        if every and (n % every == 0 or n == self.n_steps):
            self.ftimes[self.k] = t
            self.fsnaps[self.k] = u_phys
            self.k += 1
        return n == self.n_steps

    def trajectory(self) -> Trajectory:
        """The trajectory recorded so far."""
        k = self.k
        return Trajectory(
            *(np.array(col) for col in zip(*self.rows)),  # times, l2, linf, hs, hdotneg
            outcome=self.outcome,
            t_blowup=self.t_blowup,
            boundary_ratio=self.boundary_ratio,
            boundary_flagged=self.boundary_ratio > _BOUNDARY_RTOL,
            steps_taken=self.steps_taken,
            field_times=self.ftimes[:k] if self.every else None,
            field_snapshots=self.fsnaps[:k] if self.every else None,
        )


def run_stack(configs: Sequence[SimConfig]) -> list[Trajectory]:
    """Integrate each run up to its t_max or its first threshold crossing.

    The runs step together as the rows of one Stepper, so they must share
    grid, p, nonlinear and dealias (else ConfigError).  Step n of a row is
    at t = n * its dt.  A row that has ended is dropped from the stack,
    and the loop ends with the last row.  Each row's trajectory is the one
    run() gives for its config alone, bit for bit.

    Step 0 is the eps-scaled data, every later step one Stepper.advance,
    and each goes through the same gate on max|u|.  At step 0 an amplitude
    not below the threshold, NaN and inf included, is a ConfigError.  Later
    on, nonlinear runs treat a non-finite state as blow-up at that step;
    linear runs must stay finite, anything else raises NumericalError.
    The blow-up time is the first step time where max|u| exceeds the
    threshold, so it carries a +-dt detection granularity.  The crossing
    step is recorded off cadence, but takes no field snapshot.

    Field snapshots go into one array per run reserved before step 0 for a
    run that reaches t_max, the last step included if it is off cadence;
    the trajectory holds its filled rows, and rows an early blow-up never
    writes are never touched, so they take no resident memory.  A
    reservation that cannot be allocated is a ConfigError.
    """
    stepper = Stepper(configs)
    bmask = _boundary_mask(configs[0].grid)
    recorders = [_Recorder(config, bmask) for config in configs]
    live = recorders
    for n in itertools.count():
        uhat, _, u_phys, _ = stepper.advance() if n else stepper.start()
        tops = stepper.row_max()
        ended = [rec.record(n, float(tops[i]), uhat[i], u_phys[i]) for i, rec in enumerate(live)]
        if any(ended):
            kept = [i for i, done in enumerate(ended) if not done]
            if not kept:
                break
            stepper.keep(kept)
            live = [live[i] for i in kept]
    return [rec.trajectory() for rec in recorders]


def run(config: SimConfig) -> Trajectory:
    """One run alone: run_stack([config])[0]."""
    return run_stack([config])[0]


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

    The two runs step as the two rows of one run_stack.  The detector is
    first-order in the step (threshold crossing between samples), the
    scheme second order, so Richardson with ratio 4 is slightly
    optimistic; the reported error adds the fine-run granularity on top
    of the extrapolation difference.  Surviving the horizon at either
    step size censors the measurement.
    """
    lean = dataclasses.replace(
        config,
        record_every=max(1, int(round(config.t_max / config.dt)) // 4),
        record_fields_every=0,
    )
    coarse, fine = run_stack([lean, dataclasses.replace(lean, dt=config.dt / 2.0)])
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
