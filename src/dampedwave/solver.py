"""Time integration of the damped wave equation with power nonlinearity.

Works entirely on Fourier coefficients.  One step (Stepper.advance, the
single step body: run() and measure_lifespan() drive it, and a Stepper
steps by hand) applies the exact linear propagator and a trapezoid rule
to the memory integral of the nonlinear term; the kernel vanishing at
zero time lag makes the displacement update explicit, and a predicted
endpoint closes the velocity update.  The predicted nonlinearity is
reused as the next step's left endpoint, so each step costs one real
inverse and one real forward transform, made one axis at a time: in n
dimensions that is n - 1 complex ifft calls and one irfft, then one rfft
and n - 1 complex fft calls.  The Stepper owns its state and workspace:
every combine and transform of a step writes into them in place, with
the operand order of the out-of-place expressions.  Multipliers are held
as complex128, so a step allocates nothing.  Fields are real, held by
the half-spectrum that SpectralField holds (last axis k = 0 .. N/2, as
np.fft.rfftn returns it).  Data inside the band the 2/3 rule keeps, |k| <=
N/3 per axis, stays there: the Stepper then holds and combines only that
band, and transforms the leading axes on its columns alone.

run() is one loop over steps of dt: step 0 is the eps-scaled data, and
it goes through the same finiteness and threshold gate as every later
step.  measure_lifespan() steps one run whose step halves as max|u|
grows, so that it stays a fixed fraction of the ODE blow-up time scale
max|u|^(-(p-1)/2), and reads the blow-up time off an integer clock.  Its
quiet phase steps on the coarsest power-of-two grid of the same box that
holds the solution: the run moves to the next finer grid once the Stepper
is no longer quiet(), and to the configured grid before any adapted step,
so it crosses the threshold there.

Second order accurate in the step.  The step size must resolve the
fastest resolved oscillation, dt <= 1/(2 xi_max).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
import weakref
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
    "Spool",
    "Trajectory",
    "LifespanResult",
    "Stepper",
    "check_start",
    "run",
    "measure_lifespan",
]

# physical samples within this many cells of the box face count as boundary
_BOUNDARY_CELLS = 2.5
_BOUNDARY_RTOL = 1e-8

# measure_lifespan's steps: h = dt / 2**k stays at or below this fraction
# of the ODE blow-up time scale max|u|^(-(p-1)/2), with k at most _MAX_LEVEL
_STEP_FRACTION = 0.25
_MAX_LEVEL = 20

# measure_lifespan's grids: a run leaves a coarse grid for the next finer one
# once the top half of its kept band holds _TAIL_TOL of the mass, and for the
# configured grid once _COARSE_MARGIN times its max|u| would take a step of
# level > 0 or pass the threshold (a coarse grid samples every other point)
_TAIL_TOL = 1e-6
_COARSE_MARGIN = 2.0

# each step's 2/3-rule dealiasing, and the H^s order and zero-mode policy of
# the norms run() records; the runners' config echoes read them from here
DEALIAS = True
HS_ORDER = 1.0
NORM_POLICY = "exclude"

# a state that overflows is a handled outcome (blow-up, or an error at step
# 0), so the arithmetic that reaches it stays quiet
_QUIET = {"over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs besides the clock.

    gamma, the order of the recorded negative norm, only affects what the
    trajectory records, not the dynamics.  record_fields_every = 0 disables
    physical snapshots.
    """

    data: DataPair
    p: float
    dt: float
    t_max: float
    blowup_threshold: float = 1e6
    nonlinear: bool = True
    record_every: int = 1
    record_fields_every: int = 0
    gamma: float = 0.5

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
        # run() counts steps of dt and measure_lifespan() ticks of dt / 2**_MAX_LEVEL
        if not self.t_max / self.dt * 2**_MAX_LEVEL < math.inf:
            raise ConfigError(
                f"'dt' = {self.dt} is too small: t_max / dt * 2**{_MAX_LEVEL} ticks overflow"
            )
        if self.record_every < 1 or self.record_fields_every < 0:
            raise ConfigError("record intervals must be positive (fields: >= 0)")
        if not (self.blowup_threshold > 0.0):
            raise ConfigError("blowup_threshold must be positive")

    @property
    def grid(self) -> Grid:
        return self.data.u0.grid


class Spool:
    """float64 rows of one shape, appended to an unlinked temp file on disk.

    shape is that of the rows written so far, stacked.  The file is closed,
    and its disk space freed, when the spool is collected.
    """

    def __init__(self, row_shape: tuple) -> None:
        self.file = tempfile.TemporaryFile()
        weakref.finalize(self, self.file.close)
        self.shape = (0, *row_shape)

    def append(self, row: np.ndarray) -> None:
        self.file.write(memoryview(row).cast("B"))
        self.shape = (self.shape[0] + 1, *self.shape[1:])

    def load(self) -> np.ndarray:
        """The rows as one new array."""
        out = np.empty(self.shape)
        self.file.seek(0)
        self.file.readinto(memoryview(out).cast("B"))
        return out


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
    field_spool: Spool | None = None

    @property
    def field_snapshots(self) -> np.ndarray | None:
        """The snapshots, one row per field time, read from field_spool on each access."""
        return None if self.field_spool is None else self.field_spool.load()


def _slabs(a_shape: tuple, b_shape: tuple, m: int) -> list:
    """(a index, b index) pairs for |k| <= m, one per sign of k on each leading axis (fftn order)."""
    last = slice(0, m + 1)
    signs = [((last, last), (slice(la - m, la), slice(lb - m, lb)))
             for la, lb in zip(a_shape[:-1], b_shape[:-1])]
    return [((*(a for a, _ in pick), last), (*(b for _, b in pick), last))
            for pick in itertools.product(*signs)]


class Stepper:
    """Steps one run on the kept band, multipliers computed once per step size.

    The stepper owns its state and workspace, allocated once here, and a
    step creates no arrays of its own.  start() fills the state at t = 0
    and advance(level) moves it one step of dt / 2**level; each returns the
    stepper's own (uhat, vhat, u_phys, nl_hat), which the next advance()
    overwrites, so a caller copies what it keeps.  The multipliers of
    level 0 are built here, those of any other level on its first use,
    and each is kept for the stepper's life.  run() is the loop over steps
    of level 0; measure_lifespan() also asks top() and quiet() between
    steps.  work is the real scratch array: |u|^p inside a step, free
    between steps.  The spectral arrays are band arrays, shape (2m+1,)*(dim-1)
    + (m+1,) for m = N//3 or the half-spectrum's, and half_spectrum() gives
    one as the half-spectrum.

    grid, if given, is a grid of the same box as config's but another size:
    the stepper then steps config's equation there, and take() fills its
    state, since start() reads config's data.

    A step transforms once each way, one call per axis, in the axis order
    of np.fft.irfftn and rfftn: ifft over each leading axis and irfft over
    the last, then rfft over the last and fft over each leading axis.  The
    multiplies by inv_factor and fwd_factor put the band into _pad, zero
    outside it, and take it out of _spec.  The leading-axis calls run on the
    band's columns, the first out of place so _pad stays zero, and irfft
    pads them with zeros.  The calls look np.fft up when they run.
    """

    def __init__(self, config: SimConfig, grid: Grid | None = None) -> None:
        grid = grid or config.grid
        self.data = config.data
        self.dt = config.dt
        self.grid, self.dim, self.size = grid, grid.dim, grid.size
        self.p = config.p
        self.nonlinear = config.nonlinear
        half, m = grid.spectral_shape, grid.size // 3
        shape = half if _reach(self.data) > m else (2 * m + 1,) * (grid.dim - 1) + (m + 1,)
        self._slabs = [(..., ...)] if shape == half else _slabs(shape, half, m)
        self._levels: dict[int, tuple] = {}
        # linear runs keep both nl buffers at zero
        self.uhat, self.vhat, self.nl_hat, self._nl_next, self._pv, self._work_band = (
            np.zeros(shape, dtype=np.complex128) for _ in range(6)
        )
        self._level(0)
        self.inv_factor = self._band_of(grid.phase / grid.transform_scale)
        self.fwd_factor = self._band_of(grid.phase * grid.transform_scale * grid.dealias_mask)
        self._pad, self._spec = (np.zeros(half, dtype=np.complex128) for _ in range(2))
        cols = (..., slice(0, shape[-1]))
        self._pad_cols, self._spec_cols = self._pad[cols], self._spec[cols]
        # NumPy buffers a strided ufunc operand through a temporary of its
        # size: one slab pair (1D or the whole half-spectrum) is contiguous,
        # more go through the combine scratch and copyto moves each slab
        if len(self._slabs) == 1:
            h = self._slabs[0][1]
            self._pad_band, self._spec_band, moves = self._pad[h], self._spec[h], []
        else:
            self._pad_band = self._spec_band = self._work_band
            moves = self._slabs
        self._to_pad = [(self._pad[h], self._work_band[b]) for b, h in moves]
        self._from_spec = [(self._work_band[b], self._spec[h]) for b, h in moves]
        self.u_phys = np.empty(grid.shape)
        self.work = np.empty(grid.shape)

    def _band_of(self, full: np.ndarray) -> np.ndarray:
        """A half-spectrum array's band, as a new complex128 array."""
        out = np.empty_like(self.uhat)
        for b, h in self._slabs:
            out[b] = full[h]
        return out

    def half_spectrum(self, band: np.ndarray) -> np.ndarray:
        """One of the stepper's band arrays as a new half-spectrum, zero outside the band."""
        out = np.zeros(self._pad.shape, dtype=np.complex128)
        for b, h in self._slabs:
            out[h] = band[b]
        return out

    def _level(self, level: int) -> tuple:
        """(kh, kp, xi2 * kh, h/2 * kh, h/2) for h = dt / 2**level, built once on the half-spectrum."""
        mult = self._levels.get(level)
        if mult is None:
            h = self.dt / 2**level
            half = 0.5 * h
            kh, kp = khat_kprime(h, self.grid.xi2)
            arrays = (kh, kp, self.grid.xi2 * kh, half * kh)
            mult = self._levels[level] = (*(self._band_of(a) for a in arrays), half)
        return mult

    def _fill_physical_and_nl(self, nl_out: np.ndarray) -> None:
        """u_phys from uhat, then the dealiased coefficients of |u|^p into nl_out."""
        np.multiply(self.uhat, self.inv_factor, out=self._pad_band)
        for dst, src in self._to_pad:
            np.copyto(dst, src)
        spec = self._pad_cols
        for axis in range(self.dim - 1):
            np.fft.ifft(spec, axis=axis, out=self._spec_cols)
            spec = self._spec_cols
        np.fft.irfft(spec, n=self.size, axis=-1, out=self.u_phys)
        if self.nonlinear:
            np.fft.rfft(abs_pow(self.u_phys, self.p, self.work), axis=-1, out=self._spec)
            for axis in range(self.dim - 2, -1, -1):
                np.fft.fft(self._spec_cols, axis=axis, out=self._spec_cols)
            for dst, src in self._from_spec:
                np.copyto(dst, src)
            np.multiply(self._spec_band, self.fwd_factor, out=nl_out)

    def start(self):
        """(uhat, vhat, u_phys, nl_hat) of the eps-scaled data at t = 0."""
        for b, h in self._slabs:
            np.multiply(self.data.eps, self.data.u0.coeffs[h], out=self.uhat[b])
            np.multiply(self.data.eps, self.data.u1.coeffs[h], out=self.vhat[b])
        self._fill_physical_and_nl(self.nl_hat)
        return self.uhat, self.vhat, self.u_phys, self.nl_hat

    def take(self, other: "Stepper") -> None:
        """Load other's state, a stepper's on another grid of the same box.

        A coefficient means the same at the same k on each grid.  uhat and
        vhat take other's within the kept band of the coarser grid, |k| <=
        N/3 per axis, and are zero elsewhere: exact when other's state lies
        in that band, zero padding onto a finer grid being exact
        interpolation.  u_phys and nl_hat are then computed here.
        """
        m = min(self.size, other.size) // 3
        self.uhat.fill(0.0)
        self.vhat.fill(0.0)
        for mine, theirs in _slabs(self.uhat.shape, other.uhat.shape, m):
            self.uhat[mine] = other.uhat[theirs]
            self.vhat[mine] = other.vhat[theirs]
        self._fill_physical_and_nl(self.nl_hat)

    def advance(self, level: int = 0):
        """(uhat, vhat, u_phys, nl_hat) one step of dt / 2**level later, written over the last.

        pv is taken before uhat is overwritten, and the new nl goes into the
        spare buffer, which then swaps with nl_hat.
        """
        kh, kp, xi2_kh, half_kh, half = self._level(level)
        predict_combine(
            self.uhat, self.vhat, self.nl_hat, kh, kp, xi2_kh, half_kh, self._pv,
            self._work_band,
        )
        self._fill_physical_and_nl(self._nl_next)
        correct_combine(self._pv, self.nl_hat, self._nl_next, kp, half, self.vhat)
        self.nl_hat, self._nl_next = self._nl_next, self.nl_hat
        return self.uhat, self.vhat, self.u_phys, self.nl_hat

    def top(self) -> float:
        """max|u| of the current state, NaN if it holds one; overwrites work."""
        return float(np.max(np.abs(self.u_phys, out=self.work)))

    @functools.cached_property
    def _quiet_sums(self) -> tuple:
        """quiet()'s weights on the band's float64 view, (top half, inner box), and its scratch."""
        g, m = self.grid, self.size // 3
        inner = g.lattice(np.abs(g.k_axis) <= m // 2, np.logical_and, half=True)
        w = g.column_weight * (1.0 + 1.0j)  # on the real and the imaginary part alike
        top, box = (self._band_of(w * part).view(np.float64)
                    for part in (g.dealias_mask & ~inner, inner))
        return top, box, np.empty_like(top)

    def quiet(self) -> bool:
        """True if the top half of the kept band holds less than _TAIL_TOL of its mass.

        The band is |k| <= m = N//3 per axis, its top half m//2 < max over
        axes |k| <= m, and the mass sum w |uhat|^2, w the column weight; a
        zero band is not quiet.  Only the first call allocates.
        """
        top_w, box_w, squares = self._quiet_sums
        np.square(self.uhat.view(np.float64), out=squares)
        top, box = np.vdot(top_w, squares), np.vdot(box_w, squares)
        return top < _TAIL_TOL * (top + box)


def _reach(data: DataPair) -> int:
    """The largest |k| over axes among the nonzero u0 and u1 coefficients, 0 for zero data."""
    g = data.u0.grid
    nonzero = (data.u0.coeffs != 0.0) | (data.u1.coeffs != 0.0)
    return int(np.max(g.lattice(np.abs(g.k_axis), np.maximum, half=True)[nonzero], initial=0))


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


def _ended(config: SimConfig, t: float, top: float) -> bool:
    """True if a state at step time t whose max|u| is top ends the run.

    A nonlinear run ends past the threshold or on losing finiteness; a
    linear run must stay finite, else NumericalError.
    """
    if math.isfinite(top):
        return top > config.blowup_threshold
    if not config.nonlinear:
        raise NumericalError(f"linear run lost finiteness at t = {t:.6g}")
    return True


def check_start(configs: Sequence[SimConfig]) -> None:
    """The step-0 gate of run() and measure_lifespan() alone, stepping nothing.

    Each config's eps-scaled data goes through Stepper.start in turn; the
    first whose max|u| is not below its threshold is a ConfigError.
    """
    for config in configs:
        stepper = Stepper(config)
        with np.errstate(**_QUIET):
            stepper.start()
        _start_gate(config, stepper.top())


def run(config: SimConfig) -> Trajectory:
    """Integrate up to t_max or the first threshold crossing.

    Step n is at t = n * dt.  Step 0 is the eps-scaled data, every later
    step one Stepper.advance, and each goes through the same gate on
    max|u|.  At step 0 an amplitude not below the threshold, NaN and inf
    included, is a ConfigError.  Later on, nonlinear runs treat a
    non-finite state as blow-up at that step; linear runs must stay
    finite, anything else raises NumericalError.  The blow-up time is the
    first step time where max|u| exceeds the threshold, so it carries a
    +-dt detection granularity.  The crossing step is recorded off
    cadence, but takes no field snapshot.

    Field snapshots are appended to a Spool, an unlinked file on disk, so
    no more than one of them is resident; the trajectory holds the spool.
    Before step 0 the snapshots of a run that reaches t_max, the last step
    included if it is off cadence, must fit in the free space of the
    spool's file system, else ConfigError.
    """
    g = config.grid
    stepper = Stepper(config)
    bmask = _boundary_mask(g)
    vol = g.dx**g.dim
    n_steps = int(math.floor(config.t_max / config.dt + 1e-9))
    every = config.record_fields_every
    ftimes: list[float] = []
    spool = None
    if every:
        count = n_steps // every + 1 + (n_steps % every != 0)
        size = count * math.prod(g.shape) * 8
        spool = Spool(g.shape)
        disk = os.fstatvfs(spool.file.fileno())
        if size > disk.f_bavail * disk.f_frsize:
            raise ConfigError(
                f"cannot reserve {count} field snapshots ({size} bytes) for "
                f"t_max / dt / record_fields_every"
            )
    rows: list[tuple] = []
    boundary_ratio = 0.0
    outcome = "survived"
    t_blowup: float | None = None

    with np.errstate(**_QUIET):
        for n in range(n_steps + 1):
            uhat, _, u_phys, _ = stepper.advance() if n else stepper.start()
            t = n * config.dt
            top = stepper.top()
            if n == 0:
                _start_gate(config, top)
            if _ended(config, t, top):
                outcome, t_blowup = "blewup", t
                if not math.isfinite(top):
                    break
            if t_blowup is not None or n % config.record_every == 0 or n == n_steps:
                fld = SpectralField(g, stepper.half_spectrum(uhat))
                l2 = math.sqrt(np.sum(u_phys * u_phys) * vol)
                hneg = hdotneg_norm(fld, config.gamma, NORM_POLICY)
                rows.append((t, l2, top, hs_norm(fld, HS_ORDER), hneg))
                if top > 0.0:
                    ratio = float(np.max(np.abs(u_phys[bmask]))) / top
                    boundary_ratio = max(boundary_ratio, ratio)
            if t_blowup is not None:
                break
            if every and (n % every == 0 or n == n_steps):
                ftimes.append(t)
                spool.append(u_phys)

    return Trajectory(
        *(np.array(col) for col in zip(*rows)),  # times, l2, linf, hs, hdotneg
        outcome=outcome,
        t_blowup=t_blowup,
        boundary_ratio=boundary_ratio,
        boundary_flagged=boundary_ratio > _BOUNDARY_RTOL,
        steps_taken=n,
        field_times=np.array(ftimes) if every else None,
        field_spool=spool,
    )


@dataclass
class LifespanResult:
    """Blow-up time of one adapted run and its error bar."""

    t_blowup: float
    error: float
    censored: bool


def _step_level(config: SimConfig, top: float) -> int:
    """The k whose step dt / 2**k is at most _STEP_FRACTION * top^(-(p-1)/2).

    Worked in log space, since top**((p-1)/2) can overflow: max|u| = 0
    gives 0, a non-finite max|u| or exponent gives _MAX_LEVEL.
    """
    if top == 0.0:
        return 0
    k = math.log2(config.dt / _STEP_FRACTION) + 0.5 * (config.p - 1.0) * math.log2(top)
    if not k < _MAX_LEVEL:  # also inf and NaN
        return _MAX_LEVEL
    return math.ceil(k) if k > 0.0 else 0  # also -inf


def _coarsest_size(config: SimConfig) -> int:
    """The smallest power-of-two size whose kept band holds every nonzero data coefficient.

    The band is |k| <= size/3 on each axis; a data coefficient at the
    Nyquist mode leaves only the configured size.
    """
    g, reach = config.grid, _reach(config.data)
    size = 8
    # a Grid must resolve xi_max = pi size / (2L) > 1/2
    while size < g.size and (size // 3 < reach or math.pi * size <= g.half_length):
        size *= 2
    return size


def measure_lifespan(config: SimConfig) -> LifespanResult:
    """The first time one run's max|u| exceeds the threshold or stops being finite.

    The run steps at dt while it is quiet.  Before each step it takes the
    level k of _step_level and steps h = dt / 2**k, so that h stays a fixed
    fraction of the ODE blow-up time scale max|u|^(-(p-1)/2) as the
    solution grows.  The clock counts ticks of dt / 2**_MAX_LEVEL, so the
    blow-up time is exact and reproducible.  Step 0 passes the same gate
    as run()'s, on the configured grid.  The error bar is dt/2 + h for the
    step h that crossed: the detection granularity of that step plus half
    a quiet step for the scheme's own error.  A run that has not crossed
    by t_max, with run()'s tolerance of 1e-9 dt, is censored.

    The quiet phase steps on the coarsest grid that holds the solution.
    The grids are the power-of-two sizes from the smallest whose kept band
    holds every nonzero data coefficient up to the configured one, all of
    the same box and dt, and the run starts on the smallest with the data's
    coefficients (Stepper.take).  Before each step it moves to the next
    finer grid unless the stepper is quiet(): the top half of its kept band,
    n/6 < max over axes |k| <= n/3, holds less than _TAIL_TOL of the mass.
    It moves straight to the configured grid once _COARSE_MARGIN times its
    max|u| would take a step of level > 0 or pass the threshold, so every
    adapted step and the crossing are on the configured grid.
    """
    fine = Stepper(config)
    g = config.grid
    scale = 2**_MAX_LEVEL
    tick = config.dt / scale
    horizon = math.floor((config.t_max / config.dt + 1e-9) * scale)
    ticks = 0
    with np.errstate(**_QUIET):
        fine.start()
        top = fine.top()
        _start_gate(config, top)
        stepper, size = fine, _coarsest_size(config)
        while True:
            if stepper is not fine:
                edge = _COARSE_MARGIN * top
                if _step_level(config, edge) > 0 or not edge < config.blowup_threshold:
                    size = fine.size
                elif not stepper.quiet():
                    size = 2 * stepper.size
            if size != stepper.size:
                if size == fine.size:
                    held = fine
                else:
                    held = Stepper(config, Grid(g.dim, size, g.half_length))
                held.take(stepper)
                stepper, top = held, held.top()
                continue
            if ticks and _ended(config, ticks * tick, top):
                return LifespanResult(
                    t_blowup=ticks * tick, error=config.dt / 2.0 + config.dt / 2**level,
                    censored=False,
                )
            level = _step_level(config, top)
            ticks += scale >> level
            if ticks > horizon:
                return LifespanResult(t_blowup=math.inf, error=math.nan, censored=True)
            stepper.advance(level)
            top = stepper.top()
