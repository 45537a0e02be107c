"""Fundamental-solution multiplier of the damped wave operator.

For each frequency the mode amplitude solves w'' + w' + |xi|^2 w = 0.  The
fundamental solution K (zero value, unit velocity at t = 0) has the explicit
multiplier evaluated branchwise in D = 1/4 - |xi|^2; its time derivative K'
propagates the value component.  The solution of the linear equation with
data (f, g) is

    uhat(t)   = kprimehat(t) fhat + khat(t) (fhat + ghat)
    d_t uhat  = kprimehat(t) ghat - |xi|^2 khat(t) fhat

which is what propagate_linear computes.  Identities khat(0) = 0,
kprimehat(0) = 1 and the mode equation hold to roundoff; |khat(t)| <= t
everywhere.  khat_kprime is accel.khat_kprime itself, the same function
the solver steps with.
"""

from __future__ import annotations

import numpy as np

from .accel import khat_kprime
from .errors import ConfigError
from .grid import Grid, SpectralField

__all__ = ["khat", "kprimehat", "khat_kprime", "propagate_linear"]


def _one_of(which: int, t: float, xi2):
    """khat_kprime(t, xi2)[which]; scalar in, scalar out."""
    scalar = np.isscalar(xi2)
    out = khat_kprime(t, np.atleast_1d(np.asarray(xi2, dtype=np.float64)))[which]
    return float(out[0]) if scalar else out.reshape(np.shape(xi2))


def khat(t: float, xi2):
    """K multiplier at time t; scalar in, scalar out."""
    return _one_of(0, t, xi2)


def kprimehat(t: float, xi2):
    """d_t K multiplier at time t; scalar in, scalar out."""
    return _one_of(1, t, xi2)


def propagate_linear(
    f: SpectralField, g: SpectralField, t: float
) -> tuple[SpectralField, SpectralField]:
    """Evolve linear data (value f, velocity g) by time t exactly.

    Returns (u(t), d_t u(t)) as spectral fields on the common grid.
    """
    if f.grid != g.grid:
        raise ConfigError("value and velocity fields live on different grids")
    grid: Grid = f.grid
    kh, kp = khat_kprime(t, grid.xi2)
    uhat = kp * f.coeffs + kh * (f.coeffs + g.coeffs)
    vhat = kp * g.coeffs - (grid.xi2 * kh) * f.coeffs
    return SpectralField(grid, uhat), SpectralField(grid, vhat)
