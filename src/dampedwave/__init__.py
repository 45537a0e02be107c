"""Spectral laboratory for the semilinear damped wave equation.

The equation studied is

    u_tt + u_t - Laplace(u) = |u|^p,   u(0) = eps*u0,  u_t(0) = eps*u1,

solved in Fourier space through its explicit fundamental-solution multiplier
and the mild (Duhamel) formula.  The package provides the periodic spectral
grid, the dispersion kernel, Sobolev-type norms with negative-order weights,
singular spectral data profiles, certified bump test functions, a
second-order exponential time stepper with blow-up detection, the exponent
atlas (critical curves, thresholds and lifespan powers), a weak-form
inequality checker, and a reproducible experiment harness with a CLI.
"""

from .grid import Grid, SpectralField, forward_transform, inverse_transform
from .dispersion import khat, kprimehat, propagate_linear

__all__ = [
    "Grid",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "khat",
    "kprimehat",
    "propagate_linear",
]

__version__ = "0.1.0"
