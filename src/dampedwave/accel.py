"""Hot elementwise kernels of the solver step, in NumPy.

The dispersion multiplier is evaluated piecewise in D = 1/4 - |xi|^2:

    D >  delta:  khat = e^{-t/2} sinh(t sqrt(D)) / sqrt(D)
                      = (e^{t(sqrt(D)-1/2)} - e^{-t(sqrt(D)+1/2)}) / (2 sqrt(D))
    D < -delta:  khat = e^{-t/2} sin(t sqrt(-D)) / sqrt(-D)
    |D| <= delta: khat = e^{-t/2} sum_k D^k t^{2k+1} / (2k+1)!

and the time derivative is kprimehat = -khat/2 + e^{-t/2} cosh(t sqrt(D))
(cos in the oscillatory branch, even series in the window).  The shifted
exponential form never overflows because sqrt(D) <= 1/2 on the real lattice.
khat_kprime is the multiplier's one entry point, dispersion's as well.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["DELTA", "khat_kprime", "abs_pow", "predict_combine", "correct_combine"]

DELTA = 1e-4  # series window half-width in D
_SERIES_MAX_TERMS = 256
_SERIES_RTOL = 1e-17


def khat_kprime(t: float, xi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion multiplier and its time derivative at time t >= 0.

    xi2 is an array of squared frequencies; returns float64 arrays of the
    same shape.  An integer t is taken as a float.
    """
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    t = float(t)
    xi2 = np.ascontiguousarray(xi2, dtype=np.float64)
    D = 0.25 - xi2
    kh = np.empty_like(D)
    ct = np.empty_like(D)  # e^{-t/2} cosh-like companion term

    emt = np.exp(-0.5 * t)

    pos = D > DELTA
    if pos.any():
        q = np.sqrt(D[pos])
        ea = np.exp(t * (q - 0.5))
        eb = np.exp(-t * (q + 0.5))
        kh[pos] = (ea - eb) / (2.0 * q)
        ct[pos] = 0.5 * (ea + eb)

    neg = D < -DELTA
    if neg.any():
        q = np.sqrt(-D[neg])
        kh[neg] = emt * np.sin(t * q) / q
        ct[neg] = emt * np.cos(t * q)

    mid = ~(pos | neg)
    if mid.any():
        Dm = D[mid]
        s_odd = np.full(Dm.shape, t)   # sum D^k t^{2k+1}/(2k+1)!
        s_even = np.ones(Dm.shape)     # sum D^k t^{2k}/(2k)!
        term_odd = np.full(Dm.shape, t)
        term_even = np.ones(Dm.shape)
        tt = t * t
        for k in range(1, _SERIES_MAX_TERMS):
            term_even = term_even * Dm * tt / ((2 * k - 1) * (2 * k))
            term_odd = term_odd * Dm * tt / ((2 * k) * (2 * k + 1))
            s_even += term_even
            s_odd += term_odd
            odd_done = np.max(np.abs(term_odd)) < _SERIES_RTOL * max(
                float(np.max(np.abs(s_odd))), 1e-300
            )
            even_done = np.max(np.abs(term_even)) < _SERIES_RTOL * max(
                float(np.max(np.abs(s_even))), 1e-300
            )
            if odd_done and even_done:
                break
        kh[mid] = emt * s_odd
        ct[mid] = emt * s_even

    return kh, -0.5 * kh + ct


def abs_pow(u: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """|u|^p elementwise for real u, written into out and returned."""
    if p == 2.0:
        # u u is |u| |u| bit for bit: rounding ignores the signs
        return np.multiply(u, u, out=out)
    a = np.abs(u, out=out)
    if p == 3.0:
        # (|u| u) u: the signs cancel, and rounding ignores them, so this is
        # |u| |u| |u| bit for bit without a second buffer
        np.multiply(a, u, out=a)
        return np.multiply(a, u, out=a)
    return np.power(a, p, out=a)


def predict_combine(
    uhat: np.ndarray,
    vhat: np.ndarray,
    nlhat: np.ndarray,
    kh: np.ndarray,
    kp: np.ndarray,
    xi2_kh: np.ndarray,
    half_dt_kh: np.ndarray,
    pv: np.ndarray,
    work: np.ndarray,
) -> None:
    """One fused linear-propagation-plus-source combine, in place.

    Writes the linear part of vhat at t+dt into pv, then overwrites uhat
    with uhat at t+dt; work is scratch of the same shape.  The source term
    carries the trapezoid weight dt/2 with the kernel evaluated inside the
    quadrature; the khat(0) = 0 endpoint drops out.  xi2_kh = xi2 * kh and
    half_dt_kh = (dt/2) * kh are the step-invariant products, built once.
    Operand order is that of
        pv   = kp * vhat - xi2_kh * uhat
        unew = kp * uhat + kh * (uhat + vhat) + half_dt_kh * nlhat
    """
    np.multiply(kp, vhat, out=pv)
    np.subtract(pv, np.multiply(xi2_kh, uhat, out=work), out=pv)
    np.multiply(kh, np.add(uhat, vhat, out=work), out=work)
    np.add(np.multiply(kp, uhat, out=uhat), work, out=uhat)
    np.add(uhat, np.multiply(half_dt_kh, nlhat, out=work), out=uhat)


def correct_combine(
    pv: np.ndarray,
    nlhat_n: np.ndarray,
    nlhat_p: np.ndarray,
    kp: np.ndarray,
    half_dt: float,
    out: np.ndarray,
) -> None:
    """Trapezoid source update for the velocity component, into out.

    out = pv + half_dt * (kp * nlhat_n + nlhat_p); out must not be an input.
    """
    np.add(np.multiply(kp, nlhat_n, out=out), nlhat_p, out=out)
    np.add(pv, np.multiply(half_dt, out, out=out), out=out)
