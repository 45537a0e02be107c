"""Hot elementwise kernels of the solver step, in NumPy.

The dispersion multiplier is evaluated piecewise in D = 1/4 - |xi|^2,
with q = sqrt(|D|):

    D >  delta:       khat = (e^{t(q-1/2)} - e^{-t(q+1/2)}) / (2q)
    0 <= D <= delta:  khat = e^{t(q-1/2)} (1 - e^{-2tq}) / (2q)   (t e^{-t/2} at q = 0)
    D <  0:           khat = e^{-t/2} sin(tq) / q

which is e^{-t/2} sinh(tq) / q on D >= 0.  The time derivative is
kprimehat = -khat/2 + e^{-t/2} cosh(tq) (cos(tq) where D < 0).  Near
D = 0 the factor 1 - e^{-2tq} is taken by expm1, so nothing cancels; the
shifted exponentials never overflow because q <= 1/2 on the real lattice.
Each element depends only on t and its own xi2.  khat_kprime is the
multiplier's one entry point, dispersion's as well.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["DELTA", "khat_kprime", "abs_pow", "predict_combine", "correct_combine"]

DELTA = 1e-4  # below this D, e^{t(q-1/2)} - e^{-t(q+1/2)} would cancel


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

    neg = D < 0.0
    if neg.any():
        q = np.sqrt(-D[neg])
        kh[neg] = emt * np.sin(t * q) / q
        ct[neg] = emt * np.cos(t * q)

    mid = ~(pos | neg)
    if mid.any():
        q = np.sqrt(D[mid])
        ea = np.exp(t * (q - 0.5))
        lost = -np.expm1(-2.0 * t * q)  # 1 - e^{-2tq}, so ea - eb = ea * lost
        kh[mid] = np.divide(ea * lost, 2.0 * q, out=np.full_like(q, t * emt), where=q != 0.0)
        ct[mid] = ea - 0.5 * ea * lost

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
