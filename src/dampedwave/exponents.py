"""Exponent thresholds, region classification, and lifespan predictions.

Pure arithmetic on (n, gamma, p, s): no grids, no transforms.  The
formulas encode where small-data solutions with data measured in
H^s cap Hdot^{-gamma} are known to exist globally, where they must blow
up, and how fast the maximal existence time grows as the data amplitude
eps shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "fujita",
    "crit",
    "conjugate",
    "crit_conjugate",
    "thm_thresholds",
    "GammaPThresholds",
    "classify",
    "RegionVerdict",
    "lifespan_exponents",
    "LifespanExponents",
    "atlas_raster",
]

VERDICTS = (
    "GlobalLargeGamma",
    "GlobalSupercritical",
    "GlobalCritical",
    "BlowupSubcritical",
    "BlowupSubfujita",
    "BlowupSubcriticalSharp",
    "Unknown",
)


def _check_n(n: int) -> None:
    if n != int(n) or not (1 <= n <= 6):
        raise ConfigError(f"dimension must be an integer in [1, 6], got {n}")


def fujita(n: int) -> float:
    """Heat-flow threshold exponent 1 + 2/n."""
    _check_n(n)
    return 1.0 + 2.0 / n


def crit(n: int, gamma: float) -> float:
    """Existence/blow-up threshold 1 + 4/(n + 2 gamma) for weighted data.

    Collapses to the Fujita exponent at gamma = n/2, the largest weight at
    which the threshold is meaningful.
    """
    _check_n(n)
    if not (gamma > 0.0):
        raise ConfigError(f"gamma must be positive, got {gamma}")
    return 1.0 + 4.0 / (n + 2.0 * gamma)


def conjugate(p: float) -> float:
    """Holder conjugate p / (p - 1)."""
    if not (p > 1.0):
        raise ConfigError(f"need p > 1, got {p}")
    return p / (p - 1.0)


def crit_conjugate(n: int, gamma: float) -> float:
    """Conjugate of the threshold exponent, 1 + n/4 + gamma/2."""
    _check_n(n)
    if not (gamma > 0.0):
        raise ConfigError(f"gamma must be positive, got {gamma}")
    return 1.0 + n / 4.0 + gamma / 2.0


@dataclass(frozen=True)
class GammaPThresholds:
    """Smallest weight and exponent the high-weight global route accepts."""

    gamma_min: float
    p_min: float


def thm_thresholds(n: int) -> GammaPThresholds:
    """Entry thresholds of the high-weight global-existence route.

    gamma_min = min(n/2, (sqrt(n^2 + 16 n) - n)/4) and p_min is the larger
    of the Fujita exponent and (sqrt(n^2 + 16 n) + n)/(2 n); the two
    expressions meet where the route's interpolation constraints bind.
    """
    _check_n(n)
    root = math.sqrt(n * n + 16.0 * n)
    gamma_min = min(n / 2.0, (root - n) / 4.0)
    p_min = max(1.0 + 2.0 / n, (root + n) / (2.0 * n))
    return GammaPThresholds(gamma_min=gamma_min, p_min=p_min)


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one (n, gamma, p, s) point.

    verdict is the strongest applicable statement; blowup_tags lists every
    blow-up mechanism that applies, even when a weaker one is shadowed.
    """

    verdict: str
    blowup_tags: tuple[str, ...] = ()


def _supercritical_s_ok(n: int, p: float, s: float) -> bool:
    # nonlinearity must act on H^s: below-2s dimensions are unconstrained,
    # above them p is capped by the Sobolev embedding exponent
    return n <= 2.0 * s or p <= n / (n - 2.0 * s)


def _global_large_gamma(n: int, gamma: float, p: float, s: float) -> bool:
    th = thm_thresholds(n)
    return gamma >= th.gamma_min and p > th.p_min and _supercritical_s_ok(n, p, s)


def classify(n: int, gamma: float, p: float, s: float) -> RegionVerdict:
    """Strongest known statement about small-data solutions at this point.

    Precedence: high-weight global route, then supercritical global route
    (gamma < n/2), then the critical-line global result, then blow-up.
    Points proven neither global nor blowing up return Unknown.
    """
    _check_n(n)
    if not (gamma > 0.0):
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if not (p > 1.0):
        raise ConfigError(f"need p > 1, got {p}")
    if not (0.0 < s <= 1.0):
        raise ConfigError(f"need 0 < s <= 1, got {s}")

    pc = crit(n, gamma)
    pf = fujita(n)
    low_gamma = gamma < n / 2.0

    tags: list[str] = []
    if p < pc:
        tags.append("BlowupSubcritical")
    if p < pf:
        tags.append("BlowupSubfujita")
    if low_gamma and p < pc:
        tags.append("BlowupSubcriticalSharp")

    if _global_large_gamma(n, gamma, p, s):
        return RegionVerdict("GlobalLargeGamma", tuple(tags))
    if (
        low_gamma
        and p > pc
        and p >= 1.0 + 2.0 * gamma / n
        and _supercritical_s_ok(n, p, s)
    ):
        return RegionVerdict("GlobalSupercritical", tuple(tags))
    if low_gamma and p == pc:
        return RegionVerdict("GlobalCritical", tuple(tags))
    if tags:
        return RegionVerdict(tags[0], tuple(tags))
    return RegionVerdict("Unknown", tuple(tags))


@dataclass(frozen=True)
class LifespanExponents:
    """Predicted lifespan scalings T(eps) ~ eps^{-a}.

    a_subcritical comes from the weighted-data mechanism (finite below the
    threshold exponent), a_fujita from the unweighted mechanism (finite
    below the Fujita exponent); a_combined takes whichever mechanism gives
    the stronger (smaller) upper bound, switching at switch_p.
    """

    a_subcritical: float | None
    a_fujita: float | None
    a_combined: float | None
    switch_p: float


def lifespan_exponents(n: int, gamma: float, p: float) -> LifespanExponents:
    """Lifespan exponents at (n, gamma, p); None where a mechanism is off.

    a_subcritical = 1 / (p' - 1 - gamma/2 - n/4) for p below the weighted
    threshold, a_fujita = p / (p' - 1 - n/2) for p below the Fujita
    exponent.  The combined prediction follows the smaller exponent; the
    two agree exactly at switch_p = (4 + 2 n)/(n + 2 gamma).
    """
    _check_n(n)
    if not (gamma > 0.0):
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if not (p > 1.0):
        raise ConfigError(f"need p > 1, got {p}")
    pp = conjugate(p)
    pc = crit(n, gamma)
    pf = fujita(n)
    switch_p = (4.0 + 2.0 * n) / (n + 2.0 * gamma)

    a_sub = None
    if p < pc:
        denom = pp - 1.0 - gamma / 2.0 - n / 4.0
        # p < crit(n, gamma) is exactly denom > 0
        a_sub = 1.0 / denom
    a_fuj = None
    if p < pf:
        a_fuj = p / (pp - 1.0 - n / 2.0)

    if a_sub is not None and a_fuj is not None:
        a_comb = min(a_sub, a_fuj)
    else:
        a_comb = a_sub if a_sub is not None else a_fuj
    return LifespanExponents(
        a_subcritical=a_sub, a_fujita=a_fuj, a_combined=a_comb, switch_p=switch_p
    )


def atlas_raster(
    n: int,
    s: float,
    gammas: list[float],
    ps: list[float],
) -> list[tuple[float, float, str]]:
    """Classify a rectangular (gamma, p) raster; rows ordered as nested loops."""
    rows = []
    for gamma in gammas:
        for p in ps:
            rows.append((gamma, p, classify(n, gamma, p, s).verdict))
    return rows
