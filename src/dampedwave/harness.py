"""Experiment drivers with deterministic, hash-stamped file outputs.

Each run_* function takes a plain config dict (usually parsed from JSON),
validates it strictly (unknown keys are errors), executes the experiment,
and returns a result dict with the resolved config echo, rows, a summary,
an optional check verdict and the summary lines the CLI prints.  A runner
declares each config key once, in a spec that gives its kind and default.
A kind converts its value, and resolves the grid, the profile and the
check section; the echo is that resolved config plus the values the run
derives from it.
emit_outputs writes the result as CSV (rows), JSON (everything), and
optionally a field archive; the rows define the CSV header, which is the
first row's keys in order.

Outputs are byte-stable: floats are serialised by repr, rows are ordered,
no timestamps are written, files land via atomic replace, and every row
carries a short hash of the resolved config so mixed-up files can be
traced to their parameters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import zipfile

import numpy as np

from . import exponents, testfunc
from .bump import check_conditions, mollifier_samples
from .bump import CERTIFY_TOL, RadialBump, required_power, self_convolve
from .dispersion import propagate_linear
from .errors import ConfigError
from .grid import Grid, SpectralField, forward_transform
from .norms import hdotneg_norm, hs_norm, lp_norm, seminorm_hs
from .profiles import (
    DataPair,
    assemble_pair,
    laplacian_gaussian,
    log_profile,
    power_profile,
)
from .solver import DEALIAS, HS_ORDER, NORM_POLICY
from .solver import SimConfig, Spool, check_start, measure_lifespan, run

__all__ = [
    "SCHEMA_VERSION",
    "config_hash",
    "load_config",
    "FitResult",
    "fit_powerlaw",
    "run_decay",
    "run_lifespan",
    "run_simulate",
    "run_atlas",
    "run_classify",
    "run_bump_check",
    "run_testfunc",
    "run_sweep",
    "make_out_dir",
    "emit_outputs",
    "RUNNERS",
]

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------
# config plumbing


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    """Short stable fingerprint of a resolved config dict."""
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:12]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _flag(value) -> bool:
    """A JSON boolean; strings such as "no" are not read as truth values."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _int(value) -> int:
    """An integer; 2.0 is taken as 2, but 1.7 and true are errors, not 1."""
    out = int(value)
    if out != value or isinstance(value, bool):
        raise ValueError("expected an integer")
    return out


def _real(value) -> float:
    """A finite number; NaN, Infinity and true are errors, not values."""
    out = float(value)
    if not math.isfinite(out) or isinstance(value, bool):
        raise ValueError("expected a finite number")
    return out


def _floats(values) -> list:
    return [_real(v) for v in values]


def _amplitudes(values) -> list:
    """lifespan's eps values: at least 3 for the fit, no amplitude twice."""
    amplitudes = _floats(values)
    if len(set(amplitudes)) < max(3, len(amplitudes)):
        raise ValueError("expected 3 or more distinct amplitudes")
    return amplitudes


def _time_points(value) -> int:
    """testfunc's trapezoid points in time: an integer >= 2."""
    points = _int(value)
    if points < 2:
        raise ValueError("expected an integer >= 2")
    return points


def _radii(values) -> list:
    """testfunc's radii: at least one, each with a finite square, its window's end."""
    radii = _floats(values)
    if not radii or not all(r * r < math.inf for r in radii):
        raise ValueError("expected one or more radii with finite squares")
    return radii


def _powers(values) -> list:
    """bump-check's powers of the base: at least one, each an integer >= 1."""
    powers = [_int(v) for v in values]
    if not powers or min(powers) < 1:
        raise ValueError("expected one or more integers >= 1")
    return powers


def _text(value) -> str:
    """A JSON string; null or a number is an error, not the text of its repr."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _outcome(value) -> str:
    if value not in ("survived", "blewup"):
        raise ValueError("expected 'survived' or 'blewup'")
    return value


# a spec default marking a key that has no default and must be given
_REQUIRED = object()


def _take(cfg: dict, where: str, spec: dict) -> dict:
    """cfg checked against spec, which maps each key to (kind, default).

    Absent keys take their default, unless it is _REQUIRED.  Each value is
    converted by its kind (kind None keeps it as given, a dict kind is the
    spec of a nested section); a rejected value is a ConfigError naming its
    key, and null is kept where the default is None.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object, got {type(cfg).__name__}")
    unknown = set(cfg) - set(spec)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [k for k, (_, default) in spec.items() if default is _REQUIRED and k not in cfg]
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    out = {k: default for k, (_, default) in spec.items() if default is not _REQUIRED}
    out.update(cfg)
    for key, (kind, default) in spec.items():
        value = out[key]
        if kind is None or (value is None and default is None):
            continue
        try:
            if isinstance(kind, dict):
                out[key] = _take(value, f"{where}: {key!r}", kind)
            else:
                out[key] = kind(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad value {value!r} for {key!r}: {exc}") from None
    return out


def build_grid(cfg: dict) -> Grid:
    c = _take(cfg, "grid", {
        "dim": (_int, _REQUIRED), "size": (_int, _REQUIRED), "half_length": (_real, _REQUIRED),
    })
    return Grid(c["dim"], c["size"], c["half_length"])


_RADIAL = {"gamma": (_real, _REQUIRED), "r0": (_real, 0.5), "scale": (_real, 1.0)}
_PROFILE_KEYS = {
    "power": _RADIAL,
    "log": _RADIAL,
    "laplacian_gaussian": {"k": (_int, _REQUIRED), "scale": (_real, 1.0)},
}
_PROFILES = {"power": power_profile, "log": log_profile, "laplacian_gaussian": laplacian_gaussian}


def _profile(cfg) -> dict:
    """A profile section resolved: its family and that family's keys."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("profile config needs to be an object with a 'family' key")
    family = cfg["family"]
    if not isinstance(family, str) or family not in _PROFILE_KEYS:
        raise ConfigError(
            f"unknown profile family {family!r}; expected one of "
            f"{sorted(_PROFILE_KEYS)}"
        )
    keys = {k: v for k, v in cfg.items() if k != "family"}
    return {"family": family, **_take(keys, f"profile[{family}]", _PROFILE_KEYS[family])}


def build_profile(grid: Grid, cfg: dict) -> tuple[SpectralField, dict]:
    """Build a profile field; returns it plus the fully resolved sub-config."""
    c = _profile(cfg)
    keys = {k: v for k, v in c.items() if k != "family"}
    with np.errstate(over="ignore", invalid="ignore"):
        fld = _PROFILES[c["family"]](grid, **keys)
    if not np.all(np.isfinite(fld.coeffs)):
        raise ConfigError(f"profile {c['family']!r} has non-finite coefficients for {keys}")
    return fld, c


def build_pair(grid: Grid, profile_cfg: dict, eps: float) -> tuple[DataPair, dict]:
    fld, resolved = build_profile(grid, profile_cfg)
    return assemble_pair(fld, eps), resolved


# ---------------------------------------------------------------------
# fitting


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Least-squares power law y = C x^slope, fitted in log-log."""

    slope: float
    intercept: float
    r2: float
    count: int


def fit_powerlaw(x, y) -> FitResult:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ConfigError(f"power-law fit needs >= 3 paired points, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ConfigError("power-law fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    lx0 = lx - lx.mean()
    slope = float(np.dot(lx0, ly - ly.mean()) / np.dot(lx0, lx0))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    sst = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 - float(np.dot(resid, resid)) / sst if sst > 0.0 else 1.0
    return FitResult(slope, intercept, r2, int(x.size))


# ---------------------------------------------------------------------
# experiment runners


def _result(kind: str, c: dict, rows, summary, check, arrays=None, lines=(), **resolved):
    """A runner's result; lines are its summary for the terminal.

    The config echo is c, the runner's resolved config, plus the derived
    values in resolved, with a Grid written as its fields and a null check
    dropped.  rows is a non-empty list of dicts in one key order, the CSV
    header's.
    """
    config = {
        k: dataclasses.asdict(v) if isinstance(v, Grid) else v
        for k, v in {"kind": kind, **c, **resolved}.items()
        if not (k == "check" and v is None)
    }
    return {
        "kind": kind,
        "config": config,
        "config_hash": config_hash(config),
        "rows": rows,
        "summary": summary,
        "check": check,
        "arrays": arrays,
        "lines": list(lines),
    }


def _ladder_times(cfg) -> list[float]:
    if isinstance(cfg, list):
        times = [_real(t) for t in cfg]
        if len(times) < 3 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("times must be >= 3 strictly increasing values")
        return times
    c = _take(cfg, "times", {
        "start": (_real, _REQUIRED), "ratio": (_real, _REQUIRED), "count": (_int, _REQUIRED),
    })
    start, ratio, count = c["start"], c["ratio"], c["count"]
    if start <= 0.0 or ratio <= 1.0 or count < 3:
        raise ConfigError("times ladder needs start > 0, ratio > 1, count >= 3")
    return [start * ratio**j for j in range(count)]


def _axis(cfg) -> dict:
    """One atlas axis: count points from min to max."""
    a = _take(cfg, "atlas axis", {
        "min": (_real, _REQUIRED), "max": (_real, _REQUIRED), "count": (_int, _REQUIRED),
    })
    if a["count"] < 1:
        raise ValueError(f"count must be >= 1, got {a['count']}")
    return a


def run_decay(cfg: dict) -> dict:
    """Norm decay of the linear flow from a low-frequency profile.

    Propagates u0 = u1 = profile exactly to each ladder time and fits
    power laws to the L2 norm and the order-s homogeneous seminorm.  The
    expected slopes are -gamma/2 and -(s + gamma)/2.
    """
    c = _take(cfg, "decay config", {
        "grid": (build_grid, _REQUIRED), "profile": (_profile, _REQUIRED),
        "times": (_ladder_times, _REQUIRED), "s": (_real, 1.0),
        "check": ({"l2_tol": (_real, 0.05), "seminorm_tol": (_real, 0.1)}, None),
    })
    cc = c["check"]
    profile, _ = build_profile(c["grid"], c["profile"])
    s = c["s"]
    gamma = float(c["profile"].get("gamma", 0.5))

    rows = []
    for t in c["times"]:
        uh, _ = propagate_linear(profile, profile, t)
        rows.append(
            {
                "t": t,
                "l2": lp_norm(uh, 2.0),
                "linf": lp_norm(uh, math.inf),
                "hs": hs_norm(uh, s),
                "hdotneg": hdotneg_norm(uh, gamma, NORM_POLICY),
                "seminorm": seminorm_hs(uh, s),
            }
        )

    tarr = [r["t"] for r in rows]
    l2_fit = fit_powerlaw(tarr, [r["l2"] for r in rows])
    semi_fit = fit_powerlaw(tarr, [r["seminorm"] for r in rows])
    expected_l2 = -gamma / 2.0
    expected_semi = -(s + gamma) / 2.0
    summary = {
        "l2_fit": dataclasses.asdict(l2_fit),
        "seminorm_fit": dataclasses.asdict(semi_fit),
        "expected_l2_slope": expected_l2,
        "expected_seminorm_slope": expected_semi,
        "hdotneg_first": rows[0]["hdotneg"],
        "hdotneg_last": rows[-1]["hdotneg"],
    }

    check = None
    if cc is not None:
        ok_l2 = abs(l2_fit.slope - expected_l2) <= cc["l2_tol"]
        ok_semi = abs(semi_fit.slope - expected_semi) <= cc["seminorm_tol"]
        check = {
            "passed": bool(ok_l2 and ok_semi),
            "details": {
                "l2_slope": l2_fit.slope,
                "l2_band": [expected_l2 - cc["l2_tol"], expected_l2 + cc["l2_tol"]],
                "seminorm_slope": semi_fit.slope,
                "seminorm_band": [
                    expected_semi - cc["seminorm_tol"],
                    expected_semi + cc["seminorm_tol"],
                ],
            },
        }

    lines = [
        f"l2 slope {l2_fit.slope:.4f} (expected {expected_l2:.4f}), "
        f"seminorm slope {semi_fit.slope:.4f} (expected {expected_semi:.4f})"
    ]
    return _result("decay", c, rows, summary, check, lines=lines,
                   weight_gamma=gamma, policy=NORM_POLICY)


def run_lifespan(cfg: dict) -> dict:
    """Blow-up time versus data amplitude, with power-law fit.

    Measures each eps's threshold-crossing time with one run of the full
    nonlinear solver, whose step halves as max|u| grows (see
    solver.measure_lifespan).  Censored rows (survived the horizon) are
    excluded from the fit and reported.  The members run in
    one worker process per CPU this process may use (see _map), at most
    one per member; inside a pool worker they run one after another.  Every
    member's data passes the solver's step-0 gate here, before any member
    is stepped or any worker starts.
    """
    c = _take(cfg, "lifespan config", {
        "grid": (build_grid, _REQUIRED), "profile": (_profile, _REQUIRED),
        "p": (_real, _REQUIRED), "eps_values": (_amplitudes, _REQUIRED), "dt": (_real, _REQUIRED),
        "t_cap": (_real, _REQUIRED), "blowup_threshold": (_real, 1e6),
        "check": ({
            "rel_tol": (_real, None), "max_slope": (_real, None), "min_uncensored": (_int, 3),
        }, None),
    })
    cc = c["check"]
    profile, _ = build_profile(c["grid"], c["profile"])
    p = c["p"]
    eps_values = c["eps_values"]
    gamma = c["profile"].get("gamma")
    predicted = (
        dataclasses.asdict(exponents.lifespan_exponents(c["grid"].dim, float(gamma), p))
        if gamma is not None
        else None
    )
    target = predicted["a_combined"] if predicted else None
    if cc is not None and cc["rel_tol"] is not None and target is None:
        raise ConfigError(
            "rel_tol check needs a profile gamma and a predicted lifespan exponent"
        )

    # smallest amplitude first: it lives longest, so it starts at once
    ladder = sorted(eps_values)
    sims = [
        SimConfig(data=assemble_pair(profile, eps), p=p, dt=c["dt"], t_max=c["t_cap"],
                  blowup_threshold=c["blowup_threshold"])
        for eps in ladder
    ]
    check_start(sims)
    measured = dict(zip(ladder, _map(measure_lifespan, sims, _ladder_workers())))
    rows = []
    for eps in eps_values:
        res = measured[eps]
        rows.append({"eps": eps, "t_b": res.t_blowup, "t_b_err": res.error,
                     "censored": res.censored})

    fitted = [r for r in rows if not r["censored"]]
    summary: dict = {
        "n_censored": sum(1 for r in rows if r["censored"]),
        "predicted": predicted,
    }
    fit = None
    if len(fitted) >= 3:
        fit = fit_powerlaw(
            [1.0 / r["eps"] for r in fitted], [r["t_b"] for r in fitted]
        )
        summary["fit"] = dataclasses.asdict(fit)
        summary["measured_exponent"] = fit.slope

    check = None
    if cc is not None:
        details: dict = {"n_fitted": len(fitted)}
        passed = len(fitted) >= cc["min_uncensored"] and fit is not None
        if passed and cc["rel_tol"] is not None:
            passed = abs(fit.slope - target) <= cc["rel_tol"] * abs(target)
            details.update(measured=fit.slope, target=target, rel_tol=cc["rel_tol"])
        if passed and cc["max_slope"] is not None:
            passed = fit.slope <= cc["max_slope"]
            details.update(measured=fit.slope, max_slope=cc["max_slope"])
        check = {"passed": bool(passed), "details": details}

    shown = f"{fit.slope:.4f}" if fit is not None else "n/a"
    lines = [
        f"lifespan exponent measured={shown} predicted={target} "
        f"censored={summary['n_censored']}"
    ]
    return _result("lifespan", c, rows, summary, check, lines=lines, dealias=DEALIAS)


def run_simulate(cfg: dict) -> dict:
    """One nonlinear (or linear) run with recorded norms and fields."""
    c = _take(cfg, "simulate config", {
        "grid": (build_grid, _REQUIRED), "profile": (_profile, _REQUIRED),
        "eps": (_real, _REQUIRED), "p": (_real, _REQUIRED), "dt": (_real, _REQUIRED),
        "t_max": (_real, _REQUIRED), "blowup_threshold": (_real, 1e6),
        "nonlinear": (_flag, True), "record_every": (_int, 1), "record_fields_every": (_int, 0),
        "check": ({
            "expect_outcome": (_outcome, None), "l2_decreasing_factor": (_real, None),
        }, None),
    })
    cc = c["check"]
    grid = c["grid"]
    pair, _ = build_pair(grid, c["profile"], c["eps"])
    gamma = float(c["profile"].get("gamma", 0.5))
    # the keys that are SimConfig fields of the same name
    sim_keys = ("p", "dt", "t_max", "blowup_threshold", "nonlinear",
                "record_every", "record_fields_every")
    sim = SimConfig(data=pair, gamma=gamma, **{k: c[k] for k in sim_keys})

    traj = run(sim)
    rows = [
        {
            "t": float(traj.times[i]),
            "l2": float(traj.l2[i]),
            "linf": float(traj.linf[i]),
            "hs": float(traj.hs[i]),
            "hdotneg": float(traj.hdotneg[i]),
        }
        for i in range(traj.times.size)
    ]
    summary = {
        "outcome": traj.outcome,
        "t_blowup": traj.t_blowup,
        "steps_taken": traj.steps_taken,
        "boundary_ratio": traj.boundary_ratio,
        "boundary_flagged": traj.boundary_flagged,
    }

    arrays = None
    if traj.field_spool is not None:
        arrays = {
            "times": traj.field_times,
            "snapshots": traj.field_spool,
            "u0_coeffs": pair.u0.coeffs,
            "u1_coeffs": pair.u1.coeffs,
            "eps": np.array(pair.eps),
            "p": np.array(sim.p),
            "dim": np.array(grid.dim),
            "size": np.array(grid.size),
            "half_length": np.array(grid.half_length),
        }

    check = None
    if cc is not None:
        passed = True
        details: dict = {"outcome": traj.outcome}
        if cc["expect_outcome"] is not None:
            passed = passed and traj.outcome == cc["expect_outcome"]
        if cc["l2_decreasing_factor"] is not None:
            factor = float(traj.l2[-1]) / float(traj.l2[0])
            details["l2_last_over_first"] = factor
            passed = passed and factor <= cc["l2_decreasing_factor"]
        check = {"passed": bool(passed), "details": details}

    tail = f" t_blowup={traj.t_blowup:.6g}" if traj.t_blowup is not None else ""
    lines = [
        f"outcome={traj.outcome}{tail} steps={traj.steps_taken} "
        f"boundary_flagged={traj.boundary_flagged}"
    ]
    return _result("simulate", c, rows, summary, check, arrays, lines, dealias=DEALIAS,
                   s=HS_ORDER, weight_gamma=gamma, policy=NORM_POLICY)


def run_atlas(cfg: dict) -> dict:
    """Classify a rectangular raster in the (gamma, p) plane."""
    c = _take(cfg, "atlas config", {
        "n": (_int, _REQUIRED), "gamma": (_axis, _REQUIRED), "p": (_axis, _REQUIRED),
        "s": (_real, 1.0),
    })
    n, s = c["n"], c["s"]
    gammas, ps = (np.linspace(a["min"], a["max"], a["count"]) for a in (c["gamma"], c["p"]))
    rows = [
        {"gamma": float(g), "p": float(p), "verdict": v}
        for g, p, v in exponents.atlas_raster(n, s, gammas, ps)
    ]
    counts: dict = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    summary = {
        "counts": dict(sorted(counts.items())),
        "thresholds": dataclasses.asdict(exponents.thm_thresholds(n)),
        "fujita": exponents.fujita(n),
    }
    lines = ["raster classified: " + " ".join(f"{k}={v}" for k, v in summary["counts"].items())]
    return _result("atlas", c, rows, summary, None, lines=lines)


def run_classify(cfg: dict) -> dict:
    """Classify one parameter point and report every nearby threshold."""
    c = _take(cfg, "classify config", {
        "n": (_int, _REQUIRED), "gamma": (_real, _REQUIRED), "p": (_real, _REQUIRED),
        "s": (_real, 1.0),
    })
    n, gamma, p, s = c["n"], c["gamma"], c["p"], c["s"]
    verdict = exponents.classify(n, gamma, p, s)
    th = exponents.thm_thresholds(n)
    life = exponents.lifespan_exponents(n, gamma, p)
    summary = {
        "verdict": verdict.verdict,
        "blowup_tags": list(verdict.blowup_tags),
        "p_crit": exponents.crit(n, gamma),
        "p_fujita": exponents.fujita(n),
        "gamma_min": th.gamma_min,
        "p_min": th.p_min,
        "lifespan": dataclasses.asdict(life),
    }
    rows = [{"gamma": gamma, "p": p, "verdict": verdict.verdict}]
    lines = [
        f"verdict={verdict.verdict} tags={','.join(verdict.blowup_tags) or '-'}",
        f"p_fujita={summary['p_fujita']:.6g} p_crit={summary['p_crit']:.6g} "
        f"gamma_min={th.gamma_min:.6g} p_min={th.p_min:.6g}",
        f"lifespan exponent={life.a_combined} switch_p={life.switch_p:.6g}",
    ]
    return _result("classify", c, rows, summary, None, lines=lines)


def run_bump_check(cfg: dict) -> dict:
    """Certify the convolved bump and optional shifted counterexample."""
    c = _take(cfg, "bump-check config", {
        "grid": (build_grid, {"dim": 1, "size": 512, "half_length": 4.0}),
        "exponents": (_powers, [3, 5, 7]), "shifted_center": (_real, None),
    })
    grid = c["grid"]

    base = self_convolve(grid)
    rep = check_conditions(base)
    vol = grid.dx**grid.dim
    refold = forward_transform(grid, base.samples)
    transform_residual = float(np.max(np.abs(refold.coeffs - base.coeffs.coeffs)))

    rows = []
    for l in c["exponents"]:
        b = np.maximum(base.samples, 0.0) ** l
        rows.append(
            {"exponent": l, "integral": float(b.sum() * vol), "max": float(b.max()),
             "min": float(b.min())}
        )

    summary: dict = {
        "base": dataclasses.asdict(rep),
        "transform_identity_residual": transform_residual,
        "base_integral": float(base.samples.sum() * vol),
    }
    passed = rep.passed and transform_residual < 1e-10

    if c["shifted_center"] is not None:
        shifted = self_convolve(grid, mollifier_samples(grid, c["shifted_center"]))
        srep = check_conditions(shifted)
        summary["shifted"] = {
            "monotone_ok": srep.monotone_ok,
            "worst_monotone": srep.worst_monotone,
        }
        passed = passed and not srep.monotone_ok

    check = {"passed": bool(passed), "details": summary["base"]}
    lines = [
        f"nonneg={rep.nonneg_ok} fourier={rep.fourier_ok} monotone={rep.monotone_ok} "
        f"transform_residual={transform_residual:.3e}"
    ]
    return _result("bump-check", c, rows, summary, check, lines=lines, tol=CERTIFY_TOL)


def run_testfunc(cfg: dict) -> dict:
    """Evaluate the weak-solution inequalities on stored fields."""
    c = _take(cfg, "testfunc config", {
        "fields": (_text, _REQUIRED), "R_values": (_radii, [2.0, 4.0, 8.0]),
        "time_points": (_time_points, 513),
        "check": ({"min_margin": (_real, 0.0), "max_identity_rel": (_real, 0.05)}, None),
    })
    cc = c["check"]
    with _open_fields(c["fields"]) as data:
        grid: Grid = data["grid"]
        p = data["p"]
        l = required_power(p)
        bump = RadialBump(grid.dim, l)
        weight = testfunc.weight_constant(p, bump, time_points=c["time_points"])
        rows = [dataclasses.asdict(r) for r in testfunc.check_bounds(
            data["times"], data["snapshots"], grid, data["pair"], p, bump,
            c["R_values"], weight,
        )]
    summary = {
        "p": p,
        "exponent": l,
        "weight_dominating": weight.dominating,
        "weight_literal": weight.literal,
        "weight_rel_change": weight.rel_change_dominating,
    }

    check = None
    if cc is not None:
        passed = all(
            r["margin_holder"] >= cc["min_margin"]
            and r["margin_absorbed"] >= cc["min_margin"]
            and r["identity_rel"] <= cc["max_identity_rel"]
            for r in rows
        )
        check = {"passed": bool(passed), "details": {"rows": len(rows)}}

    # phi_R reaches radius 2R and eta(t / R^2) ends at t = R^2: few cells or
    # archive times there leave the sums coarse
    times = data["times"]
    lines = [
        f"R={r['R']:g} cells_per_radius={2.0 * r['R'] / grid.dx:g} "
        f"intervals_per_window={np.searchsorted(times, r['R'] ** 2, side='right') - 1} "
        f"margin_holder={r['margin_holder']:.4e} "
        f"margin_absorbed={r['margin_absorbed']:.4e} identity_rel={r['identity_rel']:.3e}"
        for r in rows
    ]
    return _result("testfunc", c, rows, summary, check, lines=lines, exponent=l)


@contextlib.contextmanager
def _archive_errors(path: str):
    """An error reading the fields archive at path becomes a ConfigError that names it."""
    try:
        yield
    except ConfigError as exc:  # from Grid, SpectralField, DataPair or the shape checks
        raise ConfigError(f"fields archive {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read fields archive {path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"fields archive {path} is missing array {exc}") from exc
    except (ValueError, TypeError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"fields archive {path} is malformed: {exc}") from exc


def _read_blocks(path: str, member, count: int, shape: tuple, dtype: np.dtype):
    """The snapshots member's count rows in order, one block at a time.

    Each block is a read-only array over the bytes read for it, checked for
    finiteness before it is yielded.
    """
    row_bytes = math.prod(shape) * dtype.itemsize
    for b in testfunc.row_blocks(count, row_bytes):
        nbytes = (b.stop - b.start) * row_bytes
        with _archive_errors(path):
            data = member.read(nbytes)
            if len(data) < nbytes:
                raise ValueError("the snapshots member ends early")
        rows = np.frombuffer(data, dtype).reshape(b.stop - b.start, *shape)
        if not np.isfinite(rows).all():
            raise ConfigError(f"fields archive {path} holds non-finite times or snapshots")
        yield rows


@contextlib.contextmanager
def _open_fields(path: str):
    """Grid, data pair, p, times, and the snapshots as a one-pass iterable of row blocks.

    Every check on the archive's header and times runs here, before any
    snapshot byte is read.  The snapshots member is never mapped or held:
    iterating "snapshots" reads it one block at a time (_read_blocks), while
    the archive stays open.  Every archive error is a ConfigError that
    names path.
    """
    with contextlib.ExitStack() as files:
        with _archive_errors(path):
            # np.load leaves a file it opened itself open when the zip is corrupt
            z = files.enter_context(np.load(files.enter_context(open(path, "rb"))))
            grid = Grid(int(z["dim"]), int(z["size"]), float(z["half_length"]))
            u0 = SpectralField(grid, np.ascontiguousarray(z["u0_coeffs"]))
            u1 = SpectralField(grid, np.ascontiguousarray(z["u1_coeffs"]))
            pair = DataPair(u0=u0, u1=u1, eps=float(z["eps"]))
            times = np.asarray(z["times"], dtype=np.float64)
            p = float(z["p"])
            member = files.enter_context(z.zip.open("snapshots.npy"))
            fmt = np.lib.format
            read_header = (fmt.read_array_header_1_0 if fmt.read_magic(member)[0] == 1
                           else fmt.read_array_header_2_0)
            shape, fortran_order, dtype = read_header(member)
            if shape[1:] != grid.shape:
                raise ConfigError(
                    f"snapshots of shape {shape} do not stack fields of "
                    f"shape {grid.shape}"
                )
            if times.ndim != 1 or not times.size or shape[0] != times.size:
                raise ConfigError("snapshots must stack one field per time")
            if fortran_order or dtype.hasobject:
                raise ValueError("snapshots must be a C-ordered array of numbers")
        if not np.isfinite(times).all():
            raise ConfigError(f"fields archive {path} holds non-finite times or snapshots")
        if not np.all(np.diff(times) > 0.0):
            raise ConfigError(f"fields archive {path} holds times that do not strictly increase")
        yield {"grid": grid, "pair": pair, "times": times, "p": p,
               "snapshots": _read_blocks(path, member, times.size, grid.shape, dtype)}


def _map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], in up to `workers` worker processes.

    fn must be a module-level function and the items picklable.  With
    fewer than 2 workers, or fewer than 2 items, everything runs here.
    Workers are forked on Linux and spawned elsewhere; an exception raised
    in one is raised here, after the pool has cancelled what had not
    started and joined its processes.
    """
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    # imported here: only a parallel run pays for the pool's imports
    import concurrent.futures
    import multiprocessing

    method = "fork" if sys.platform == "linux" else "spawn"
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context(method)
    ) as ex:
        return list(ex.map(fn, items))


def _ladder_workers() -> int:
    """The CPUs in this process's affinity mask, or 1 inside a pool worker."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


RUNNERS = {
    "decay": run_decay,
    "lifespan": run_lifespan,
    "simulate": run_simulate,
    "atlas": run_atlas,
    "classify": run_classify,
    "bump-check": run_bump_check,
    "testfunc": run_testfunc,
}


def _sweep_job(item):
    """Run one sweep job and write its outputs; only the summary comes back."""
    name, kind, config, out_dir = item
    result = RUNNERS[kind](config)
    emit_outputs(result, os.path.join(out_dir, name))
    return name, kind, result["config_hash"], result["check"]


def run_sweep(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    """Run a list of named jobs, each into its own subdirectory.

    With threads > 1 the jobs run in up to that many worker processes
    (see _map); each worker writes its job's outputs itself and sends back
    only the job's config hash and check.
    A ConfigError or NumericalError raised in a worker is raised here.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    c = _take(cfg, "sweep config", {"jobs": (None, _REQUIRED)})
    jobs = c["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError("sweep needs a non-empty 'jobs' list")
    seen = set()
    parsed = []
    for j, job in enumerate(jobs):
        jc = _take(job, f"jobs[{j}]", {
            "name": (_text, _REQUIRED), "kind": (_text, _REQUIRED), "config": (None, _REQUIRED),
        })
        name, kind = jc["name"], jc["kind"]
        if kind not in RUNNERS:
            raise ConfigError(f"jobs[{j}]: unknown kind {kind!r}")
        if name in seen or not name or "/" in name or "\0" in name or name.startswith("."):
            raise ConfigError(f"jobs[{j}]: bad or duplicate name {name!r}")
        seen.add(name)
        parsed.append((name, kind, jc["config"], out_dir))
    for name, *_ in parsed:
        make_out_dir(os.path.join(out_dir, name))

    results = _map(_sweep_job, parsed, threads)
    rows = [
        {"name": name, "kind": kind, "config_hash": cfg_hash,
         "passed": check["passed"] if check else True}
        for name, kind, cfg_hash, check in results
    ]
    all_passed = all(r["passed"] for r in rows)
    summary = {"jobs": len(rows), "all_passed": all_passed}
    check = {"passed": all_passed, "details": {"jobs": len(rows)}}
    lines = [f"{r['name']}: {'pass' if r['passed'] else 'FAIL'}" for r in rows]
    return _result("sweep", c, rows, summary, check, lines=lines,
                   jobs=[{"name": n, "kind": k} for n, k, _, _ in parsed], threads=int(threads))


# ---------------------------------------------------------------------
# output emission


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a temp file's binary handle; it replaces path on success, else goes."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, rows: list, cfg_hash: str) -> None:
    """rows under a header of the first row's keys, each stamped with cfg_hash."""
    keys = list(rows[0])
    with _replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        text.write(",".join(keys + ["config_hash"]) + "\n")
        for row in rows:
            text.write(",".join(_fmt(row[k]) for k in keys) + "," + cfg_hash + "\n")


def _sanitize(obj):
    """Non-finite floats become strings so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


def write_json(path: str, payload: dict) -> None:
    """payload as indented JSON, written as it is encoded."""
    with _replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        json.dump(_sanitize(payload), text, sort_keys=True, indent=2)
        text.write("\n")


def write_field_archive(path: str, arrays: dict) -> None:
    """NPZ-compatible archive with fixed zip metadata for byte-stable output.

    Each member holds the bytes np.lib.format.write_array gives: the .npy
    header, then the array's own buffer (its transpose's for a Fortran-
    ordered array) written straight into the temp file, with no copy of a
    C- or Fortran-contiguous array.  A Spool member is the C-ordered
    float64 array of its shape, copied from its file BLOCK_BYTES at a time.
    """
    with _replacing(path) as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            value = arrays[name]
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            if isinstance(value, Spool):
                descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
                header = {"descr": descr, "fortran_order": False, "shape": value.shape}
                info.file_size = math.prod(value.shape) * 8
                value.file.seek(0)
                chunks = iter(functools.partial(value.file.read, testfunc.BLOCK_BYTES), b"")
            else:
                arr = np.asarray(value)
                header = np.lib.format.header_data_from_array_1_0(arr)
                data = np.ascontiguousarray(arr.T if header["fortran_order"] else arr)
                info.file_size = arr.nbytes
                chunks = [memoryview(data).cast("B")]
            # zf.open picks zip64 from file_size, as writestr does from its data
            with zf.open(info, "w") as member:
                np.lib.format.write_array_header_1_0(member, header)
                for chunk in chunks:
                    member.write(chunk)


@contextlib.contextmanager
def _writing_to(out_dir: str):
    """An OSError inside becomes a ConfigError naming out_dir."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from exc


def make_out_dir(out_dir: str) -> None:
    """Make out_dir if it is missing and write a temp file there, so a run fails before it steps."""
    with _writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()


def emit_outputs(result: dict, out_dir: str) -> list:
    """Write CSV + JSON (+ field archive) for one result; returns paths.

    A directory that cannot be made or written to is a ConfigError naming it.
    """
    kind = result["kind"]
    paths = [os.path.join(out_dir, f"{kind}.csv"), os.path.join(out_dir, f"{kind}.json")]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "config": result["config"],
        "config_hash": result["config_hash"],
        "summary": result["summary"],
        "rows": result["rows"],
        "check": result["check"],
    }
    with _writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        write_csv(paths[0], result["rows"], result["config_hash"])
        write_json(paths[1], payload)
        if result.get("arrays"):
            paths.append(os.path.join(out_dir, "fields.npz"))
            write_field_archive(paths[2], result["arrays"])
    return paths
