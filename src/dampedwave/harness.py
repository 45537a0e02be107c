"""Experiment drivers with deterministic, hash-stamped file outputs.

Each run_* function takes a plain config dict (usually parsed from JSON),
validates it strictly (unknown keys are errors), executes the experiment,
and returns a result dict with the resolved config echo, rows, a summary,
an optional check verdict and the summary lines the CLI prints.  A runner
declares each config key once, in a spec that gives its kind and default.
emit_outputs writes the result as CSV (rows), JSON (everything), and
optionally a field archive; the rows define the CSV header, which is the
first row's keys in order.

Outputs are byte-stable: floats are serialised by repr, rows are ordered,
no timestamps are written, files land via atomic replace, and every row
carries a short hash of the resolved config so mixed-up files can be
traced to their parameters.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import zipfile

import numpy as np

from . import exponents, testfunc
from .bump import check_conditions, mollifier_samples, power as bump_power
from .bump import required_power, self_convolve
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
from .solver import SimConfig, measure_lifespan, run

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


def _floats(values) -> list:
    return [float(v) for v in values]


def _outcome(value) -> str:
    if value not in ("survived", "blewup"):
        raise ValueError("expected 'survived' or 'blewup'")
    return value


# a spec default marking a key that has no default and must be given
_REQUIRED = object()


def _take(cfg: dict, where: str, spec: dict) -> dict:
    """cfg checked against spec, which maps each key to (kind, default).

    Absent keys take their default, unless it is _REQUIRED.  Each value is
    converted by its kind (kind None keeps it as given); a rejected value is
    a ConfigError naming its key, and null is kept where the default is None.
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
            out[key] = kind(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad value {value!r} for {key!r}: {exc}") from None
    return out


def _check(c: dict, where: str, spec: dict) -> dict | None:
    """Resolve the "check" section of c in place; returns it, or None."""
    if c["check"] is not None:
        c["check"] = _take(c["check"], where, spec)
    return c["check"]


def _echo(kind: str, c: dict, **resolved) -> dict:
    """The config echo: c with resolved values swapped in, a null check dropped."""
    echo = {"kind": kind, **c, **resolved}
    if "check" in echo and echo["check"] is None:
        del echo["check"]
    return echo


def build_grid(cfg: dict) -> Grid:
    c = _take(cfg, "grid", {
        "dim": (_int, _REQUIRED), "size": (_int, _REQUIRED), "half_length": (float, _REQUIRED),
    })
    return Grid(c["dim"], c["size"], c["half_length"])


_RADIAL = {"gamma": (float, _REQUIRED), "r0": (float, 0.5), "scale": (float, 1.0)}
_PROFILE_KEYS = {
    "power": _RADIAL,
    "log": _RADIAL,
    "laplacian_gaussian": {"k": (_int, _REQUIRED), "scale": (float, 1.0)},
}
_PROFILES = {"power": power_profile, "log": log_profile, "laplacian_gaussian": laplacian_gaussian}


def build_profile(grid: Grid, cfg: dict) -> tuple[SpectralField, dict]:
    """Build a profile field; returns it plus the fully resolved sub-config."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("profile config needs to be an object with a 'family' key")
    family = cfg["family"]
    if not isinstance(family, str) or family not in _PROFILE_KEYS:
        raise ConfigError(
            f"unknown profile family {family!r}; expected one of "
            f"{sorted(_PROFILE_KEYS)}"
        )
    c = _take(
        {k: v for k, v in cfg.items() if k != "family"}, f"profile[{family}]",
        _PROFILE_KEYS[family],
    )
    return _PROFILES[family](grid, **c), {"family": family, **c}


def build_pair(grid: Grid, profile_cfg: dict, eps: float) -> tuple[DataPair, dict]:
    fld, resolved = build_profile(grid, profile_cfg)
    return assemble_pair(fld, eps, family=resolved["family"]), resolved


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


def _result(kind: str, config: dict, rows, summary, check, arrays=None, lines=()):
    """A runner's result; lines are its summary for the terminal.

    rows is a non-empty list of dicts in one key order, the CSV header's.
    """
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
        times = [float(t) for t in cfg]
        if len(times) < 3 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("times must be >= 3 strictly increasing values")
        return times
    c = _take(cfg, "times", {
        "start": (float, _REQUIRED), "ratio": (float, _REQUIRED), "count": (_int, _REQUIRED),
    })
    start, ratio, count = c["start"], c["ratio"], c["count"]
    if start <= 0.0 or ratio <= 1.0 or count < 3:
        raise ConfigError("times ladder needs start > 0, ratio > 1, count >= 3")
    return [start * ratio**j for j in range(count)]


def _axis(cfg) -> dict:
    """One atlas axis: count points from min to max."""
    a = _take(cfg, "atlas axis", {
        "min": (float, _REQUIRED), "max": (float, _REQUIRED), "count": (_int, _REQUIRED),
    })
    if a["count"] < 1:
        raise ValueError(f"count must be >= 1, got {a['count']}")
    return a


def _weight_gamma(c: dict, profile: dict) -> float:
    """The norm weight: c's weight_gamma, else the profile's gamma, else 0.5."""
    if c["weight_gamma"] is not None:
        return c["weight_gamma"]
    return float(profile.get("gamma", 0.5))


def run_decay(cfg: dict) -> dict:
    """Norm decay of the linear flow from a low-frequency profile.

    Propagates u0 = u1 = profile exactly to each ladder time and fits
    power laws to the L2 norm and the order-s homogeneous seminorm.  The
    expected slopes are -gamma/2 and -(s + gamma)/2.
    """
    c = _take(cfg, "decay config", {
        "grid": (None, _REQUIRED), "profile": (None, _REQUIRED),
        "times": (_ladder_times, _REQUIRED), "s": (float, 1.0), "weight_gamma": (float, None),
        "policy": (None, "exclude"), "check": (None, None),
    })
    cc = _check(c, "decay check", {"l2_tol": (float, 0.05), "seminorm_tol": (float, 0.1)})
    grid = build_grid(c["grid"])
    profile, prof_resolved = build_profile(grid, c["profile"])
    times = c["times"]
    s = c["s"]
    gamma = _weight_gamma(c, prof_resolved)
    echo = _echo("decay", c, grid=dataclasses.asdict(grid), profile=prof_resolved,
                 weight_gamma=gamma)

    rows = []
    for t in times:
        uh, _ = propagate_linear(profile, profile, t)
        rows.append(
            {
                "t": t,
                "l2": lp_norm(uh, 2.0),
                "linf": lp_norm(uh, math.inf),
                "hs": hs_norm(uh, s),
                "hdotneg": hdotneg_norm(uh, gamma, c["policy"]),
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
    return _result("decay", echo, rows, summary, check, lines=lines)


def run_lifespan(cfg: dict) -> dict:
    """Blow-up time versus data amplitude, with power-law fit.

    Runs the full nonlinear solver for each eps at two step sizes and
    extrapolates the threshold-crossing time.  Censored rows (survived the
    horizon) are excluded from the fit and reported.
    """
    c = _take(cfg, "lifespan config", {
        "grid": (None, _REQUIRED), "profile": (None, _REQUIRED), "p": (float, _REQUIRED),
        "eps_values": (_floats, _REQUIRED), "dt": (float, _REQUIRED),
        "t_cap": (float, _REQUIRED), "blowup_threshold": (float, 1e6),
        "dealias": (_flag, True), "check": (None, None),
    })
    cc = _check(c, "lifespan check", {
        "rel_tol": (float, None), "max_slope": (float, None), "min_uncensored": (_int, 3),
    })
    grid = build_grid(c["grid"])
    profile, prof_resolved = build_profile(grid, c["profile"])
    p = c["p"]
    eps_values = c["eps_values"]
    if len(eps_values) < 3:
        raise ConfigError("need >= 3 eps values for a lifespan fit")
    gamma = prof_resolved.get("gamma")
    predicted = (
        dataclasses.asdict(exponents.lifespan_exponents(grid.dim, float(gamma), p))
        if gamma is not None
        else None
    )
    target = predicted["a_combined"] if predicted else None
    if cc is not None and cc["rel_tol"] is not None and target is None:
        raise ConfigError(
            "rel_tol check needs a profile gamma and a predicted lifespan exponent"
        )
    echo = _echo("lifespan", c, grid=dataclasses.asdict(grid), profile=prof_resolved)

    rows = []
    for eps in eps_values:
        pair = assemble_pair(profile, eps, family=prof_resolved["family"])
        sim = SimConfig(data=pair, p=p, dt=c["dt"], t_max=c["t_cap"],
                        blowup_threshold=c["blowup_threshold"], dealias=c["dealias"])
        res = measure_lifespan(sim)
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
    return _result("lifespan", echo, rows, summary, check, lines=lines)


def run_simulate(cfg: dict) -> dict:
    """One nonlinear (or linear) run with recorded norms and fields."""
    c = _take(cfg, "simulate config", {
        "grid": (None, _REQUIRED), "profile": (None, _REQUIRED), "eps": (float, _REQUIRED),
        "p": (float, _REQUIRED), "dt": (float, _REQUIRED), "t_max": (float, _REQUIRED),
        "blowup_threshold": (float, 1e6), "dealias": (_flag, True),
        "nonlinear": (_flag, True), "record_every": (_int, 1),
        "record_fields_every": (_int, 0), "s": (float, 1.0), "weight_gamma": (float, None),
        "policy": (None, "exclude"), "check": (None, None),
    })
    cc = _check(c, "simulate check", {
        "expect_outcome": (_outcome, None), "l2_decreasing_factor": (float, None),
    })
    grid = build_grid(c["grid"])
    pair, prof_resolved = build_pair(grid, c["profile"], c["eps"])
    gamma = _weight_gamma(c, prof_resolved)
    # the keys that are SimConfig fields of the same name
    sim_keys = ("p", "dt", "t_max", "blowup_threshold", "dealias", "nonlinear",
                "record_every", "record_fields_every", "s")
    sim = SimConfig(
        data=pair, gamma=gamma, norm_policy=c["policy"], **{k: c[k] for k in sim_keys}
    )
    echo = _echo("simulate", c, grid=dataclasses.asdict(grid), profile=prof_resolved,
                 weight_gamma=gamma)

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
    if traj.field_snapshots is not None:
        arrays = {
            "times": traj.field_times,
            "snapshots": traj.field_snapshots,
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
    return _result("simulate", echo, rows, summary, check, arrays, lines)


def run_atlas(cfg: dict) -> dict:
    """Classify a rectangular raster in the (gamma, p) plane."""
    c = _take(cfg, "atlas config", {
        "n": (_int, _REQUIRED), "gamma": (_axis, _REQUIRED), "p": (_axis, _REQUIRED),
        "s": (float, 1.0),
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
    return _result("atlas", _echo("atlas", c), rows, summary, None, lines=lines)


def run_classify(cfg: dict) -> dict:
    """Classify one parameter point and report every nearby threshold."""
    c = _take(cfg, "classify config", {
        "n": (_int, _REQUIRED), "gamma": (float, _REQUIRED), "p": (float, _REQUIRED),
        "s": (float, 1.0),
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
    return _result("classify", _echo("classify", c), rows, summary, None, lines=lines)


def run_bump_check(cfg: dict) -> dict:
    """Certify the convolved bump and optional shifted counterexample."""
    c = _take(cfg, "bump-check config", {
        "grid": (None, {"dim": 1, "size": 512, "half_length": 4.0}),
        "exponents": (lambda ls: [_int(l) for l in ls], [3, 5, 7]),
        "tol": (float, 1e-8), "shifted_center": (float, None),
    })
    if not c["exponents"]:
        raise ConfigError("bump-check config: 'exponents' must not be empty")
    grid = build_grid(c["grid"])
    tol = c["tol"]
    exps = c["exponents"]

    base = self_convolve(grid)
    rep = check_conditions(base, tol=tol)
    vol = grid.dx**grid.dim
    refold = forward_transform(grid, base.samples)
    transform_residual = float(np.max(np.abs(refold.coeffs - base.coeffs.coeffs)))

    rows = []
    for l in exps:
        b = bump_power(base, l)
        rows.append(
            {
                "exponent": l,
                "integral": float(b.power_samples.sum() * vol),
                "max": float(b.power_samples.max()),
                "min": float(b.power_samples.min()),
            }
        )

    summary: dict = {
        "base": dataclasses.asdict(rep),
        "transform_identity_residual": transform_residual,
        "base_integral": float(base.samples.sum() * vol),
    }
    passed = rep.passed and transform_residual < 1e-10

    if c["shifted_center"] is not None:
        shifted = self_convolve(grid, mollifier_samples(grid, c["shifted_center"]))
        srep = check_conditions(shifted, tol=tol)
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
    echo = _echo("bump-check", c, grid=dataclasses.asdict(grid))
    return _result("bump-check", echo, rows, summary, check, lines=lines)


def run_testfunc(cfg: dict) -> dict:
    """Evaluate the weak-solution inequalities on stored fields."""
    c = _take(cfg, "testfunc config", {
        "fields": (str, _REQUIRED), "R_values": (_floats, [2.0, 4.0, 8.0]),
        "exponent": (_int, None),
        "bump_grid": (None, {"dim": 1, "size": 512, "half_length": 4.0}),
        "time_points": (_int, 513), "check": (None, None),
    })
    cc = _check(c, "testfunc check", {
        "min_margin": (float, 0.0), "max_identity_rel": (float, 0.05),
    })
    if not c["R_values"]:
        raise ConfigError("testfunc config: 'R_values' must not be empty")
    data = _load_fields(c["fields"])
    grid: Grid = data["grid"]
    bgrid = build_grid(c["bump_grid"])
    if bgrid.dim != grid.dim:
        raise ConfigError(
            f"testfunc config: 'bump_grid' has dim {bgrid.dim} but the fields "
            f"archive has dim {grid.dim}"
        )
    p = data["p"]
    l = c["exponent"] if c["exponent"] is not None else required_power(p)
    echo = _echo("testfunc", c, exponent=l, bump_grid=dataclasses.asdict(bgrid))

    bump = bump_power(self_convolve(bgrid), l)
    weight = testfunc.weight_constant(p, bump, time_points=c["time_points"])
    rows = []
    for R in c["R_values"]:
        pair = testfunc.TestPair(bump=bump, R=float(R))
        rep = testfunc.check_bounds(
            data["times"], data["snapshots"], grid, data["pair"], p, pair, weight
        )
        rows.append(
            {
                "R": rep.R,
                "i_value": rep.i_value,
                "data_term": rep.data_term,
                "holder_rhs": rep.holder_rhs,
                "absorbed_rhs": rep.absorbed_rhs,
                "margin_holder": rep.margin_holder,
                "margin_absorbed": rep.margin_absorbed,
                "identity_rel": (
                    abs(rep.identity_residual) / rep.identity_scale
                    if rep.identity_scale > 0.0
                    else 0.0
                ),
            }
        )
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

    # phi_R reaches radius 2R: few cells there leave the spatial sums coarse
    lines = [
        f"R={r['R']:g} cells_per_radius={2.0 * r['R'] / grid.dx:g} "
        f"margin_holder={r['margin_holder']:.4e} "
        f"margin_absorbed={r['margin_absorbed']:.4e} identity_rel={r['identity_rel']:.3e}"
        for r in rows
    ]
    return _result("testfunc", echo, rows, summary, check, lines=lines)


def _load_fields(path: str) -> dict:
    try:
        with np.load(path) as z:
            grid = Grid(int(z["dim"]), int(z["size"]), float(z["half_length"]))
            u0 = SpectralField(grid, np.ascontiguousarray(z["u0_coeffs"]))
            u1 = SpectralField(grid, np.ascontiguousarray(z["u1_coeffs"]))
            pair = DataPair(u0=u0, u1=u1, eps=float(z["eps"]), family="stored")
            return {
                "grid": grid,
                "pair": pair,
                "times": np.asarray(z["times"], dtype=np.float64),
                "snapshots": np.asarray(z["snapshots"]),
                "p": float(z["p"]),
            }
    except OSError as exc:
        raise ConfigError(f"cannot read fields archive {path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"fields archive {path} is missing array {exc}") from exc


RUNNERS = {
    "decay": run_decay,
    "lifespan": run_lifespan,
    "simulate": run_simulate,
    "atlas": run_atlas,
    "classify": run_classify,
    "bump-check": run_bump_check,
    "testfunc": run_testfunc,
}


def run_sweep(cfg: dict, out_dir: str, threads: int = 1) -> dict:
    """Run a list of named jobs, each into its own subdirectory."""
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
            "name": (str, _REQUIRED), "kind": (str, _REQUIRED), "config": (None, _REQUIRED),
        })
        name, kind = jc["name"], jc["kind"]
        if kind not in RUNNERS:
            raise ConfigError(f"jobs[{j}]: unknown kind {kind!r}")
        if name in seen or not name or "/" in name or name.startswith("."):
            raise ConfigError(f"jobs[{j}]: bad or duplicate name {name!r}")
        seen.add(name)
        parsed.append((name, kind, jc["config"]))

    echo = _echo("sweep", c, jobs=[{"name": n, "kind": k} for n, k, _ in parsed],
                 threads=int(threads))

    def _one(item):
        name, kind, sub = item
        result = RUNNERS[kind](sub)
        emit_outputs(result, os.path.join(out_dir, name))
        return name, kind, result

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(_one, parsed))
    else:
        results = [_one(item) for item in parsed]
    rows = [
        {"name": name, "kind": kind, "config_hash": result["config_hash"],
         "passed": result["check"]["passed"] if result["check"] else True}
        for name, kind, result in results
    ]
    all_passed = all(r["passed"] for r in rows)
    summary = {"jobs": len(rows), "all_passed": all_passed}
    check = {"passed": all_passed, "details": {"jobs": len(rows)}}
    lines = [f"{r['name']}: {'pass' if r['passed'] else 'FAIL'}" for r in rows]
    return _result("sweep", echo, rows, summary, check, lines=lines)


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


def _atomic_write_bytes(path: str, blob: bytes) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serialisable: {type(o).__name__}")


def write_csv(path: str, rows: list, cfg_hash: str) -> None:
    """rows under a header of the first row's keys, each stamped with cfg_hash."""
    keys = list(rows[0])
    lines = [",".join(keys + ["config_hash"])]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in keys) + "," + cfg_hash)
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
    text = json.dumps(
        _sanitize(payload), sort_keys=True, indent=2, default=_json_default
    )
    _atomic_write_bytes(path, (text + "\n").encode("utf-8"))


def write_field_archive(path: str, arrays: dict) -> None:
    """NPZ-compatible archive with fixed zip metadata for byte-stable output."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            payload = io.BytesIO()
            np.lib.format.write_array(payload, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, payload.getvalue())
    _atomic_write_bytes(path, buf.getvalue())


def emit_outputs(result: dict, out_dir: str) -> list:
    """Write CSV + JSON (+ field archive) for one result; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    kind = result["kind"]
    csv_path = os.path.join(out_dir, f"{kind}.csv")
    write_csv(csv_path, result["rows"], result["config_hash"])
    paths = [csv_path]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "config": result["config"],
        "config_hash": result["config_hash"],
        "summary": result["summary"],
        "rows": result["rows"],
        "check": result["check"],
    }
    json_path = os.path.join(out_dir, f"{kind}.json")
    write_json(json_path, payload)
    paths.append(json_path)
    if result.get("arrays"):
        npz_path = os.path.join(out_dir, "fields.npz")
        write_field_archive(npz_path, result["arrays"])
        paths.append(npz_path)
    return paths
