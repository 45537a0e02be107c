"""Correctness gate: decides whether one benchmark run of a workload failed.

A run fails on a nonzero CLI exit code, on a failed --check verdict, when
the measured package is not the checkout's own src/dampedwave, or, at
seed 0, when its outputs disagree with the reference values recorded in
the workload file.

Tolerances are no tighter than the detection granularity: blow-up times
are only known to within one step dt, so times compare within dt, step
counts within one step, and the fitted lifespan exponent within
EXPONENT_TOL (a shift of dt in every blow-up time moves the c11 exponent
by less than 0.002).
"""

from __future__ import annotations

import json
import os

EXPONENT_TOL = 0.01


def problems(spec: dict, seed: int, steps: list, rcs: list, package_file: str,
             root: str) -> list:
    """Reasons this run counts as failed; empty when it passed.

    steps holds one {"command", "config", "out"} dict per CLI call, with
    the config as materialised for this seed.
    """
    found = []
    expected = os.path.join(os.path.realpath(root), "src", "dampedwave") + os.sep
    if not os.path.realpath(package_file).startswith(expected):
        found.append(f"measured {package_file}, not the checkout's src/dampedwave")
    if len(rcs) != len(steps) or any(rcs):
        found.append(f"exit codes {rcs} for {len(steps)} CLI calls")
        return found
    outputs = {}
    for step in steps:
        path = os.path.join(root, step["out"], f"{step['command']}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, ValueError) as exc:
            found.append(f"{step['command']}: unreadable output ({exc})")
            continue
        outputs[step["command"]] = (step["config"], out)
        if not (out.get("check") or {}).get("passed"):
            found.append(f"{step['command']}: --check verdict is not a pass")
        if step["command"] == "simulate":
            found += _simulate_consistent(step["config"], out["summary"])
    if seed == 0:
        for command, ref in spec["reference"].items():
            if command not in outputs:
                found.append(f"{command}: no output to compare with the reference")
                continue
            cfg, out = outputs[command]
            found += _REFERENCE[command](cfg, out, ref)
    return found


def _simulate_consistent(cfg: dict, summary: dict) -> list:
    tb, steps = summary.get("t_blowup"), summary.get("steps_taken")
    if tb is None or abs(steps * float(cfg["dt"]) - tb) > 1e-9 * max(1.0, tb):
        return [f"simulate: t_blowup {tb} is not steps_taken {steps} x dt"]
    return []


def _lifespan_reference(cfg: dict, out: dict, ref: dict) -> list:
    dt = float(cfg["dt"])
    t_b = [row["t_b"] for row in out["rows"]]
    found = []
    if len(t_b) != len(ref["t_b"]) or any(
        not isinstance(a, float) or abs(a - b) > dt for a, b in zip(t_b, ref["t_b"])
    ):
        found.append(f"lifespan: t_b {t_b} differs from {ref['t_b']} by more than dt={dt}")
    measured = out["summary"].get("measured_exponent")
    if measured is None or abs(measured - ref["exponent"]) > EXPONENT_TOL:
        found.append(
            f"lifespan: exponent {measured} differs from {ref['exponent']} "
            f"by more than {EXPONENT_TOL}"
        )
    return found


def _simulate_reference(cfg: dict, out: dict, ref: dict) -> list:
    dt = float(cfg["dt"])
    s = out["summary"]
    if s.get("t_blowup") is None or abs(s["t_blowup"] - ref["t_blowup"]) > dt:
        return [f"simulate: t_blowup {s.get('t_blowup')} differs from {ref['t_blowup']} by more than dt={dt}"]
    if abs(s["steps_taken"] - ref["steps_taken"]) > 1:
        return [f"simulate: {s['steps_taken']} steps, reference {ref['steps_taken']}"]
    return []


def _sweep_reference(cfg: dict, out: dict, ref: dict) -> list:
    s = out["summary"]
    if s.get("all_passed") is not ref["all_passed"] or s.get("jobs") != ref["jobs"]:
        return [f"sweep: summary {s} differs from reference {ref}"]
    return []


_REFERENCE = {
    "lifespan": _lifespan_reference,
    "simulate": _simulate_reference,
    "sweep": _sweep_reference,
}
