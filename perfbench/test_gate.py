"""The correctness gate counts a perturbed result as a failed run.

    python3 -m pytest -q perfbench/test_gate.py
"""

import copy
import json
import os

import pytest

import gate

HERE = os.path.dirname(os.path.abspath(__file__))


def _spec(name):
    with open(os.path.join(HERE, "workloads", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write(root, out, command, payload):
    os.makedirs(os.path.join(root, out), exist_ok=True)
    with open(os.path.join(root, out, f"{command}.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _ladder_output(spec):
    ref = spec["reference"]["lifespan"]
    return {
        "rows": [{"t_b": t} for t in ref["t_b"]],
        "summary": {"measured_exponent": ref["exponent"]},
        "check": {"passed": True},
    }


def _ladder(tmp_path, output):
    spec = _spec("ladder")
    root = str(tmp_path)
    step = {"command": "lifespan", "config": spec["steps"][0]["config"], "out": "out0"}
    _write(root, "out0", "lifespan", output(spec))
    package = os.path.join(root, "src", "dampedwave", "__init__.py")
    return spec, root, [step], package


def test_reference_output_passes(tmp_path):
    spec, root, steps, package = _ladder(tmp_path, _ladder_output)
    assert gate.problems(spec, 0, steps, [0], package, root) == []


def _shift_t_b(spec):
    out = _ladder_output(spec)
    out["rows"][-1]["t_b"] += 2 * spec["steps"][0]["config"]["dt"]
    return out


def _shift_exponent(spec):
    out = _ladder_output(spec)
    out["summary"]["measured_exponent"] += 2 * gate.EXPONENT_TOL
    return out


def _failed_check(spec):
    out = _ladder_output(spec)
    out["check"]["passed"] = False
    return out


@pytest.mark.parametrize("perturb", [_shift_t_b, _shift_exponent, _failed_check])
def test_perturbed_output_fails(tmp_path, perturb):
    spec, root, steps, package = _ladder(tmp_path, perturb)
    assert gate.problems(spec, 0, steps, [0], package, root)


def test_shift_within_dt_passes(tmp_path):
    def within(spec):
        out = _ladder_output(spec)
        out["rows"][0]["t_b"] += 0.5 * spec["steps"][0]["config"]["dt"]
        return out

    spec, root, steps, package = _ladder(tmp_path, within)
    assert gate.problems(spec, 0, steps, [0], package, root) == []


def test_reference_applies_only_at_seed_zero(tmp_path):
    spec, root, steps, package = _ladder(tmp_path, _shift_t_b)
    assert gate.problems(spec, 7, steps, [0], package, root) == []


def test_exit_code_and_foreign_package_fail(tmp_path):
    spec, root, steps, package = _ladder(tmp_path, _ladder_output)
    assert gate.problems(spec, 0, steps, [4], package, root)
    elsewhere = os.path.join(root, "site-packages", "dampedwave", "__init__.py")
    assert gate.problems(spec, 0, steps, [0], elsewhere, root)


def test_simulate_steps_must_match_blowup_time(tmp_path):
    spec = _spec("grid2d")
    root = str(tmp_path)
    ref = spec["reference"]["simulate"]
    summary = {"outcome": "blewup", **ref}
    step = {"command": "simulate", "config": spec["steps"][0]["config"], "out": "out0"}
    package = os.path.join(root, "src", "dampedwave", "__init__.py")
    _write(root, "out0", "simulate", {"summary": summary, "check": {"passed": True}})
    assert gate.problems(spec, 0, [step], [0], package, root) == []
    bad = copy.deepcopy(summary)
    bad["steps_taken"] += 3
    _write(root, "out0", "simulate", {"summary": bad, "check": {"passed": True}})
    assert gate.problems(spec, 0, [step], [0], package, root)
