"""Experiment drivers, deterministic outputs, CLI exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dampedwave import cli, exponents, harness, testfunc
from dampedwave.errors import ConfigError, NumericalError
from dampedwave.grid import Grid, full_of


def test_take_validates_keys():
    req = harness._REQUIRED
    out = harness._take({"a": 1}, "x", {"a": (None, req), "b": (None, 2)})
    assert out == {"a": 1, "b": 2}
    with pytest.raises(ConfigError, match="unknown keys"):
        harness._take({"a": 1, "z": 0}, "x", {"a": (None, req)})
    with pytest.raises(ConfigError, match="missing keys"):
        harness._take({}, "x", {"a": (None, req)})
    with pytest.raises(ConfigError, match="must be an object"):
        harness._take([1], "x", {})
    # a default is converted by its kind, as a given value is
    out = harness._take({}, "x", {"n": (harness._int, 2.0), "t": (float, 1)})
    assert out == {"n": 2, "t": 1.0}
    assert type(out["n"]) is int and type(out["t"]) is float
    # null is kept where the default is None, and converted where it is not
    assert harness._take({"g": None}, "x", {"g": (float, None)}) == {"g": None}
    with pytest.raises(ConfigError, match="'dt'"):
        harness._take({"dt": None}, "x", {"dt": (float, req)})


def test_config_hash_is_order_insensitive():
    h1 = harness.config_hash({"a": 1, "b": [1.5, None]})
    h2 = harness.config_hash({"b": [1.5, None], "a": 1})
    assert h1 == h2
    assert len(h1) == 12 and all(c in "0123456789abcdef" for c in h1)
    assert harness.config_hash({"a": 2, "b": [1.5, None]}) != h1


def test_fit_powerlaw_recovers_exact_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**-1.7
    fit = harness.fit_powerlaw(x, y)
    assert fit.slope == pytest.approx(-1.7, rel=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.count == 4
    with pytest.raises(ConfigError):
        harness.fit_powerlaw([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        harness.fit_powerlaw([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])


def test_build_profile_resolution_and_validation():
    g = Grid(1, 256, 64.0)
    _, resolved = harness.build_profile(g, {"family": "power", "gamma": 0.5})
    assert resolved == {"family": "power", "gamma": 0.5, "r0": 0.5, "scale": 1.0}
    with pytest.raises(ConfigError, match="family"):
        harness.build_profile(g, {"gamma": 0.5})
    with pytest.raises(ConfigError, match="unknown profile family"):
        harness.build_profile(g, {"family": "spiral", "gamma": 0.5})
    with pytest.raises(ConfigError, match="missing keys"):
        harness.build_profile(g, {"family": "log"})
    with pytest.raises(ConfigError, match="unknown keys"):
        harness.build_profile(g, {"family": "power", "gamma": 0.5, "k": 1})


def test_ladder_times():
    assert harness._ladder_times([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
    assert harness._ladder_times(
        {"start": 1.0, "ratio": 2.0, "count": 3}
    ) == [1.0, 2.0, 4.0]
    with pytest.raises(ConfigError):
        harness._ladder_times([1.0, 2.0])
    with pytest.raises(ConfigError):
        harness._ladder_times([1.0, 2.0, 2.0])
    with pytest.raises(ConfigError):
        harness._ladder_times({"start": 1.0, "ratio": 0.5, "count": 3})


def test_run_classify_matches_library():
    res = harness.run_classify({"n": 1, "gamma": 1.0, "p": 3.5})
    assert res["summary"]["verdict"] == exponents.classify(1, 1.0, 3.5, 1.0).verdict
    assert res["rows"] == [{"gamma": 1.0, "p": 3.5, "verdict": "GlobalLargeGamma"}]
    assert res["config_hash"] == harness.config_hash(res["config"])
    assert res["check"] is None


def test_run_atlas_counts():
    res = harness.run_atlas(
        {
            "n": 1,
            "gamma": {"min": 0.25, "max": 1.0, "count": 2},
            "p": {"min": 2.0, "max": 4.0, "count": 2},
        }
    )
    assert len(res["rows"]) == 4
    assert sum(res["summary"]["counts"].values()) == 4


def test_run_decay_smoke():
    res = harness.run_decay(
        {
            "grid": {"dim": 1, "size": 256, "half_length": 64.0},
            "profile": {"family": "power", "gamma": 0.5, "scale": 0.1},
            "times": {"start": 4.0, "ratio": 2.0, "count": 4},
            "check": {"l2_tol": 0.4, "seminorm_tol": 0.6},
        }
    )
    assert res["summary"]["expected_l2_slope"] == -0.25
    assert res["summary"]["expected_seminorm_slope"] == -0.75
    assert [r["t"] for r in res["rows"]] == [4.0, 8.0, 16.0, 32.0]
    # norms decay along the ladder even on this coarse smoke grid
    assert res["rows"][-1]["l2"] < res["rows"][0]["l2"]
    assert res["check"]["passed"] in (True, False)


def test_emit_outputs_are_byte_identical(tmp_path):
    res = harness.run_classify({"n": 2, "gamma": 0.5, "p": 2.0})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = harness.emit_outputs(res, str(d1))
    p2 = harness.emit_outputs(res, str(d2))
    assert [p.rsplit("/", 1)[1] for p in p1] == ["classify.csv", "classify.json"]
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()
    # rerunning into the same directory rewrites the same bytes
    before = open(p1[1], "rb").read()
    harness.emit_outputs(harness.run_classify({"n": 2, "gamma": 0.5, "p": 2.0}), str(d1))
    assert open(p1[1], "rb").read() == before


_GRID = {"dim": 1, "size": 256, "half_length": 64.0}
_POWER = {"family": "power", "gamma": 0.5}
# a tiny config per subcommand, in run order (testfunc reads simulate's fields)
_TINY = {
    "classify": {"n": 2, "gamma": 0.5, "p": 1.8},
    "atlas": {"n": 1, "gamma": {"min": 0.25, "max": 1.0, "count": 3},
              "p": {"min": 1.5, "max": 4.0, "count": 4}},
    "decay": {"grid": _GRID, "profile": {**_POWER, "scale": 0.1},
              "times": {"start": 4.0, "ratio": 2.0, "count": 3},
              "check": {"l2_tol": 0.4}},
    "simulate": {"grid": _GRID, "profile": _POWER, "eps": 0.5, "p": 2.0, "dt": 0.02,
                 "t_max": 4.5, "record_every": 5, "record_fields_every": 10,
                 "check": {"expect_outcome": "survived"}},
    "testfunc": {"fields": "simulate/fields.npz", "R_values": [1.0, 2.0],
                 "time_points": 65, "check": {"max_identity_rel": 0.5}},
    "lifespan": {"grid": _GRID, "profile": {"family": "power", "gamma": 1.0}, "p": 2.0,
                 "eps_values": [2.0, 1.5, 1.0], "dt": 0.0625, "t_cap": 20.0,
                 "check": {"min_uncensored": 3}},
    "bump-check": {"grid": {"dim": 1, "size": 128, "half_length": 4.0},
                   "exponents": [3, 5.0]},
    "sweep": {"jobs": [{"name": "c", "kind": "classify",
                        "config": {"n": 1, "gamma": 1.0, "p": 3.5}}]},
}


def test_config_echo_and_summary_lines_are_pinned(tmp_path, monkeypatch, capsys):
    # The config echo, and so the config_hash in every output, is part of the
    # byte-identical contract: a refactor of the runners must not move it.
    # Nor may it move the CSV headers, which are each runner's row keys.
    monkeypatch.chdir(tmp_path)
    hashes, stdout, headers = {}, {}, {}
    for command, cfg in _TINY.items():
        with open(f"{command}.cfg.json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        args = [command, "--config", f"{command}.cfg.json", "--out", command]
        if command == "sweep":
            args += ["--threads", "2"]
        assert cli.main(args) == 0, command
        stdout[command] = capsys.readouterr().out.splitlines()
        with open(f"{command}/{command}.json", encoding="utf-8") as fh:
            hashes[command] = json.load(fh)["config_hash"]
        with open(f"{command}/{command}.csv", encoding="utf-8") as fh:
            headers[command] = fh.readline().rstrip("\n")
    assert hashes == {
        "classify": "559c8689cebf",
        "atlas": "43ecfea5bc52",
        "decay": "eaf73c27762c",
        "simulate": "5a5df60964b4",
        "testfunc": "f59d1209f12c",
        "lifespan": "6184dcc7ae81",
        "bump-check": "bfdd3abe7bbb",
        "sweep": "2bf468e09fbc",
    }
    assert headers == {
        "classify": "gamma,p,verdict,config_hash",
        "atlas": "gamma,p,verdict,config_hash",
        "decay": "t,l2,linf,hs,hdotneg,seminorm,config_hash",
        "simulate": "t,l2,linf,hs,hdotneg,config_hash",
        "testfunc": "R,i_value,data_term,holder_rhs,absorbed_rhs,margin_holder,"
                    "margin_absorbed,identity_rel,config_hash",
        "lifespan": "eps,t_b,t_b_err,censored,config_hash",
        "bump-check": "exponent,integral,max,min,config_hash",
        # a sweep row carries each job's hash before the sweep's own
        "sweep": "name,kind,config_hash,passed,config_hash",
    }
    assert stdout["classify"] == [
        "verdict=BlowupSubcritical tags=BlowupSubcritical,BlowupSubfujita,"
        "BlowupSubcriticalSharp",
        "p_fujita=2 p_crit=2.33333 gamma_min=1 p_min=2",
        "lifespan exponent=2.0 switch_p=2.66667",
        "wrote classify/classify.csv classify/classify.json",
    ]
    assert stdout["atlas"] == [
        "raster classified: BlowupSubcritical=6 BlowupSubfujita=1 "
        "GlobalLargeGamma=4 GlobalSupercritical=1",
        "wrote atlas/atlas.csv atlas/atlas.json",
    ]
    assert stdout["sweep"] == ["c: pass", "check: pass", "wrote sweep/sweep.csv sweep/sweep.json"]


def test_csv_layout(tmp_path):
    res = harness.run_classify({"n": 1, "gamma": 0.25, "p": 2.0})
    paths = harness.emit_outputs(res, str(tmp_path))
    lines = open(paths[0], "r", encoding="utf-8").read().splitlines()
    assert lines[0] == "gamma,p,verdict,config_hash"
    assert lines[1].endswith("," + res["config_hash"])
    assert lines[1].startswith("0.25,2.0,BlowupSubcritical")
    assert open(paths[0], "rb").read().endswith(b"\n")


def test_json_payload_schema(tmp_path):
    res = harness.run_classify({"n": 1, "gamma": 0.25, "p": 2.0})
    paths = harness.emit_outputs(res, str(tmp_path))
    payload = json.loads(open(paths[1], "r", encoding="utf-8").read())
    assert payload["schema"] == 1
    assert payload["kind"] == "classify"
    assert payload["config_hash"] == res["config_hash"]
    assert payload["rows"] == res["rows"]


def test_json_sanitizes_nonfinite(tmp_path):
    path = str(tmp_path / "x.json")
    harness.write_json(
        path, {"a": math.inf, "b": math.nan, "c": [-math.inf, 1.5]}
    )
    back = json.loads(open(path).read())
    assert back == {"a": "inf", "b": "nan", "c": ["-inf", 1.5]}


def test_field_archive_is_deterministic_and_loadable(tmp_path):
    arrays = {
        "times": np.linspace(0.0, 1.0, 5),
        "snapshots": np.arange(10.0).reshape(5, 2),
        "eps": np.array(0.25),
    }
    p1, p2 = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    harness.write_field_archive(p1, arrays)
    harness.write_field_archive(p2, arrays)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    with np.load(p1) as loaded:
        assert sorted(loaded.files) == ["eps", "snapshots", "times"]
        assert np.array_equal(loaded["snapshots"], arrays["snapshots"])
        assert float(loaded["eps"]) == 0.25


def _sweep_cfg():
    return {
        "jobs": [
            {"name": "j1", "kind": "classify",
             "config": {"n": 1, "gamma": 1.0, "p": 3.5}},
            {"name": "j2", "kind": "atlas",
             "config": {"n": 1,
                        "gamma": {"min": 0.25, "max": 1.0, "count": 2},
                        "p": {"min": 2.0, "max": 4.0, "count": 2}}},
        ]
    }


def test_sweep_serial_and_threaded_agree(tmp_path):
    d1, d2 = str(tmp_path / "serial"), str(tmp_path / "par")
    r1 = harness.run_sweep(_sweep_cfg(), d1, threads=1)
    r2 = harness.run_sweep(_sweep_cfg(), d2, threads=2)
    assert r1["rows"] == r2["rows"]
    assert r1["check"]["passed"] and r2["check"]["passed"]
    for job in ("j1", "j2"):
        kind = "classify" if job == "j1" else "atlas"
        a = open(f"{d1}/{job}/{kind}.json", "rb").read()
        b = open(f"{d2}/{job}/{kind}.json", "rb").read()
        assert a == b


def test_sweep_name_and_kind_validation(tmp_path):
    bad = _sweep_cfg()
    bad["jobs"][1]["name"] = "j1"
    with pytest.raises(ConfigError, match="duplicate"):
        harness.run_sweep(bad, str(tmp_path))
    bad = _sweep_cfg()
    bad["jobs"][0]["name"] = "a/b"
    with pytest.raises(ConfigError):
        harness.run_sweep(bad, str(tmp_path))
    bad = _sweep_cfg()
    bad["jobs"][0]["kind"] = "sweep"
    with pytest.raises(ConfigError, match="unknown kind"):
        harness.run_sweep(bad, str(tmp_path))
    with pytest.raises(ConfigError):
        harness.run_sweep({"jobs": []}, str(tmp_path))
    for threads in (0, -3):
        with pytest.raises(ConfigError, match="threads"):
            harness.run_sweep(_sweep_cfg(), str(tmp_path), threads=threads)
    cfgp = tmp_path / "sweep.json"
    cfgp.write_text(json.dumps(_sweep_cfg()))
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--config", str(cfgp), "--out", out, "--threads", "-3"]) == 2


def test_cli_classify_flags_and_seed(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["classify", "--n", "1", "--gamma", "1.0", "--p", "3.5",
         "--out", out, "--seed", "7"]
    )
    assert code == 0
    payload = json.loads(open(f"{out}/classify.json").read())
    assert payload["config"]["seed"] == 7
    assert payload["config_hash"] == harness.config_hash(payload["config"])
    assert payload["summary"]["verdict"] == "GlobalLargeGamma"


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["decay", "--out", str(tmp_path)]) == 2
    assert cli.main(
        ["decay", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]
    ) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["atlas", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # a run without a pass criterion cannot satisfy --check
    assert cli.main(
        ["classify", "--n", "1", "--gamma", "1.0", "--p", "3.5",
         "--out", str(tmp_path), "--check"]
    ) == 2
    # wrongly typed values exit 2 with the key named, before any stepping
    grid = {"dim": 1, "size": 64, "half_length": 8.0}
    common = {"grid": grid, "profile": {"family": "power", "gamma": 0.5}, "p": 2.0, "dt": 0.02}
    simulate = {**common, "eps": 0.1, "t_max": 0.1}
    lifespan = {**common, "eps_values": [0.4, 0.2, 0.1], "t_cap": 0.1}
    cases = [
        ("lifespan", lifespan, {"dt": "abc"}, "dt"),
        ("lifespan", lifespan, {"eps_values": 0.1}, "eps_values"),
        ("lifespan", lifespan, {"dealias": "no"}, "dealias"),
        ("simulate", simulate, {"grid": {**grid, "dim": "x"}}, "dim"),
        ("simulate", simulate, {"check": {"l2_decreasing_factor": "x"}}, "l2_decreasing_factor"),
        ("simulate", simulate, {"dealias": "no"}, "dealias"),
        ("simulate", simulate, {"nonlinear": 0}, "nonlinear"),
        # integer keys reject non-integral values instead of truncating them
        ("simulate", simulate, {"grid": {**grid, "dim": 1.7}}, "dim"),
        ("simulate", simulate, {"record_every": 1.9}, "record_every"),
        ("simulate", simulate, {"record_fields_every": True}, "record_fields_every"),
        ("bump-check", {}, {"exponents": [3, 5.5]}, "exponents"),
        # no exponent leaves no row to write and nothing to certify
        ("bump-check", {}, {"exponents": []}, "exponents"),
        ("simulate", simulate, {"check": {"expect_outcome": "blowup"}}, "expect_outcome"),
        ("atlas", _TINY["atlas"], {"gamma": {"min": 0.5, "max": 1.0, "count": -1}}, "gamma"),
        ("atlas", _TINY["atlas"], {"p": {"min": 2.0, "max": 3.0, "count": 0}}, "p"),
        # an empty R list would pass --check with nothing checked; the fields
        # path does not exist, so the error must come before it is read
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"R_values": []}, "R_values"),
    ]
    cfgp = tmp_path / "typed.json"
    for command, base, change, key in cases:
        cfgp.write_text(json.dumps({**base, **change}))
        assert cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err, (command, change)


def test_lifespan_rel_tol_without_gamma_fails_before_stepping(tmp_path, monkeypatch, capsys):
    def stepping(sim):
        raise AssertionError("the ladder ran before the check was rejected")

    monkeypatch.setattr(harness, "measure_lifespan", stepping)
    cfgp = tmp_path / "lifespan.json"
    cfgp.write_text(json.dumps({
        "grid": _GRID, "profile": {"family": "laplacian_gaussian", "k": 1}, "p": 2.0,
        "eps_values": [0.4, 0.2, 0.1], "dt": 0.0625, "t_cap": 20.0,
        "check": {"rel_tol": 0.1},
    }))
    assert cli.main(["lifespan", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    assert "rel_tol" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fields_2d(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim2d")
    cfgp = out / "simulate.cfg.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 2, "size": 128, "half_length": 64.0}, "profile": {"family": "power", "gamma": 1.0},
        "eps": 0.05, "p": 2.0, "dt": 0.125, "t_max": 17.0, "record_fields_every": 2,
    }))
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    return str(out / "fields.npz")


def test_testfunc_2d_run_passes_the_weak_form_check(fields_2d, tmp_path, capsys):
    # R = 4 because the target grid has dx = 1: at R = 2 phi_R spans only 4
    # cells per radius, and the spatial quadrature error alone puts
    # identity_rel near 0.75
    cfgp = tmp_path / "testfunc.json"
    cfgp.write_text(json.dumps({
        "fields": fields_2d, "R_values": [4.0],
        "bump_grid": {"dim": 2, "size": 32, "half_length": 4.0},
        "time_points": 129, "check": {},
    }))
    out = str(tmp_path / "o")
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", out, "--check"]) == 0
    stdout = capsys.readouterr().out
    assert "check: pass" in stdout
    # phi_R's radius 2R = 8 spans 8 cells of dx = 1
    assert "R=4 cells_per_radius=8 " in stdout
    with open(f"{out}/testfunc.json", encoding="utf-8") as fh:
        (row,) = json.load(fh)["rows"]
    assert row["identity_rel"] < 0.01


def test_testfunc_bump_dim_mismatch_fails_before_weights(fields_2d, tmp_path, monkeypatch,
                                                        capsys):
    def building(*args, **kwargs):
        raise AssertionError("a bump or weight was built before the check was rejected")

    monkeypatch.setattr(testfunc, "weight_constant", building)
    monkeypatch.setattr(harness, "self_convolve", building)
    cfgp = tmp_path / "testfunc.json"
    # the default bump_grid is 1D
    cfgp.write_text(json.dumps({"fields": fields_2d, "R_values": [4.0]}))
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'bump_grid' has dim 1" in err and "archive has dim 2" in err


def test_testfunc_rejects_full_lattice_coefficients(fields_2d, tmp_path, capsys):
    # an archive whose u0_coeffs cover the full fftn lattice, not the half-spectrum
    with np.load(fields_2d) as z:
        arrays = dict(z)
    arrays["u0_coeffs"] = full_of(arrays["u0_coeffs"])
    old = str(tmp_path / "fields.npz")
    np.savez(old, **arrays)
    cfgp = tmp_path / "testfunc.json"
    cfgp.write_text(json.dumps({
        "fields": old, "R_values": [4.0],
        "bump_grid": {"dim": 2, "size": 32, "half_length": 4.0},
    }))
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "(128, 128)" in err and "(128, 65)" in err and "Traceback" not in err


def test_testfunc_rejects_an_imaginary_zero_mode(fields_2d, tmp_path, capsys):
    # coefficients no real field has: the stepper would have dropped the
    # imaginary zero mode without notice
    with np.load(fields_2d) as z:
        arrays = dict(z)
    arrays["u1_coeffs"][0, 0] = 1j * np.max(np.abs(arrays["u1_coeffs"]))
    bad = str(tmp_path / "fields.npz")
    np.savez(bad, **arrays)
    cfgp = tmp_path / "testfunc.json"
    cfgp.write_text(json.dumps({
        "fields": bad, "R_values": [4.0],
        "bump_grid": {"dim": 2, "size": 32, "half_length": 4.0},
    }))
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "u1 is not the spectrum of a real field" in err and "Traceback" not in err


def test_cli_check_failure_and_numerical_error(tmp_path, monkeypatch):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text("{}")

    def failing(cfg):
        return harness._result(
            "atlas", {"kind": "atlas"}, [{"gamma": 1.0, "p": 2.0, "verdict": "x"}],
            {"counts": {}, "thresholds": {}, "fujita": 3.0},
            {"passed": False, "details": {}},
        )

    monkeypatch.setitem(harness.RUNNERS, "atlas", failing)
    out = str(tmp_path / "o1")
    assert cli.main(["atlas", "--config", str(cfgp), "--out", out, "--check"]) == 4
    assert cli.main(["atlas", "--config", str(cfgp), "--out", out]) == 0

    def exploding(cfg):
        raise NumericalError("lost finiteness")

    monkeypatch.setitem(harness.RUNNERS, "atlas", exploding)
    assert cli.main(["atlas", "--config", str(cfgp), "--out", out]) == 3


def test_cli_import_loads_no_scipy():
    # the runtime is NumPy-only; SciPy is a test-time oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    code = (
        "import sys, dampedwave.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
