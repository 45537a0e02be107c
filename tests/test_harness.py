"""Experiment drivers, deterministic outputs, CLI exit codes."""

import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dampedwave import cli, exponents, harness
from dampedwave.errors import ConfigError, NumericalError
from dampedwave.grid import Grid, full_of
from dampedwave.profiles import power_profile


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
    # a dict kind is the spec of a nested section, whose errors name its key
    spec = {"check": ({"tol": (float, 0.5)}, None)}
    assert harness._take({}, "x", spec) == {"check": None}
    assert harness._take({"check": {}}, "x", spec) == {"check": {"tol": 0.5}}
    with pytest.raises(ConfigError, match="x: 'check': bad value 'a' for 'tol'"):
        harness._take({"check": {"tol": "a"}}, "x", spec)
    with pytest.raises(ConfigError, match="unknown keys in x: 'check'"):
        harness._take({"check": {"tl": 1.0}}, "x", spec)


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
    resolved = harness._profile({"family": "power", "gamma": 0.5})
    assert resolved == {"family": "power", "gamma": 0.5, "r0": 0.5, "scale": 1.0}
    field = harness.build_profile(g, resolved)
    assert np.array_equal(field.coeffs, power_profile(g, 0.5).coeffs)
    with pytest.raises(ConfigError, match="family"):
        harness._profile({"gamma": 0.5})
    with pytest.raises(ConfigError, match="unknown profile family"):
        harness._profile({"family": "spiral", "gamma": 0.5})
    with pytest.raises(ConfigError, match="missing keys"):
        harness._profile({"family": "log"})
    with pytest.raises(ConfigError, match="unknown keys"):
        harness._profile({"family": "power", "gamma": 0.5, "k": 1})


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
        assert Path(a).read_bytes() == Path(b).read_bytes()
    # rerunning into the same directory rewrites the same bytes
    before = Path(p1[1]).read_bytes()
    harness.emit_outputs(harness.run_classify({"n": 2, "gamma": 0.5, "p": 2.0}), str(d1))
    assert Path(p1[1]).read_bytes() == before


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
        "testfunc": "a27a9dd9c7f7",
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
    lines = Path(paths[0]).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,p,verdict,config_hash"
    assert lines[1].endswith("," + res["config_hash"])
    assert lines[1].startswith("0.25,2.0,BlowupSubcritical")
    assert Path(paths[0]).read_bytes().endswith(b"\n")


def test_json_payload_schema(tmp_path):
    res = harness.run_classify({"n": 1, "gamma": 0.25, "p": 2.0})
    paths = harness.emit_outputs(res, str(tmp_path))
    payload = json.loads(Path(paths[1]).read_text(encoding="utf-8"))
    assert payload["schema"] == 1
    assert payload["kind"] == "classify"
    assert payload["config_hash"] == res["config_hash"]
    assert payload["rows"] == res["rows"]


def test_json_sanitizes_nonfinite(tmp_path):
    path = str(tmp_path / "x.json")
    harness.write_json(
        path, {"a": math.inf, "b": math.nan, "c": [-math.inf, 1.5]}
    )
    back = json.loads(Path(path).read_text())
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
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    with np.load(p1) as loaded:
        assert sorted(loaded.files) == ["eps", "snapshots", "times"]
        assert np.array_equal(loaded["snapshots"], arrays["snapshots"])
        assert float(loaded["eps"]) == 0.25


@pytest.mark.parametrize("kind", ["scalar", "float_1d", "complex_2d", "fortran", "strided"])
def test_field_archive_members_match_write_array(tmp_path, kind):
    rng = np.random.default_rng(3)
    arr = {
        "scalar": np.array(0.25),
        "float_1d": rng.standard_normal(17),
        "complex_2d": rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)),
        "fortran": np.asfortranarray(rng.standard_normal((6, 3))),
        "strided": rng.standard_normal((8, 9))[::2, 1::3],
    }[kind]
    path = str(tmp_path / "a.npz")
    harness.write_field_archive(path, {"x": arr})
    expected = io.BytesIO()
    np.lib.format.write_array(expected, arr)
    with zipfile.ZipFile(path) as zf:
        assert zf.read("x.npy") == expected.getvalue()


def test_field_archive_streams_without_a_copy(tmp_path):
    # each array's own buffer goes into the temp file, so the traced peak
    # stays a small part of its size; chunked copies would show here
    big = np.ones(4 * 1024 * 1024)  # 32 MiB
    path = str(tmp_path / "big.npz")
    tracemalloc.start()
    try:
        harness.write_field_archive(path, {"snapshots": big})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes / 8, peak / big.nbytes
    with np.load(path) as loaded:
        assert np.array_equal(loaded["snapshots"], big)


def test_field_archive_failure_leaves_nothing_behind(tmp_path):
    path = tmp_path / "fields.npz"
    path.write_bytes(b"old archive")
    # arrays go in name order: "b" is ragged, so np.asarray raises after "a"
    # has been written into the temp file
    with pytest.raises(ValueError):
        harness.write_field_archive(str(path), {"a": np.zeros(3), "b": [[1.0], [1.0, 2.0]]})
    assert os.listdir(tmp_path) == ["fields.npz"]
    assert path.read_bytes() == b"old archive"


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
    # the lifespan job steps the solver inside a worker process
    cfg = _sweep_cfg()
    cfg["jobs"].append({"name": "j3", "kind": "lifespan", "config": _TINY["lifespan"]})
    d1, d2 = str(tmp_path / "serial"), str(tmp_path / "par")
    r1 = harness.run_sweep(cfg, d1, threads=1)
    r2 = harness.run_sweep(cfg, d2, threads=2)
    assert r1["rows"] == r2["rows"]
    assert r1["check"]["passed"] and r2["check"]["passed"]
    for job, kind in (("j1", "classify"), ("j2", "atlas"), ("j3", "lifespan")):
        for ext in ("csv", "json"):
            a = Path(f"{d1}/{job}/{kind}.{ext}").read_bytes()
            b = Path(f"{d2}/{job}/{kind}.{ext}").read_bytes()
            assert a == b, (job, ext)


# the start method harness._map gives its pool
_START = "fork" if sys.platform == "linux" else "spawn"


def test_sweep_pool_size_and_serial_path(tmp_path, monkeypatch):
    import concurrent.futures

    # a real pool: a ladder given out of eps order gives the same result in
    # worker processes as in this one
    ladder = {**_TINY["lifespan"], "eps_values": [1.5, 2.0, 1.0]}
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pooled = harness.run_lifespan(ladder)
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = harness.run_lifespan(ladder)
    assert pooled == serial
    assert [r["eps"] for r in pooled["rows"]] == [1.5, 2.0, 1.0]
    assert multiprocessing.active_children() == []

    built, submitted = [], []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, runs jobs inline."""

        def __init__(self, max_workers, mp_context):
            built.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            submitted.append(list(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    r = harness.run_sweep(_sweep_cfg(), str(tmp_path / "wide"), threads=64)
    assert built == [(2, _START)]
    assert [row["name"] for row in r["rows"]] == ["j1", "j2"]
    harness.run_sweep(_sweep_cfg(), str(tmp_path / "serial"), threads=1)
    assert built == [(2, _START)]

    # a ladder: min(CPUs, members) workers, smallest eps submitted first
    built.clear()
    cpus = len(os.sched_getaffinity(0))
    r = harness.run_lifespan(ladder)
    assert r == serial
    assert built == ([(min(cpus, 3), _START)] if cpus > 1 else [])
    for affinity, workers in (({0, 1}, 2), (set(range(8)), 3)):
        built.clear()
        submitted.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, a=affinity: a)
        harness.run_lifespan(ladder)
        assert built == [(workers, _START)]
        assert [sim.data.eps for sim in submitted[0]] == [1.0, 1.5, 2.0]
    # no pool on one CPU, nor inside a pool worker
    built.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    harness.run_lifespan(ladder)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(multiprocessing, "parent_process", multiprocessing.current_process)
    harness.run_lifespan(ladder)
    assert built == []


@pytest.mark.skipif(sys.platform != "linux", reason="spawned workers need a main guard")
def test_pool_runs_from_a_script_without_a_main_guard(tmp_path, monkeypatch):
    # forked workers do not re-import the script that started the pool
    script = tmp_path / "ladder.py"
    script.write_text(
        "import json, os, sys\n"
        "from dampedwave import harness\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print(json.dumps(harness.run_lifespan(json.loads(sys.argv[1]))['rows']))\n"
    )
    ladder = _TINY["lifespan"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run(
        [sys.executable, str(script), json.dumps(ladder)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert json.loads(out.stdout) == harness.run_lifespan(ladder)["rows"]


def test_sweep_worker_config_error_exits_2(tmp_path, capsys):
    cfg = _sweep_cfg()
    cfg["jobs"][1]["config"]["colour"] = "red"
    cfgp = tmp_path / "sweep.json"
    cfgp.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--config", str(cfgp), "--out", out, "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "colour" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_lifespan_worker_config_error_exits_2(tmp_path, monkeypatch, capsys):
    # eps 1e9 puts the initial amplitude past the blow-up threshold; with the
    # parent's step-0 check switched off, measure_lifespan raises ConfigError
    # inside a worker process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(harness, "check_start", lambda sims: None)
    cfgp = tmp_path / "lifespan.json"
    cfgp.write_text(json.dumps({
        "grid": _GRID, "profile": {"family": "power", "gamma": 1.0}, "p": 2.0,
        "eps_values": [0.2, 1e9, 0.1], "dt": 0.0625, "t_cap": 1.0,
    }))
    assert cli.main(["lifespan", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "blow-up threshold" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_lifespan_step0_gate_runs_before_any_member(tmp_path, monkeypatch, capsys):
    # two of the ladder workload's members and one past the threshold:
    # the parent rejects it before a member steps or a worker starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfgp = tmp_path / "lifespan.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 1, "size": 2048, "half_length": 256.0},
        "profile": {"family": "power", "gamma": 1.0}, "p": 2.0,
        "eps_values": [0.4, 0.1, 1e9], "dt": 0.03125, "t_cap": 600.0,
        "check": {"max_slope": 4.3, "min_uncensored": 3},
    }))
    t0 = time.monotonic()
    rc = cli.main(["lifespan", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    took = time.monotonic() - t0
    assert rc == 2 and took < 1.0, took
    err = capsys.readouterr().err
    assert err.startswith("config error: initial amplitude") and err.count("\n") == 1, err
    assert multiprocessing.active_children() == []


def test_sweep_name_and_kind_validation(tmp_path):
    bad = _sweep_cfg()
    bad["jobs"][1]["name"] = "j1"
    with pytest.raises(ConfigError, match="duplicate"):
        harness.run_sweep(bad, str(tmp_path))
    for name in ("a/b", "a\0b"):
        bad = _sweep_cfg()
        bad["jobs"][0]["name"] = name
        with pytest.raises(ConfigError, match="bad or duplicate name"):
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
    flags = ["classify", "--n", "1", "--gamma", "1.0", "--p", "3.5", "--out", out]
    # --seed is no flag: runs are deterministic, and no runner takes a seed
    with pytest.raises(SystemExit) as exc:
        cli.main(flags + ["--seed", "7"])
    assert exc.value.code == 2
    assert cli.main(flags) == 0
    payload = json.loads(Path(f"{out}/classify.json").read_text())
    assert payload["config_hash"] == harness.config_hash(payload["config"])
    assert payload["summary"]["verdict"] == "GlobalLargeGamma"


def test_cli_config_errors(tmp_path, capsys, monkeypatch, fields_2d):
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
    gaussian = {**common, "profile": {"family": "laplacian_gaussian", "k": 1}}
    cases = [
        ("lifespan", lifespan, {"dt": "abc"}, "dt"),
        ("lifespan", lifespan, {"eps_values": 0.1}, "eps_values"),
        ("lifespan", lifespan, {"dealias": "no"}, "dealias"),
        # repeated amplitudes leave nothing to fit a slope to: NaN, not a result
        ("lifespan", _TINY["lifespan"], {"eps_values": [0.5, 0.5, 0.5]}, "eps_values"),
        # two amplitudes leave no slope to check a fit against
        ("lifespan", lifespan, {"eps_values": [0.4, 0.2]}, "eps_values"),
        ("simulate", simulate, {"grid": {**grid, "dim": "x"}}, "dim"),
        ("simulate", simulate, {"check": {"l2_decreasing_factor": "x"}}, "l2_decreasing_factor"),
        ("simulate", simulate, {"dealias": "no"}, "dealias"),
        ("simulate", simulate, {"nonlinear": 0}, "nonlinear"),
        # settings every run shares are not config keys: setting one is an
        # unknown key, even to the value the run uses
        ("simulate", _TINY["simulate"], {"s": 1.0}, "s"),
        ("simulate", _TINY["simulate"], {"weight_gamma": 0.5}, "weight_gamma"),
        ("simulate", _TINY["simulate"], {"policy": "exclude"}, "policy"),
        ("decay", _TINY["decay"], {"weight_gamma": 0.5}, "weight_gamma"),
        ("decay", _TINY["decay"], {"policy": "exclude"}, "policy"),
        # runs are deterministic: a seed is an unknown key like any other
        ("classify", {"n": 1, "gamma": 0.25, "p": 2.0}, {"seed": 3}, "seed"),
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"exponent": 5}, "exponent"),
        ("bump-check", {}, {"tol": 1e-8}, "tol"),
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
        # R^2 ends the window the archive is read up to: it must be finite
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"R_values": [1e200]}, "R_values"),
        # the trapezoid weights need two time points; checked before the read
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"time_points": 1}, "time_points"),
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"time_points": 0}, "time_points"),
        ("testfunc", {"fields": str(tmp_path / "none.npz")}, {"time_points": -3}, "time_points"),
        # the bump is the radial table in every dimension: no grid to name
        ("testfunc", {"fields": str(tmp_path / "none.npz")},
         {"bump_grid": {"dim": 1, "size": 512, "half_length": 4.0}}, "bump_grid"),
        # JSON NaN and Infinity are not numbers a run can use; the base
        # configs run as given
        ("simulate", _TINY["simulate"], {"profile": {**_POWER, "scale": math.nan}}, "scale"),
        ("simulate", _TINY["simulate"], {"profile": {**_POWER, "scale": math.inf}}, "scale"),
        ("simulate", _TINY["simulate"], {"t_max": math.inf}, "t_max"),
        ("lifespan", _TINY["lifespan"], {"profile": {**_POWER, "scale": math.nan}}, "scale"),
        ("decay", _TINY["decay"], {"profile": {**_POWER, "scale": math.nan}}, "scale"),
        ("decay", _TINY["decay"], {"times": [1.0, 2.0, math.nan]}, "times"),
        # the expected slopes come from the profile's gamma: no gamma, no check
        ("decay", _TINY["decay"], {"profile": {"family": "laplacian_gaussian", "k": 1},
                                   "check": {}}, "gamma"),
        ("decay", _TINY["decay"], {"profile": {"family": "laplacian_gaussian", "k": 1}},
         "gamma"),
        # |xi|^400 overflows: a profile with inf coefficients is rejected by family
        ("decay", _TINY["decay"], {"grid": {**grid, "half_length": 4.0},
                                   "profile": {"family": "laplacian_gaussian", "k": 200}},
         "laplacian_gaussian"),
        # a run counts t_max in ticks of dt / 2**20; too many to count is
        # refused before any step, also where the ladder's workers would count
        ("simulate", {**gaussian, "eps": 0.1, "t_max": 0.1}, {"dt": 5e-324}, "dt"),
        ("lifespan", {**gaussian, "eps_values": [0.4, 0.2, 0.1], "t_cap": 0.1},
         {"dt": 5e-324}, "dt"),
        ("lifespan", {**gaussian, "eps_values": [0.4, 0.2, 0.1], "t_cap": 1000.0},
         {"dt": 1e-300}, "dt"),
    ]

    def stepping(self):
        raise AssertionError("stepped before the config error")

    monkeypatch.setattr("dampedwave.solver.Stepper.start", stepping)
    cfgp = tmp_path / "typed.json"
    capsys.readouterr()
    for command, base, change, key in cases:
        cfgp.write_text(json.dumps({**base, **change}))
        assert cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err, (command, change)
        assert err.startswith("config error:") and err.count("\n") == 1, (command, change)
    # fields archives that are not an archive, are cut short, hold an array
    # where a number belongs, hold NaN snapshots from the 6th on or in the
    # last row only, or hold snapshots of the wrong shape
    with np.load(fields_2d) as z:
        arrays = dict(z)
    with open(fields_2d, "rb") as fh:
        raw = fh.read()
    nan_late = arrays["snapshots"].copy()
    nan_late[5:] = np.nan
    nan_last = arrays["snapshots"].copy()
    nan_last[-1, -1, -1] = np.nan
    # an interior inf coefficient: the mirror-plane defect divides by
    # max|c| = inf and reads 0, so finiteness is checked on its own
    inf_u0 = arrays["u0_coeffs"].copy()
    inf_u0[3, 3] = np.inf
    # check_bounds' searchsorted and trapezoid need increasing times
    unsorted = arrays["times"].copy()
    unsorted[[10, 20]] = unsorted[[20, 10]]
    archives = {
        "garbage": b"garbage",
        "truncated": raw[: len(raw) // 2],
        "dim_array": {**arrays, "dim": np.array([2, 2])},
        "nan_late": {**arrays, "snapshots": nan_late},
        "nan_last": {**arrays, "snapshots": nan_last},
        "scalar_snapshots": {**arrays, "snapshots": np.array(1.0)},
        "flat_snapshots": {**arrays, "snapshots": arrays["snapshots"][:, 0]},
        "inf_u0": {**arrays, "u0_coeffs": inf_u0},
        "unsorted_times": {**arrays, "times": unsorted},
        "short_times": {**arrays, "times": arrays["times"][:-1]},
        "times_2d": {**arrays, "times": arrays["times"][:, None]},
        "no_times": {**arrays, "times": arrays["times"][:0],
                     "snapshots": arrays["snapshots"][:0]},
    }
    errs = {}
    for name, content in archives.items():
        path = tmp_path / f"{name}.npz"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.savez(path, **content)
        cfgp.write_text(json.dumps({
            "fields": str(path), "R_values": [4.0], "time_points": 129,
        }))
        assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = errs[name] = capsys.readouterr().err
        # the path is named once, also where the message already holds it
        assert err.count(str(path)) == 1, name
        assert err.startswith("config error:") and err.count("\n") == 1, name
    assert "u0 has non-finite coefficients" in errs["inf_u0"]
    assert "non-finite times or snapshots" in errs["nan_last"]
    assert "do not stack fields of shape (128, 128)" in errs["scalar_snapshots"]
    assert "times that do not strictly increase" in errs["unsorted_times"]
    for name in ("short_times", "times_2d", "no_times"):
        assert "snapshots must stack one field per time" in errs[name], name


def test_unusable_output_paths_exit_2(tmp_path, capsys):
    # a job name longer than a file name may be, written by a pool worker,
    # and an --out that is a file: each is one config error naming the path
    job = {"kind": "classify", "config": {"n": 1, "gamma": 1.0, "p": 3.5}}
    cfgp = tmp_path / "sweep.json"
    cfgp.write_text(json.dumps({"jobs": [{"name": "ok", **job}, {"name": "x" * 300, **job}]}))
    out = tmp_path / "o"
    afile = tmp_path / "afile"
    afile.write_text("")
    runs = [
        (["sweep", "--config", str(cfgp), "--out", str(out), "--threads", "2"],
         out / ("x" * 300)),
        (["classify", "--n", "1", "--gamma", "1", "--p", "3.5", "--out", str(afile)], afile),
    ]
    for args, path in runs:
        assert cli.main(args) == 2, args[0]
        err = capsys.readouterr().err
        assert f"cannot write outputs to {path}" in err, err
        assert err.startswith("config error:") and err.count("\n") == 1, err


def test_unusable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    # --out is made and written to before the runner is called, and each
    # sweep job's directory before the pool starts
    def running(*args):
        raise AssertionError("ran before the output path was refused")

    monkeypatch.setitem(harness.RUNNERS, "simulate", running)
    monkeypatch.setattr(harness, "_map", running)
    afile = tmp_path / "afile"
    afile.write_text("")
    cfgp = tmp_path / "sim.json"
    cfgp.write_text(json.dumps(_TINY["simulate"]))
    job = {"kind": "classify", "config": {"n": 1, "gamma": 1.0, "p": 3.5}}
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"jobs": [{"name": "ok", **job}, {"name": "x" * 300, **job}]}))
    out = tmp_path / "o"
    runs = [
        (["simulate", "--config", str(cfgp), "--out", str(afile)], afile),
        (["sweep", "--config", str(sweep), "--out", str(out), "--threads", "2"],
         out / ("x" * 300)),
    ]
    for args, path in runs:
        assert cli.main(args) == 2, args[0]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write outputs to {path}: "), err
        assert err.count("\n") == 1, err


def test_testfunc_fields_must_be_a_string(tmp_path, capsys):
    cfgp = tmp_path / "testfunc.json"
    for value in (None, 3):
        cfgp.write_text(json.dumps({"fields": value}))
        assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: testfunc config: bad value {value!r} for 'fields': "
                       "expected a string\n"), err


def test_impossible_snapshot_reservation_exits_2(tmp_path, monkeypatch, capsys):
    # 1.6e13 snapshots of 64 bytes: far beyond any address space, so the
    # reservation fails outright and nothing is allocated or stepped
    def stepping(self):
        raise AssertionError("stepped before the reservation was refused")

    monkeypatch.setattr("dampedwave.solver.Stepper.start", stepping)
    cfgp = tmp_path / "sim.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 1, "size": 8, "half_length": 2.0},
        "profile": {"family": "laplacian_gaussian", "k": 1}, "eps": 0.1, "p": 2.0,
        "dt": 0.0625, "t_max": 1e12, "record_fields_every": 1,
    }))
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    count = 16 * 10**12 + 1
    assert err == (f"config error: cannot reserve {count} field snapshots ({count * 64} bytes) "
                   "for t_max / dt / record_fields_every\n")
    assert count * 64 > 2**48


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


@pytest.fixture(scope="module")
def fields_2d_fine(tmp_path_factory):
    # dx = 0.5: phi_R's radius 2R = 8 at R = 4 spans 16 cells
    out = tmp_path_factory.mktemp("sim2d_fine")
    cfgp = out / "simulate.cfg.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 2, "size": 256, "half_length": 64.0},
        "profile": {"family": "power", "gamma": 1.0},
        "eps": 0.05, "p": 2.0, "dt": 0.0625, "t_max": 17.0, "record_fields_every": 4,
    }))
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    return str(out / "fields.npz")


def test_testfunc_2d_run_passes_the_weak_form_check(fields_2d_fine, tmp_path, capsys):
    # at 8 cells per radius (dx = 1) the spatial quadrature error alone puts
    # identity_rel near 0.06 with the certified bump; 16 cells bring it to
    # about 1e-4
    cfgp = tmp_path / "testfunc.json"
    cfgp.write_text(json.dumps({
        "fields": fields_2d_fine, "R_values": [4.0], "time_points": 129, "check": {},
    }))
    out = str(tmp_path / "o")
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", out, "--check"]) == 0
    stdout = capsys.readouterr().out
    assert "check: pass" in stdout
    # fields every 0.25 up to t = 17: 64 intervals in [0, R^2]
    assert "R=4 cells_per_radius=16 intervals_per_window=64 " in stdout
    with open(f"{out}/testfunc.json", encoding="utf-8") as fh:
        (row,) = json.load(fh)["rows"]
    assert row["identity_rel"] < 0.01


def test_testfunc_reads_a_compressed_archive(fields_2d, tmp_path):
    # a deflated snapshots member is read through the same windowed reader
    with np.load(fields_2d) as z:
        arrays = dict(z)
    packed = str(tmp_path / "packed.npz")
    np.savez_compressed(packed, **arrays)
    with zipfile.ZipFile(packed) as zf:
        assert zf.getinfo("snapshots.npy").compress_type == zipfile.ZIP_DEFLATED
    rows = [
        harness.run_testfunc({"fields": path, "R_values": [2.0, 4.0], "time_points": 129})["rows"]
        for path in (fields_2d, packed)
    ]
    assert rows[0] == rows[1]


_MEMORY_SCRIPT = """\
import json, resource, sys
from dampedwave import harness
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sim, out = json.loads(sys.argv[1]), sys.argv[2]
harness.emit_outputs(harness.run_simulate(sim), out)
res = harness.run_testfunc({"fields": out + "/fields.npz", "R_values": [2.5],
                            "time_points": 65})
print(json.dumps([1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base),
                  res["rows"][0]["identity_rel"]]))
"""


def test_simulate_and_testfunc_hold_no_snapshot_stack(tmp_path):
    # 961 snapshots of 32 KiB (31.5 MB), R^2 = 6.25 keeps 201 of them: a
    # stage that held every snapshot would grow the peak by at least that much
    sim = {
        "grid": {"dim": 1, "size": 4096, "half_length": 512.0},
        "profile": {"family": "power", "gamma": 0.25}, "eps": 0.015, "p": 2.0,
        "dt": 0.03125, "t_max": 30.0, "record_every": 64, "record_fields_every": 1,
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT, json.dumps(sim), str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth, identity_rel = json.loads(proc.stdout)
    snapshot_bytes = 961 * 4096 * 8
    with np.load(out / "fields.npz") as z:
        assert z["times"].size == 961
    assert math.isfinite(identity_rel)
    assert growth < snapshot_bytes / 2, growth / snapshot_bytes


def test_testfunc_holds_a_few_blocks_whatever_the_window(tmp_path):
    # rows of 32 KiB, 8 to a block: R = 2 windows of 65 and 513 rows span
    # about 8 and 64 blocks, and a pass that held its window would hold
    # 2 MB or 16 MB of it
    rng = np.random.default_rng(3)
    zero = np.zeros(2049, dtype=complex)
    peaks = []
    for rows in (65, 513):
        path = str(tmp_path / f"w{rows}.npz")
        np.savez(path, dim=1, size=4096, half_length=512.0, u0_coeffs=zero, u1_coeffs=zero,
                 eps=0.05, p=2.0, times=np.linspace(0.0, 4.0, rows),
                 snapshots=rng.standard_normal((rows, 4096)))
        tracemalloc.start()
        try:
            harness.run_testfunc({"fields": path, "R_values": [2.0], "time_points": 65})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    spatial_factors = 2 * 4096 * 8
    assert max(peaks) < 5 * harness.BLOCK_BYTES + spatial_factors, peaks
    assert max(peaks) < 1.1 * min(peaks), peaks


def test_testfunc_reads_fields_that_end_just_short_of_r_squared(tmp_path, capsys):
    # 40 steps of dt = 0.03025 end at t = 1.21, one ulp short of 1.1**2:
    # R = 1.1's window is the whole archive
    out = tmp_path / "sim"
    cfgp = tmp_path / "simulate.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 1, "size": 512, "half_length": 64.0},
        "profile": {"family": "power", "gamma": 1.0},
        "eps": 0.05, "p": 2.0, "dt": 0.03025, "t_max": 1.21, "record_fields_every": 1,
    }))
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    with np.load(out / "fields.npz") as z:
        assert z["times"].size == 41 and z["times"][-1] < 1.1**2
    cfgp.write_text(json.dumps({
        "fields": str(out / "fields.npz"), "R_values": [1.1], "time_points": 65,
    }))
    capsys.readouterr()
    assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    assert "R=1.1 cells_per_radius=8.8 intervals_per_window=40 " in capsys.readouterr().out


def test_testfunc_names_a_snapshots_member_that_ends_early(fields_2d, tmp_path):
    # the header promises one more snapshot value than the member holds
    with np.load(fields_2d) as z:
        arrays = dict(z)
    npy = io.BytesIO()
    np.save(npy, arrays.pop("snapshots"))
    path = tmp_path / "short.npz"
    np.savez(path, **arrays)
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("snapshots.npy", npy.getvalue()[:-8])
    with pytest.raises(ConfigError, match="is malformed: the snapshots member ends early"):
        harness.run_testfunc({"fields": str(path), "R_values": [4.0], "time_points": 129})


def test_testfunc_archive_faults_come_before_any_snapshot_read(fields_2d, tmp_path,
                                                              monkeypatch, capsys):
    # a box phi_R does not fit, fields that end before R^2, a bad header and
    # bad times each exit 2 with the message a full read gives, with no
    # snapshot byte read
    with np.load(fields_2d) as z:
        arrays = dict(z)
    nan_time = arrays["times"].copy()
    nan_time[3] = np.nan
    unsorted = arrays["times"].copy()
    unsorted[[10, 20]] = unsorted[[20, 10]]
    # fields_2d: dx = 1 and L = 64, fields up to t = 17
    cases = {
        "no_fit": (arrays, 32.0, "dilated support radius 2R = 64 does not fit the box"),
        "short": (arrays, 4.5, "fields end at t = 17, before the cutoff window closes "
                               "at R^2 = 20.25"),
        "shape": ({**arrays, "snapshots": arrays["snapshots"][:, 0]}, 4.0,
                  "do not stack fields of shape (128, 128)"),
        "fortran": ({**arrays, "snapshots": np.asfortranarray(arrays["snapshots"])}, 4.0,
                    "must be a C-ordered array of numbers"),
        "count": ({**arrays, "times": arrays["times"][:-1]}, 4.0,
                  "snapshots must stack one field per time"),
        "nan_time": ({**arrays, "times": nan_time}, 4.0, "non-finite times or snapshots"),
        "unsorted": ({**arrays, "times": unsorted}, 4.0,
                     "times that do not strictly increase"),
    }
    cfgp = tmp_path / "testfunc.json"

    def testfunc_err(path, R):
        cfgp.write_text(json.dumps({"fields": path, "R_values": [R], "time_points": 129}))
        assert cli.main(["testfunc", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        return capsys.readouterr().err

    def reading(*args):
        raise AssertionError("read a snapshot before the fault was found")
        yield

    capsys.readouterr()
    for name, (content, R, message) in cases.items():
        path = str(tmp_path / f"{name}.npz")
        np.savez(path, **content)
        full = testfunc_err(path, R)
        assert message in full and full.count("\n") == 1, (name, full)
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_read_blocks", reading)
            assert testfunc_err(path, R) == full, name


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


_QUICK_LADDER = {
    "grid": _GRID, "profile": {"family": "power", "gamma": 1.0}, "p": 2.0,
    "eps_values": [1.0, 0.8, 0.6], "dt": 0.0625, "t_cap": 60.0,
}


@pytest.mark.parametrize("kind,cfg,code", [
    # every member ends by losing finiteness
    pytest.param("lifespan", dict(_QUICK_LADDER, blowup_threshold=1e300), 0, id="threshold"),
    # eps * data overflows at step 0, before the config error
    pytest.param("lifespan", dict(_QUICK_LADDER, eps_values=[1.0, 0.8, 1e300]), 2, id="eps"),
    pytest.param("simulate", {"grid": _GRID, "profile": {"family": "power", "gamma": 1.0},
                              "eps": 1e300, "p": 2.0, "dt": 0.0625, "t_max": 2.0}, 2,
                 id="simulate-eps"),
    # |u|^p overflows at once where max|u| > 1, and the step level
    # max|u|^((p-1)/2) would overflow a float
    pytest.param("lifespan", dict(_QUICK_LADDER, p=1e9, eps_values=[2.0, 4.0, 8.0]), 0,
                 id="p"),
    # the shifted seed's |x - c|^2 would overflow before it is found empty
    pytest.param("bump-check", {"shifted_center": 1e160}, 2, id="bump-center"),
])
def test_cli_overflow_is_quiet(tmp_path, kind, cfg, code):
    # a fresh process, so NumPy's warnings reach its stderr as a user sees them
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "dampedwave.cli", kind, "--config", str(cfgp),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert out.returncode == code, out.stderr
    assert "RuntimeWarning" not in out.stderr and "Traceback" not in out.stderr, out.stderr


def test_decay_at_the_branch_point_is_finite_and_quiet(tmp_path):
    # mode k = 100 sits at D = 1/4 - |xi|^2 = 9.0e-5, inside DELTA; at t = 1e5
    # its multiplier is far below the smallest float, not NaN
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 1, "size": 4096, "half_length": 628.431659},
        "profile": {"family": "power", "gamma": 0.5}, "times": [1e3, 1e4, 1e5],
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "dampedwave.cli", "decay", "--config", str(cfgp),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert out.returncode == 0 and out.stderr == "", out.stderr
    rows = json.loads((tmp_path / "o" / "decay.json").read_text())["rows"]
    assert [r["t"] for r in rows] == [1e3, 1e4, 1e5]
    for r in rows:
        for key in ("l2", "linf", "hs", "hdotneg", "seminorm"):
            assert isinstance(r[key], float) and math.isfinite(r[key]), (r["t"], key)


def test_decay_without_profile_gamma_has_no_expected_slopes(tmp_path, capsys):
    # laplacian_gaussian has no gamma: the negative-order norm is weighed at
    # 0.5, but there is no slope to expect
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "grid": {"dim": 1, "size": 1024, "half_length": 64.0},
        "profile": {"family": "laplacian_gaussian", "k": 1}, "times": [1.0, 2.0, 4.0],
    }))
    assert cli.main(["decay", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("l2 slope ") and line.count("(expected n/a)") == 2, line
    payload = json.loads((tmp_path / "o" / "decay.json").read_text())
    assert payload["summary"]["expected_l2_slope"] is None
    assert payload["summary"]["expected_seminorm_slope"] is None
    assert payload["config"]["weight_gamma"] == 0.5
    assert payload["config_hash"] == harness.config_hash(payload["config"])


def test_cli_import_loads_no_scipy():
    # the runtime is NumPy-only; SciPy is a test-time oracle.  The sweep's
    # process pool is imported only when a sweep runs in parallel.
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    code = (
        "import sys, dampedwave.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') "
        "or m == 'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
