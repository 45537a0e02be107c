#!/usr/bin/env python3
"""System benchmark for dampedwave: CLI runs timed end to end and by layer.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 32 --trace 0

Run from the repository root.  Each run of a workload calls
dampedwave.cli.main in a fresh interpreter (child.py) against the
checkout's own src/, checks the outputs (gate.py) and repeats until
--seconds would be exceeded.  With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of traced runs (tracing.py), alternated with untraced
runs to measure the tracing overhead.  Every metric is also printed by
name with its unit, and the full record (samples, machine, versions) is
written to perfbench/_runs/<workload>/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import gate  # noqa: E402

WORKLOADS = ("ladder", "record", "grid2d", "sweep2")
# set-up-only interpreter starts per untraced run; each workload run adds one more
SETUP_SPAWNS = 2
CHILD_TIMEOUT_S = 150
# seed != 0 scales each eps by its own factor drawn from [1 - EPS_JITTER, 1 + EPS_JITTER]
EPS_JITTER = 0.02
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "DAMPEDWAVE_PURE_PYTHON",
)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "calls": "count", "steps": "count", "bytes": "B", "busy_s": "s", "self_s": "s",
    "import_s": "s", "us_per_call": "us", "us_per_step": "us",
    "computed_bytes_per_call": "B", "tail_share": "ratio", "uncensored_ratio": "ratio",
    "efficiency": "ratio", "overhead_frac": "ratio",
}


def materialise(spec: dict, seed: int, work: str) -> list:
    """Write this seed's CLI configs under work; one step dict per CLI call.

    Seed 0 keeps the configs as checked in.  Any other seed scales every
    eps (and every entry of eps_values) by its own seeded factor within
    +-EPS_JITTER, so a gain can be confirmed on inputs not used while
    writing it.
    """
    rng = random.Random(seed)

    def jitter(obj):
        if isinstance(obj, dict):
            out = {}
            for key, val in obj.items():
                if seed and key == "eps":
                    out[key] = val * rng.uniform(1 - EPS_JITTER, 1 + EPS_JITTER)
                elif seed and key == "eps_values":
                    out[key] = [v * rng.uniform(1 - EPS_JITTER, 1 + EPS_JITTER) for v in val]
                else:
                    out[key] = jitter(val)
            return out
        if isinstance(obj, list):
            return [jitter(v) for v in obj]
        return obj

    rel = os.path.relpath(work, ROOT)
    outs = [os.path.join(rel, f"out{i}") for i in range(len(spec["steps"]))]
    steps = []
    for i, step in enumerate(spec["steps"]):
        cfg = json.loads(
            json.dumps(jitter(step["config"]))
            .replace("{out:0}", outs[0])
        )
        path = os.path.join(rel, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)
        argv = [step["command"], "--config", path, "--out", outs[i], "--check"]
        steps.append({
            "command": step["command"],
            "config": cfg,
            "out": outs[i],
            "argv": argv + step.get("args", []),
        })
    return steps


def machine() -> dict:
    """Machine and library details recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    versions = {}
    for lib in ("numpy", "scipy"):
        try:
            versions[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            versions[lib] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def spawn(job_path: str, mode: str, result_path: str, log) -> dict | None:
    """Run child.py once; its result dict, or None if it did not finish."""
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), job_path]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(t_spawn), mode, result_path],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples: list):
    """(percentile, value): the highest percentile with ten samples above it."""
    if len(samples) < 11:
        return None
    k = len(samples) - 11
    return 100.0 * (k + 1) / len(samples), sorted(samples)[k]


def summary_line(name: str, value: float, unit: str, samples: list | None = None) -> str:
    text = f"  {name:<44} {value:>14.6g} {unit}"
    if samples is not None:
        pct = tail(samples)
        text += f"   median of n={len(samples)}"
        text += f", p{pct[0]:.0f}={pct[1]:.6g}" if pct else ", tail percentile needs n >= 11"
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "dampedwave", "cli.py")):
        print("perfbench: no src/dampedwave/cli.py here; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads", f"{args.workload}.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(HERE, "_runs", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steps = materialise(spec, args.seed, work)
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({
            "config": steps[0]["argv"][2],
            "argvs": [s["argv"] for s in steps],
            "spans": os.path.join(work, "spans.npz"),
        }, fh)
    result_path = os.path.join(work, "child-result.json")

    with open(os.path.join(work, "cli.log"), "w", encoding="utf-8") as log:
        setups = []
        for _ in range(0 if args.trace else SETUP_SPAWNS):
            res = spawn(job_path, "setup", result_path, log)
            if res is None:
                print(f"perfbench: set-up failed, see {os.path.relpath(work)}/cli.log",
                      file=sys.stderr)
                return 3
            setups.append(res["setup_s"])

        modes = ("run", "trace") if args.trace else ("run",)
        runs = {m: [] for m in modes}
        took = {m: [] for m in modes}
        failures = []
        t_start = time.monotonic()
        for i in itertools.count():
            mode = modes[i % len(modes)]
            if all(took.values()) and (
                time.monotonic() - t_start + statistics.median(took[mode]) > args.seconds
            ):
                break
            for s in steps:
                shutil.rmtree(os.path.join(ROOT, s["out"]), ignore_errors=True)
            t0 = time.monotonic()
            res = spawn(job_path, mode, result_path, log)
            took[mode].append(time.monotonic() - t0)
            if res is None:
                failures.append([f"{mode} run {i}: child did not finish"])
                continue
            found = gate.problems(spec, args.seed, steps, res["rcs"], res["package_file"], ROOT)
            if found:
                failures.append(found)
                continue
            runs[mode].append(res)
        for s in steps:
            shutil.rmtree(os.path.join(ROOT, s["out"]), ignore_errors=True)

    attempted = sum(len(t) for t in took.values())
    failed = len(failures)
    plain = runs["run"]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": setups + [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace:
        traced = runs["trace"]
        keys = set.intersection(*(set(r["per_layer"]) for r in traced)) if traced else set()
        metrics = {k: statistics.median(r["per_layer"][k] for r in traced) for k in sorted(keys)}
        if traced and plain:
            metrics["setup.import_s"] = statistics.median(r["import_s"] for r in plain + traced)
            metrics["trace.overhead_frac"] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(samples["wall_s"]) - 1.0
            )
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        absent = sorted(set().union(*(r["absent"] for r in traced))) if traced else []
    else:
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        units = END_TO_END
        absent = []

    first = (plain or [{}])[0]
    record = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "package_file": first.get("package_file"),
        "backend": first.get("backend"),
        "configs": [s["config"] for s in steps],
        "samples": samples,
        "runs": runs,
        "failures": failures,
        "absent": absent,
        "metrics": metrics,
    }
    out_path = os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"dampedwave {record['package_file']} backend={record['backend']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} commit={m['git_commit']} "
          f"threads={ {k: v for k, v in m['thread_env'].items() if v} }")
    for name in metrics:
        print(summary_line(name, metrics[name], units[name],
                           None if args.trace else samples[name]))
    print(summary_line("fail_frac", failed / attempted,
                       f"({failed} failed of {attempted} runs)"))
    for found in failures:
        print("  FAILED: " + "; ".join(found))
    if absent:
        print("  absent boundaries (metrics left out): " + ", ".join(absent))
    print(f"  record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
