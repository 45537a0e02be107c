"""Print "sha256  relpath" for every output file and stdout of a fixed run set.

Runs each perfbench/workloads/*.json config as checked in (seed 0, --check),
then the small inline configs in EXTRA, which cover the subcommands and
paths the workloads do not, through dampedwave.cli.main from this
checkout's src/, inside a new OUTDIR; paths are relative to it, so
`python tools/output_digests.py OUTDIR` in two checkouts gives outputs to
diff.  Exits 1 if any CLI call did not return 0.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from dampedwave import cli  # noqa: E402

# name -> steps, each run with its own args; "{out:0}" is the first step's --out
EXTRA = {
    "classify": [{"command": "classify", "args": [],
                  "config": {"n": 1, "gamma": 0.25, "p": 2.0}}],
    "atlas": [{"command": "atlas", "args": [],
               "config": {"n": 2, "gamma": {"min": 0.25, "max": 1.5, "count": 6},
                          "p": {"min": 1.25, "max": 4.0, "count": 12}}}],
    "bump1d": [{"command": "bump-check", "args": ["--check"],
                "config": {"shifted_center": 0.3}}],
    # no --check: on 32^2 the monotone check misses tol 1e-8 (worst 1.2e-4)
    "bump2d": [{"command": "bump-check", "args": [],
                "config": {"grid": {"dim": 2, "size": 32, "half_length": 4.0}}}],
    # the decay example in README.md
    "decay": [{"command": "decay", "args": ["--check"],
               "config": {"grid": {"dim": 1, "size": 4096, "half_length": 3200.0},
                          "profile": {"family": "power", "gamma": 0.5},
                          "times": {"start": 100.0, "ratio": 2.0, "count": 5},
                          "check": {"l2_tol": 0.05, "seminorm_tol": 0.1}}}],
    # the weak-form check in 2D and 3D: 16 cells per radius of phi_R (2R / dx)
    "testfunc2d": [
        {"command": "simulate", "args": [],
         "config": {"grid": {"dim": 2, "size": 256, "half_length": 64.0},
                    "profile": {"family": "power", "gamma": 1.0}, "eps": 0.05, "p": 2.0,
                    "dt": 0.0625, "t_max": 20.0, "record_fields_every": 4}},
        {"command": "testfunc", "args": ["--check"],
         "config": {"fields": "{out:0}/fields.npz", "R_values": [4.0],
                    "time_points": 129, "check": {}}},
    ],
    "testfunc3d": [
        {"command": "simulate", "args": [],
         "config": {"grid": {"dim": 3, "size": 64, "half_length": 8.0},
                    "profile": {"family": "laplacian_gaussian", "k": 1}, "eps": 1.0,
                    "p": 2.0, "dt": 0.03125, "t_max": 4.25, "record_fields_every": 4}},
        {"command": "testfunc", "args": ["--check"],
         "config": {"fields": "{out:0}/fields.npz", "R_values": [2.0],
                    "time_points": 129, "check": {}}},
    ],
    # a run to t_max takes every snapshot its size check counts: 640 steps
    # at every 3rd, so the last snapshot (step 640) is off cadence
    "testfunc1d_full": [
        {"command": "simulate", "args": ["--check"],
         "config": {"grid": {"dim": 1, "size": 1024, "half_length": 128.0},
                    "profile": {"family": "power", "gamma": 0.5}, "eps": 0.05, "p": 2.0,
                    "dt": 0.03125, "t_max": 20.0, "record_every": 8,
                    "record_fields_every": 3, "check": {"expect_outcome": "survived"}}},
        {"command": "testfunc", "args": ["--check"],
         "config": {"fields": "{out:0}/fields.npz", "R_values": [2.0, 4.0],
                    "time_points": 129, "check": {}}},
    ],
    # the solver step's other branches: |u|^p by np.power in 3D, the p = 3
    # product with field snapshots in 2D, and a linear run in 1D
    "sim3d_p171": [{"command": "simulate", "args": [],
                    "config": {"grid": {"dim": 3, "size": 32, "half_length": 64.0},
                               "profile": {"family": "power", "gamma": 1.5}, "eps": 0.5,
                               "p": 1.71, "dt": 0.125, "t_max": 20.0}}],
    "sim2d_p3": [{"command": "simulate", "args": [],
                  "config": {"grid": {"dim": 2, "size": 64, "half_length": 64.0},
                             "profile": {"family": "power", "gamma": 1.0}, "eps": 0.2,
                             "p": 3.0, "dt": 0.0625, "t_max": 10.0,
                             "record_fields_every": 20}}],
    "sim1d_linear": [{"command": "simulate", "args": [],
                      "config": {"grid": {"dim": 1, "size": 1024, "half_length": 128.0},
                                 "profile": {"family": "power", "gamma": 0.5}, "eps": 1.0,
                                 "p": 2.0, "nonlinear": False, "dt": 0.03125,
                                 "t_max": 20.0}}],
    # a ladder out of eps order whose smallest member outlives t_cap (its
    # t_b is about 38.7): rows come back in config order, one censored
    "lifespan_unsorted": [{"command": "lifespan", "args": ["--check"],
                           "config": {"grid": {"dim": 1, "size": 512, "half_length": 64.0},
                                      "profile": {"family": "power", "gamma": 1.0},
                                      "p": 2.0, "eps_values": [1.0, 0.25, 2.0, 0.5],
                                      "dt": 0.03125, "t_cap": 30.0,
                                      "check": {"min_uncensored": 3}}}],
    # c10's ladder (tests/test_acceptance.py): the 1D N = 4096 run whose
    # members step most of their quiet phase on coarser grids
    "c10": [{"command": "lifespan", "args": ["--check"],
             "config": {"grid": {"dim": 1, "size": 4096, "half_length": 512.0},
                        "profile": {"family": "power", "gamma": 0.25, "scale": 0.0625},
                        "p": 2.0,
                        "eps_values": [0.4, 0.282842712474619, 0.2, 0.1414213562373095, 0.1],
                        "dt": 0.03125, "t_cap": 2000.0,
                        "check": {"rel_tol": 0.2, "min_uncensored": 5}}}],
    # a 2D ladder: each member steps one adapted run through the per-axis
    # transforms; the eps 0.03 member outlives t_cap
    "lifespan2d": [{"command": "lifespan", "args": ["--check"],
                    "config": {"grid": {"dim": 2, "size": 64, "half_length": 64.0},
                               "profile": {"family": "power", "gamma": 1.0},
                               "p": 1.5, "eps_values": [0.4, 0.1, 0.8, 0.2, 0.03],
                               "dt": 0.0625, "t_cap": 60.0,
                               "check": {"min_uncensored": 3}}}],
}


def _run(name: str, steps: list) -> int:
    """Run one chain of steps, print its digests; returns the failed-call count."""
    failed = 0
    outs = [f"{name}/out{i}" for i in range(len(steps))]
    for i, step in enumerate(steps):
        cfg_path = f"{name}-config{i}.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(step["config"]).replace("{out:0}", outs[0]))
        argv = [step["command"], "--config", cfg_path, "--out", outs[i]]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv + step["args"])
        failed += rc != 0
        print(f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}  {name}/stdout{i}")
        for path in sorted(glob.glob(f"{outs[i]}/**/*", recursive=True)):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return failed


def main(out_dir: str) -> int:
    os.makedirs(out_dir)
    os.chdir(out_dir)
    failed = 0
    for spec_path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "workloads", "*.json"))):
        name = os.path.splitext(os.path.basename(spec_path))[0]
        with open(spec_path, encoding="utf-8") as fh:
            steps = json.load(fh)["steps"]
        failed += _run(name, [{**s, "args": ["--check"] + s.get("args", [])} for s in steps])
    for name, steps in EXTRA.items():
        failed += _run(name, steps)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
