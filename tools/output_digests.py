"""Print "sha256  relpath" for every output file and stdout of the workloads.

Runs each perfbench/workloads/*.json config as checked in (seed 0, --check)
through dampedwave.cli.main from this checkout's src/, inside a new OUTDIR;
paths are relative to it, so `python tools/output_digests.py OUTDIR` in two
checkouts gives outputs to diff.  Exits 1 if any CLI call did not return 0.
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


def main(out_dir: str) -> int:
    os.makedirs(out_dir)
    os.chdir(out_dir)
    failed = 0
    for spec_path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "workloads", "*.json"))):
        name = os.path.splitext(os.path.basename(spec_path))[0]
        with open(spec_path, encoding="utf-8") as fh:
            steps = json.load(fh)["steps"]
        outs = [f"{name}/out{i}" for i in range(len(steps))]
        for i, step in enumerate(steps):
            cfg_path = f"{name}-config{i}.json"
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(step["config"]).replace("{out:0}", outs[0]))
            argv = [step["command"], "--config", cfg_path, "--out", outs[i], "--check"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv + step.get("args", []))
            failed += rc != 0
            print(f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}  {name}/stdout{i}")
            for path in sorted(glob.glob(f"{outs[i]}/**/*", recursive=True)):
                if os.path.isfile(path):
                    with open(path, "rb") as fh:
                        print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
