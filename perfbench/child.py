"""One benchmark run of a workload, in a fresh interpreter.

    python3 perfbench/child.py JOB T_SPAWN MODE RESULT

JOB is the JSON job file run.py writes: the CLI argument lists to pass to
dampedwave.cli.main and the config to load at start-up.  T_SPAWN is the
parent's time.monotonic() just before it started this process (the clock
is system-wide, so set-up time covers interpreter start).  MODE is
`setup` (import and config load only), `run` or `trace`.  The result is
written to RESULT as JSON.  Runs from the checkout root, against its src/.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    job_path, t_spawn, mode, result_path = sys.argv[1:5]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t_import = time.monotonic()
    import dampedwave
    import dampedwave.cli as cli
    from dampedwave import harness

    harness.load_config(job["config"])
    t_loaded = time.monotonic()
    result = {
        "setup_s": t_loaded - float(t_spawn),
        "import_s": t_loaded - t_import,
        "package_file": dampedwave.__file__,
        "backend": getattr(sys.modules.get("dampedwave.accel"), "BACKEND", "absent"),
    }
    if mode != "setup":
        main_fn, tracer = cli.main, None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            main_fn = tracer.wrap("cli.main", cli.main)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.monotonic()
        rcs = []
        for argv in job["argvs"]:
            rcs.append(main_fn(argv))
            if rcs[-1] != 0:
                break
        wall = time.monotonic() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            rcs=rcs,
        )
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            result["absent"] = tracer.absent
            tracer.save(job["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
