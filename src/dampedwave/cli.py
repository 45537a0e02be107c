"""Command-line entry point.

Subcommands map one-to-one onto the harness runners (harness.RUNNERS plus
sweep); each runner's docstring is its help line, and the summary lines it
returns in result["lines"] are printed after the run.  The config from
--config (or classify's --n/--gamma/--p/--s) goes to the runner as it is,
so a key its spec does not declare is a config error.  Every run writes
CSV/JSON outputs into --out; --check additionally gates the exit code on
the run's built-in pass criterion.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure during
time stepping, 4 a requested check failed.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConfigError, NumericalError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedwave",
        description="Numerical laboratory for a damped semilinear wave equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in {**harness.RUNNERS, "sweep": harness.run_sweep}.items():
        sp = sub.add_parser(name, help=(runner.__doc__ or "").partition("\n")[0])
        sp.add_argument(
            "--config",
            default=None,
            help="path to a JSON config for this subcommand",
        )
        sp.add_argument(
            "--out",
            default="out",
            help="output directory (default: ./out)",
        )
        sp.add_argument(
            "--check",
            action="store_true",
            help="exit 4 unless the run's pass criterion holds",
        )
        if name == "sweep":
            sp.add_argument(
                "--threads",
                type=int,
                default=1,
                help="parallel worker processes for sweep jobs (default 1; "
                "the name is kept for compatibility)",
            )
        if name == "classify":
            sp.add_argument("--n", type=int, default=None, help="space dimension")
            sp.add_argument("--gamma", type=float, default=None, help="data weight")
            sp.add_argument("--p", type=float, default=None, help="nonlinearity power")
            sp.add_argument("--s", type=float, default=1.0, help="regularity order")
    return parser


def _classify_config(args) -> dict:
    if args.config is not None:
        return harness.load_config(args.config)
    if args.n is None or args.gamma is None or args.p is None:
        raise ConfigError("classify needs --config or all of --n/--gamma/--p")
    return {"n": args.n, "gamma": args.gamma, "p": args.p, "s": args.s}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            cfg = _classify_config(args)
        else:
            if args.config is None:
                raise ConfigError(f"{args.command} needs --config")
            cfg = harness.load_config(args.config)
        harness.make_out_dir(args.out)
        if args.command == "sweep":
            result = harness.run_sweep(cfg, args.out, threads=args.threads)
        else:
            result = harness.RUNNERS[args.command](cfg)
        paths = harness.emit_outputs(result, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for line in result["lines"]:
        print(line)
    if result["check"] is not None:
        print(f"check: {'pass' if result['check']['passed'] else 'FAIL'}")
    print("wrote " + " ".join(paths))
    if args.check:
        if result["check"] is None:
            print(
                "check requested but this run defines no pass criterion",
                file=sys.stderr,
            )
            return 2
        if not result["check"]["passed"]:
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
