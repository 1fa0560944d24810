"""Command-line entry point.

Verbs:
  run <spec.json>    execute a sweep spec, write per-run and summary CSVs
  validate <spec.json>  check a spec without running it
  demo               tiny built-in cache-size sweep
"""

from __future__ import annotations

import argparse
import sys

from .experiment import ConfigError, demo_spec, load_spec, run_experiment


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cachenet",
                                     description="Content placement and in-network cache simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a sweep spec")
    run_p.add_argument("spec", help="path to a JSON sweep spec")
    run_p.add_argument("--jobs", type=_at_least(1), default=1, help="parallel worker processes")
    run_p.add_argument("--output", default=None, help="output directory (overrides spec)")

    val_p = sub.add_parser("validate", help="validate a sweep spec without running")
    val_p.add_argument("spec", help="path to a JSON sweep spec")

    demo_p = sub.add_parser("demo", help="run a tiny built-in sweep")
    demo_p.add_argument("--output", default=None, help="output directory")
    demo_p.set_defaults(jobs=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "demo":
        spec = demo_spec()
    else:
        try:
            spec = load_spec(args.spec)
        except ConfigError as exc:
            for diag in exc.diagnostics:
                print(f"INVALID: {diag}")
            return 1
        except OSError as exc:
            print(f"INVALID: {exc}" if args.verb == "validate" else f"error: {exc}")
            return 1
        if args.verb == "validate":
            print("ok")
            return 0
    if args.output is not None:
        spec.output = args.output
    try:
        per_run, summary = run_experiment(spec, jobs=args.jobs)
    except OSError as exc:
        print(f"error: {exc}")
        return 1
    print(f"wrote {per_run}")
    print(f"wrote {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
