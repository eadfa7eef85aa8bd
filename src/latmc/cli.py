"""Command-line entry point.

Subcommands
-----------
calibrate   build and serialize a preconditioner (fresh burn-in or chain CSV)
tune        staged grid search; writes tuned_config.json and tune_trace.json
run         execute the configured experiment and emit all artifacts
metrics     recompute diagnostics from a finished run directory

Exit codes: 0 success (enumeration-infeasible metric requests degrade to
warnings), 2 configuration error, 3 numeric-guard failure, 1 other errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, LatmcError, NumericGuardError
from .harness import (
    ExperimentConfig,
    calibrate_command,
    recompute_metrics,
    run_experiment,
    tune_command,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmc",
        description="Discrete lattice MCMC experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (("run", "run the configured experiment"),
                          ("tune", "staged grid search for sampler parameters"),
                          ("calibrate", "calibrate and store a preconditioner")):
        p_cmd = sub.add_parser(name, help=summary)
        p_cmd.add_argument("-c", "--config", required=True, help="YAML config file")
        p_cmd.add_argument("-o", "--output", default=None, help="override output directory")
    p_cmd.add_argument(  # calibrate, the last of them
        "--chains-csv", default=None, help="calibrate from a stored chain CSV instead of a burn-in run"
    )

    p_met = sub.add_parser("metrics", help="recompute diagnostics from stored chains")
    p_met.add_argument("run_dir", help="directory produced by the run subcommand")
    p_met.add_argument("-o", "--output", default=None)
    return parser


def _load_config(path: str, output_override) -> ExperimentConfig:
    config = ExperimentConfig.from_yaml(path)
    if output_override is None:
        return config
    return replace(config, output_dir=output_override, raw=dict(config.raw, output_dir=output_override))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = run_experiment(_load_config(args.config, args.output))
            print(f"run artifacts written to {out}")
        elif args.command == "tune":
            out = tune_command(_load_config(args.config, args.output))
            print(f"tuning results written to {out}")
        elif args.command == "calibrate":
            out = calibrate_command(
                _load_config(args.config, args.output), chains_csv=args.chains_csv
            )
            print(f"preconditioner written to {out}")
        elif args.command == "metrics":
            out = recompute_metrics(args.run_dir, args.output)
            print(f"metrics recomputed in {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LatmcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
