"""Command-line entry points: sweep, validate-dist, curves.

Exit codes: 0 ok, 1 config error, 2 runtime failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    ConfigError,
    ExperimentConfig,
    emit_curves,
    read_results,
    run_sweep,
    validate_distributions,
    write_aggregates,
    write_results,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="doamap",
        description="Monte Carlo harness for DOA estimation with Bayesian "
                    "MAP selection of the number of sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    sweep.add_argument("--config", help="flat key=value config file")
    sweep.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale defaults (D=100, M=N=4096, 10^3 runs)")
    sweep.add_argument("--seed", type=int, default=None, help="master seed override")
    sweep.add_argument("--jobs", type=int, default=1, help="worker process count")
    sweep.add_argument("--out", default=None, help="output CSV path override")
    sweep.add_argument("--runs", type=int, default=None, help="n_runs override")

    sub.add_parser("validate-dist",
                   help="run the distribution identity suite")

    curves = sub.add_parser("curves", help="aggregate a result CSV into curves")
    curves.add_argument("--in", dest="input", required=True, help="result CSV")
    curves.add_argument("--quantity", required=True,
                        help="metric column to aggregate (e.g. err_doa)")
    curves.add_argument("--out-dir", default="curves", help="output directory")
    return parser


def _cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    # a ConfigError here reaches main(), which exits 1 before any work
    if args.config:
        config = ExperimentConfig.from_file(args.config, **overrides)
        if args.paper_scale:
            print("note: --paper-scale ignored when --config is given",
                  file=sys.stderr)
    elif args.paper_scale:
        config = ExperimentConfig.paper_scale(**overrides)
    else:
        config = ExperimentConfig(**overrides)
    out = Path(config.output_path)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")

    records = run_sweep(config, jobs=args.jobs)
    try:
        write_results(records, out)
        write_aggregates(records, out.with_name(out.stem + "_agg" + out.suffix),
                         k_true=config.k_true)
    except OSError as exc:
        print(f"partial output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(records)} rows to {out}")
    return EXIT_OK


def _cmd_validate(_args):
    passed, results = validate_distributions()
    for name, err, tol, ok in results:
        status = "ok" if ok else "FAIL"
        print(f"{status:4s} {name:30s} max_error={err:.3e} tol={tol:.0e}")
    return EXIT_OK if passed else EXIT_VALIDATION


def _cmd_curves(args):
    try:
        records = read_results(args.input)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        paths = emit_curves(records, args.quantity, args.out_dir)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for p in paths:
        print(p)
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate-dist":
            return _cmd_validate(args)
        if args.command == "curves":
            return _cmd_curves(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - map anything else to runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
