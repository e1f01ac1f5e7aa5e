"""Command-line interface: run scenarios, print tuned thresholds, emit tables."""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys

import numpy as np

from .config import config_hash, load_config, read_config
from .errors import InvalidParameter, RandmonError, ValidationError
from .harness import (budget_curve, emit_outputs, run_scenario, run_sweep, tuned_thresholds,
                      write_budget_curve, write_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v]


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="randmon", description="Residual randomness monitoring and sensor-attack simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="run one scenario from a config file")
    run.add_argument("--config", required=True, help="path to a JSON scenario config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--format", choices=("csv", "jsonl"), default=None)

    tune = sub.add_parser("tune", parents=[common],
                          help="print tuned detector thresholds for a config")
    tune.add_argument("--config", required=True)

    budget = sub.add_parser("budget", parents=[common],
                            help="saturating-fraction table over a grid")
    budget.add_argument("--alphas", type=_float_list, default=[0.01, 0.05, 0.2])
    budget.add_argument("--ells", type=_int_list,
                        default=[20, 50, 100, 200, 500, 1000, 2000, 5000, 10000])
    budget.add_argument("--out", default="budget_curve.csv")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="alarm-rate grid over alpha x attack kind")
    sweep.add_argument("--config", required=True, help="base scenario config")
    sweep.add_argument("--alphas", type=_float_list, default=[0.05, 0.2])
    sweep.add_argument("--attacks", default="none,bias_concentrate,pattern_runs",
                       help="comma-separated attack kinds")
    sweep.add_argument("--workers", type=int, default=1,
                       help="accepted and checked (an integer >= 1), then ignored: "
                            "every cell runs in this process")
    sweep.add_argument("--out", default="sweep.csv")
    return parser


def _cmd_run(args, quiet: bool) -> int:
    if args.out == "":  # not "no output": that is a config without output.dir
        raise FileNotFoundError(errno.ENOENT, "empty output path", args.out)
    cfg = load_config(args.config, seed=args.seed)
    if args.out is not None:
        cfg.output_dir = args.out
    if args.format is not None:
        cfg.output_format = args.format
    if cfg.output_dir:  # an unusable output location fails before the run, not after
        os.makedirs(cfg.output_dir, exist_ok=True)
    artifacts = run_scenario(cfg)
    if cfg.output_dir:
        name = f"run_{config_hash(cfg)}_{cfg.seed}.{cfg.output_format}"
        path = emit_outputs(artifacts, cfg.output_format, os.path.join(cfg.output_dir, name))
        if not quiet:
            print(f"wrote {path}")
    if not quiet:
        print(json.dumps({
            "config_hash": artifacts.summary.config_hash,
            "seed": artifacts.summary.seed,
            "alarm_rate": artifacts.summary.alarm_rate,
            "compromised": artifacts.summary.compromised,
        }, indent=2))
    return EXIT_OK


def _cmd_tune(args, quiet: bool) -> int:
    cfg = load_config(args.config)
    print(json.dumps(tuned_thresholds(cfg), indent=2))
    return EXIT_OK


def _check_output_file(path: str) -> None:
    """Raise before any work if ``path`` is empty, a directory or in a missing one."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty output path", path)
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such output directory", folder)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output file is a directory", path)


def _cmd_budget(args, quiet: bool) -> int:
    _check_output_file(args.out)
    try:
        rows = budget_curve(args.alphas, args.ells)
    except InvalidParameter as exc:  # an --alphas or --ells entry out of range
        raise ValidationError([str(exc)]) from exc
    path = write_budget_curve(rows, args.out)
    if not quiet:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args, quiet: bool) -> int:
    raw = read_config(args.config)
    _check_output_file(args.out)
    kinds = [k for k in args.attacks.split(",") if k]
    results = run_sweep(raw, args.alphas, kinds, workers=args.workers)
    path = write_sweep(results, args.out)
    if not quiet:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO)
    commands = {"run": _cmd_run, "tune": _cmd_tune, "budget": _cmd_budget, "sweep": _cmd_sweep}
    try:
        code = commands[args.command](args, args.quiet)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`randmon tune ... | head -1`), which is not
        # an error. Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValidationError, OSError) as exc:  # an OSError here is an unwritable output location
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RandmonError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
