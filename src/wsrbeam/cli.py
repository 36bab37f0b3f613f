"""Command-line front end for the benchmark harness.

Usage:
    wsrbeam run experiment.json [--out DIR] [--workers N] [--algo NAME]
                                [--seeds N] [--verify]

Flags override the corresponding config values (flag > config > default).
Exit status: 0 on success, 1 when a ``--verify`` oracle report fails (the
outputs are still written), 2 on a config or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import ConfigError
from .harness import parse_experiment, run_experiment
from .solvers import Algorithm


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsrbeam",
                                     description="Multi-seed precoder-design benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", type=Path, help="experiment config (flat JSON)")
    run.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
    run.add_argument("--workers", type=int, default=None,
                     help="parallel workers, 0 = auto (overrides config)")
    run.add_argument("--algo", choices=[a.value for a in Algorithm], default=None,
                     help="algorithm (overrides config)")
    run.add_argument("--seeds", type=int, default=None,
                     help="number of channel realizations (overrides config)")
    run.add_argument("--verify", action="store_true",
                     help="attach the oracle suite (bound scans, gradient check) to the run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = parse_experiment(args.config.read_text())
        if args.out is not None:
            spec = dataclasses.replace(spec, output_dir=args.out)
        if args.workers is not None:
            spec = dataclasses.replace(spec, parallel_workers=args.workers)
        if args.seeds is not None:
            spec = dataclasses.replace(spec, n_realizations=args.seeds)
        if args.algo is not None:
            solver = dataclasses.replace(spec.solver, algorithm=args.algo)
            spec = dataclasses.replace(spec, solver=solver)
        summary = run_experiment(spec, verify=args.verify)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for point in summary.points:
        wsr = "n/a" if point.wsr_bits_mean is None else f"{point.wsr_bits_mean:.4f}"
        iters = "n/a" if point.iterations_mean is None else f"{point.iterations_mean:.1f}"
        print(f"{point.label}: mean WSR {wsr} bpcu over {point.n_completed}/"
              f"{point.n_realizations} runs ({point.n_converged} converged, "
              f"mean {iters} iterations)")
    for report in summary.oracle_reports:
        status = "pass" if report.passed else "FAIL"
        extra = f" ({report.detail})" if report.detail else ""
        print(f"oracle {report.name}: {status}, max rel err {report.max_rel_error:.3e}{extra}")
    print(f"outputs written to {spec.output_dir}")
    return 0 if all(report.passed for report in summary.oracle_reports) else 1


if __name__ == "__main__":
    sys.exit(main())
