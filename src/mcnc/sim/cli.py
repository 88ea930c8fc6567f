"""Command-line front end.

    mcnc-sim run --out results [--config scenario.ini] [--seed S] [--runs N]
                 [--grid paper] [--workers W] [--events]

Exit codes: 0 on success, 2 for configuration/usage errors, 3 for runtime
failures (unreadable trace, I/O).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback
from typing import List, Optional

from .config import ConfigError, SimConfig, cell_key, load_config
from .engine import TraceError, run
from .montecarlo import monte_carlo, run_grid, run_seeds
from .results import emit_results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcnc-sim",
        description="Coded multi-path video streaming simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario or the evaluation grid")
    p_run.add_argument("--config", help="INI scenario file (defaults used if omitted)")
    p_run.add_argument("--seed", type=int, help="master seed (overrides config)")
    p_run.add_argument("--runs", type=int, help="runs per cell (overrides config)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--grid",
        choices=("paper",),
        help="expand the 16-cell profile x connectivity x error-control grid",
    )
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")
    p_run.add_argument(
        "--events", action="store_true",
        help="also write events.log (single-cell runs only)",
    )
    return parser


def _load(args: argparse.Namespace) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.runs is not None:
        cfg = dataclasses.replace(cfg, runs=args.runs)
    cfg.validate()
    return cfg


def _run_with_events(cfg: SimConfig, seeds: List[int], out_dir: str):
    """Serial single-cell execution that captures per-run event logs."""
    from .montecarlo import summarize

    os.makedirs(out_dir, exist_ok=True)
    reports = []
    with open(os.path.join(out_dir, "events.log"), "w", encoding="utf-8") as fh:
        for i, seed in enumerate(seeds):
            events: List[str] = []
            reports.append(run(cfg, seed=seed, events_log=events))
            fh.write("# run %d seed %d\n" % (i, seed))
            for line in events:
                fh.write(line + "\n")
    return summarize(reports), reports


def _print_summary(results, runs: int) -> None:
    print("cells: %d  runs per cell: %d" % (len(results), runs))
    header = "%-16s %-3s %-12s %12s %12s %10s" % (
        "config", "pro", "connectivity", "nalu_loss", "latency_ms", "psnr_db")
    print(header)
    for key in sorted(results):
        summary, _ = results[key]
        print("%-16s %-3s %-12s %12.3e %12.3f %10.2f" % (
            key[0], key[1], key[2],
            summary["nalu_loss"]["mean"],
            summary["latency_ms_mean"]["mean"],
            summary["psnr_db"]["mean"],
        ))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        if args.events and args.grid:
            raise ConfigError("--events only applies to single-cell runs")
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        seeds = run_seeds(cfg)
        if args.grid:
            results = run_grid(cfg, workers=args.workers)
        elif args.events:
            results = {cell_key(cfg): _run_with_events(cfg, seeds, args.out)}
        else:
            results = {cell_key(cfg): monte_carlo(cfg, workers=args.workers)}
        emit_results(results, seeds, cfg.seed, args.out)
    except (TraceError, OSError) as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3

    _print_summary(results, len(seeds))
    print("wrote %s" % os.path.join(args.out, "results.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
