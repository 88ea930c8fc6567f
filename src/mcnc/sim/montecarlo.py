"""Monte-Carlo harness: repeated runs, the evaluation grid, and summaries.

Run i of every grid cell uses the same derived master seed, so the channel
realizations are paired across cells (common random numbers).  Differences
between cells are then differences in mechanism, not in luck.

Parallelism is process-based and order-preserving: results are identical for
any worker count, including workers=1.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Sequence, Tuple

from ..seeding import derive_seed
from .config import ConfigError, SimConfig, cell_key, grid_cells
from .engine import run
from .metrics import MetricsReport, left_sum

#: scalar metrics extracted from each run for per-cell aggregation
SUMMARY_METRICS = ("nalu_loss", "latency_ms_mean", "psnr_db")


def run_seeds(cfg: SimConfig) -> List[int]:
    """Master seed for each of ``cfg.runs`` run indices, derived from the
    scenario seed."""
    if cfg.runs < 1:
        raise ConfigError("runs must be at least 1")
    return [derive_seed(cfg.seed, "run", i) for i in range(cfg.runs)]


def report_samples(report: MetricsReport) -> Dict[str, float]:
    """One scalar per SUMMARY_METRICS entry for a finished run."""
    return {
        "nalu_loss": report.nalu_loss_ratio,
        "latency_ms_mean": report.latency["mean"] * 1e3,
        "psnr_db": report.avg_psnr_db,
    }


def summarize(reports: Sequence[MetricsReport]) -> Dict[str, Dict[str, float]]:
    """Mean and normal-approximation 95% half-width per summary metric.

    With a single run the half-width is reported as 0.0 rather than NaN.
    """
    rows = [report_samples(r) for r in reports]
    out: Dict[str, Dict[str, float]] = {}
    for name in SUMMARY_METRICS:
        xs = [row[name] for row in rows]
        n = len(xs)
        mean = left_sum(xs) / n
        if n > 1:
            var = left_sum((x - mean) ** 2 for x in xs) / (n - 1)
            ci95 = 1.96 * math.sqrt(var / n)
        else:
            ci95 = 0.0
        out[name] = {"mean": mean, "ci95": ci95}
    return out


def _run_one(task: Tuple[SimConfig, int]) -> MetricsReport:
    # top-level so ProcessPoolExecutor can pickle it
    cfg, seed = task
    return run(cfg, seed=seed)


def _execute(tasks: List[Tuple[SimConfig, int]], workers: int) -> List[MetricsReport]:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_one(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        # map preserves task order regardless of completion order
        return list(ex.map(_run_one, tasks, chunksize=1))


def monte_carlo(
    config: SimConfig,
    workers: int = 1,
) -> Tuple[Dict[str, Dict[str, float]], List[MetricsReport]]:
    """Run one configuration ``config.runs`` times; return (summary, per-run
    reports)."""
    config.validate()
    tasks = [(config, seed) for seed in run_seeds(config)]
    reports = _execute(tasks, workers)
    return summarize(reports), reports


def run_grid(
    base: SimConfig,
    workers: int = 1,
) -> Dict[Tuple[str, str, str], Tuple[Dict[str, Dict[str, float]], List[MetricsReport]]]:
    """Run the full 16-cell grid.

    Returns a dict keyed by (error control, profile, connectivity); each value
    is (summary, per-run reports) with runs ordered by run index.  The flat
    task list is cell-major (every run of one cell, then the next cell), and
    one pool serves the whole sweep, so workers stay busy across cells.
    """
    base.validate()
    cells = grid_cells(base)
    seeds = run_seeds(base)
    tasks = [(cell, seed) for cell in cells for seed in seeds]
    reports = _execute(tasks, workers)
    out = {}
    n = len(seeds)
    for i, cell in enumerate(cells):
        cell_reports = reports[i * n : (i + 1) * n]
        out[cell_key(cell)] = (summarize(cell_reports), cell_reports)
    return out
