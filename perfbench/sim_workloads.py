"""Simulator workloads: grid_paper and stream_hd.

Both drive the public fan-out API with ``workers=1``: one caller, one
engine run at a time (a closed loop).  Parallel workers are left out on
purpose; on a small shared host a scaling figure would measure the
scheduler, not the simulator.

- grid_paper: the 16-cell paper grid at ``SimConfig()`` defaults (60 s
  sessions, 5 receivers, 2 kB NALUs), through ``run_grid`` and then
  ``emit_results``, the calls ``mcnc-sim run --grid paper`` makes.  It
  covers the feedback-blackout path (mmwave_only cells) and the top-up
  path (nc_fec cells); event dispatch, feedback lookups, path selection
  and playout weigh as much as transmit here.
- stream_hd: one default cell (LC, multi, ran_retx+nc_fec) with 12 kB base
  and enhancement NALUs, 6x the default, through ``monte_carlo``.  About
  7.4 packets per event against the grid's 1.2, and real FIFO queueing on
  LTE, so the per-packet transmit path dominates.

The amount of work is fixed by ``--seconds`` through the nominal op costs
below (host seconds at the reference speed, measured at the baseline), so
both sides of a comparison run the same engine runs on the same seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import time
import traceback

from mcnc.sim import engine, montecarlo, results
from mcnc.sim.config import SimConfig, cell_key, grid_cells
from mcnc.sim.metrics import check_conservation
from mcnc.video.tracegen import synthesize_trace

import refclock

#: nominal host seconds of one paper grid (16 engine runs) at the baseline
GRID_OP_S = 12.5
#: with one run per cell the grid draws one channel realization, shared by
#: all 16 cells, and its figures spread by 0.12-0.19 across seeds; two
#: halve that and give the tail 32 samples
GRID_MIN_RUNS = 2
#: nominal host seconds of one stream_hd engine run at the baseline
HD_OP_S = 0.3
HD_SESSION_S = 10.0
HD_NALU_BYTES = 12_000
#: runs below this leave too few samples beyond the tail percentile
HD_MIN_RUNS = 20
#: engine seed of the set-up warm-up; never used by a measured run
WARMUP_SEED = 0x5E7


def base_config(name: str, smoke: bool) -> SimConfig:
    cfg = SimConfig()
    if name == "stream_hd":
        cfg = dataclasses.replace(cfg, duration_s=HD_SESSION_S,
                                  base_nalu_bytes=HD_NALU_BYTES,
                                  enh_nalu_bytes=HD_NALU_BYTES)
    if smoke:
        cfg = dataclasses.replace(cfg, duration_s=1.0)
    return cfg


def size(name: str, seconds: float, smoke: bool) -> int:
    """Runs per cell: the fewest whose nominal cost covers ``seconds``."""
    if smoke:
        return 1 if name == "grid_paper" else 2
    if name == "grid_paper":
        return max(GRID_MIN_RUNS, math.ceil(seconds / GRID_OP_S))
    return max(HD_MIN_RUNS, math.ceil(seconds / HD_OP_S))


def setup(name: str, smoke: bool) -> dict:
    """Build field tables, then fill the engine's trace and frame-plan
    caches with one single-receiver run per coding profile.

    The caches are keyed by trace and packetization settings, not by
    receiver count, so the short warm-up fills exactly the entries the
    measured runs read.
    """
    from mcnc.gf import FieldSpec

    cfg = base_config(name, smoke)
    cells = grid_cells(cfg) if name == "grid_paper" else [cfg]
    profiles = sorted({c.coding_profile for c in cells})
    t0 = time.perf_counter()
    for c in cells:
        FieldSpec(c.field_exponent)
    t1 = time.perf_counter()
    for p in profiles:
        warm = dataclasses.replace(cfg, coding_profile=p, n_ues=1,
                                   ues_los=min(cfg.ues_los, 1))
        engine.run(warm, seed=WARMUP_SEED)
    return {"gf_tables_s": t1 - t0, "warmup_s": time.perf_counter() - t1}


class _EventCounter(list):
    """Stands in for the engine's ``events_log`` list: counts event kinds
    instead of keeping the lines."""

    def __init__(self):
        super().__init__()
        self.counts = {}

    def append(self, line):
        kind = line.split(" ", 2)[1]
        self.counts[kind] = self.counts.get(kind, 0) + 1


class _RunTimer:
    """Stands in for the engine ``run`` the fan-out calls: times each call
    on the clock, and counts its events per kind when asked to."""

    def __init__(self, run, clock: refclock.RefClock, count_events: bool):
        self._run = run
        self.clock = clock
        self.raw = []
        self.scaled = []
        self.events = [] if count_events else None

    def __call__(self, config, seed=None):
        logs = []

        def op():
            log = _EventCounter() if self.events is not None else None
            logs.append(log)
            return self._run(config, seed=seed, events_log=log)

        report, raw, scaled = self.clock.measure(op)
        self.raw.append(raw)
        self.scaled.append(scaled)
        if self.events is not None:
            self.events.append(logs[-1].counts)
        return report


def _source_bytes(cfg: SimConfig) -> int:
    """Video bytes one run streams: every NALU of the session, per receiver."""
    n_frames = max(1, int(round(cfg.duration_s * cfg.fps)))
    trace = synthesize_trace(
        frames=n_frames, fps=cfg.fps, seed=cfg.trace_seed,
        base_bytes=cfg.base_nalu_bytes, enh_bytes=cfg.enh_nalu_bytes,
        jitter=cfg.size_jitter, psnr_lost=cfg.psnr_lost_db,
        spatial_layers=cfg.spatial_layers)
    per_ue = sum(n.size_bytes for n in trace.nalus if n.frame_id < n_frames)
    return per_ue * cfg.n_ues


def batch(name: str, seed: int, count: int, smoke: bool, out_dir: str,
          clock: refclock.RefClock, tracer=None) -> dict:
    """One fan-out call with ``count`` runs per cell, then
    ``emit_results``, with every output checked."""
    cfg = dataclasses.replace(base_config(name, smoke), seed=seed, runs=count)
    n_cells = len(grid_cells(cfg)) if name == "grid_paper" else 1
    expected = cfg.runs * n_cells
    seeds = montecarlo.run_seeds(cfg)
    timer = _RunTimer(montecarlo.run, clock, count_events=tracer is not None)
    failed = 0
    digest = None
    reports = []
    montecarlo.run = timer
    try:
        if name == "grid_paper":
            out = montecarlo.run_grid(cfg, workers=1)
        else:
            out = {cell_key(cfg): montecarlo.monte_carlo(cfg, workers=1)}
        csv_path, _ = results.emit_results(out, seeds, cfg.seed, out_dir)
    except Exception:
        traceback.print_exc()
        failed = expected
    else:
        for key in sorted(out):
            reports.extend(out[key][1])
    finally:
        montecarlo.run = timer._run
    if not failed:
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        for report in reports:
            problem = check_conservation(report)
            if problem is not None:
                print("conservation: seed %d: %s" % (report.seed, problem),
                      file=sys.stderr)
                failed += 1
        if len(reports) != expected:
            print("expected %d reports, got %d" % (expected, len(reports)),
                  file=sys.stderr)
            failed = expected
    sim_s = len(timer.scaled) * cfg.duration_s
    return {
        "attempted": expected,
        "failed": failed,
        "op_s": timer.scaled,
        "op_raw_s": timer.raw,
        "scale": timer.clock.factors,
        "source_bytes": len(timer.scaled) * _source_bytes(cfg),
        "digest": digest,
        "reports": reports,
        "events": timer.events,
        "extra": {"sim_s_per_s": {"value": sim_s / sum(timer.scaled) if timer.scaled else 0.0,
                                  "unit": "sim-s/s"}},
    }
