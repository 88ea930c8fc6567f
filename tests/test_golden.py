"""Golden output digest: a small fixed grid must reproduce pinned bytes.

Criterion 7 only compares runs with each other, so a refactor that quietly
changes behaviour would still pass it. This test pins the sha256 of the
``results.csv`` a 16-cell, 2-run, 3 s grid writes, and of every run's full
``MetricsReport.to_dict()`` (per-path packet totals, FEC round histograms,
p95 latency), so any drift in the channel, coding, distribution or video
layers shows up here. An intentional behaviour change re-pins both values
and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

from mcnc.sim.config import SimConfig
from mcnc.sim.montecarlo import run_grid, run_seeds
from mcnc.sim.results import emit_results

RESULTS_CSV_SHA256 = "bd1d0883708f5ef4bf4e2b9cad3079f183984ae9fb9c451596f6ccaa1090f4c4"
REPORTS_SHA256 = "639d7bffbe6f927c4101723bda64eb281a2edecc6c5a9e1b4e024f19452fe4e3"


def test_golden_digest(tmp_path):
    cfg = SimConfig(duration_s=3.0, runs=2, seed=7)
    out = run_grid(cfg, runs=2)
    csv_path, _ = emit_results(out, run_seeds(cfg, 2), cfg.seed, str(tmp_path))
    with open(csv_path, "rb") as fh:
        csv_digest = hashlib.sha256(fh.read()).hexdigest()
    reports = [
        [list(key), [r.to_dict() for r in out[key][1]]] for key in sorted(out)
    ]
    canonical = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    reports_digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert csv_digest == RESULTS_CSV_SHA256
    assert reports_digest == REPORTS_SHA256
