"""Golden output digests: a small fixed grid and a fixed codec stream must
reproduce pinned bytes.

Criterion 7 only compares runs with each other, so a refactor that quietly
changes behaviour would still pass it. This test pins the sha256 of the
``results.csv`` a 16-cell, 2-run, 3 s grid writes, and of every run's full
``MetricsReport.to_dict()`` (per-path packet totals, FEC round histograms,
p95 latency), so any drift in the channel, coding, distribution or video
layers shows up here. The events-log digest pins each receiver's dispatch
order: every event of the 16 cells at one seed, one receiver's session
after another, with its time, kind and argument. The codec digest pins
the real payload codec the simulator never runs: systematic ("guarded")
emissions, their wire bytes, every decoder step and the recovered
payloads. An intentional behaviour change
re-pins the affected value and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random

from mcnc.gf import FieldSpec
from mcnc.rlnc import DecoderState, Encoder, Generation, serialize

from mcnc.sim import engine
from mcnc.sim.config import SimConfig, grid_cells
from mcnc.sim.montecarlo import run_grid, run_seeds
from mcnc.sim.results import emit_results

RESULTS_CSV_SHA256 = "810e2315323160f61ac9510596473c23449ec5ed544a80092fa9d6599ec2887b"
REPORTS_SHA256 = "fb5064202068a9086c5cf3433d9162487626125904eab58481603c126058d9bc"
EVENTS_LOG_SHA256 = "afaaf7102936d4b1117c904acfd54b090a70b91b589cd5d44317bc43a600b288"
CODEC_SHA256 = "0e2eb0d45d73e7611a6e2fe8ea94c48c7784db908f0b39fff30dd75285f8cbd8"


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
    # one tuple, so a deliberate re-pin shows both new values in one run
    assert (csv_digest, reports_digest) == (RESULTS_CSV_SHA256, REPORTS_SHA256)


def test_events_log_golden_digest():
    h = hashlib.sha256()
    for cell in grid_cells(SimConfig(duration_s=3.0, seed=7)):
        log = []
        engine.run(cell, events_log=log)
        for line in log:
            h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == EVENTS_LOG_SHA256, h.hexdigest()


def test_codec_golden_digest():
    # LC (GF(16), k=40), HC (GF(256), k=100) and GF(2) with k=16: the
    # first 2k guarded packets of a fixed block through 30 % erasures
    h = hashlib.sha256()
    for m, k in ((4, 40), (8, 100), (1, 16)):
        field = FieldSpec(m)
        rng = random.Random(1000 * m + k)
        data = rng.randbytes(k * 48 - 17)
        gen = Generation.from_block(k, field, data, 48)
        enc = Encoder(gen, seed=99, mode="guarded")
        dec = DecoderState(gen)
        for _ in range(2 * k):
            pkt = enc.next_packet()
            h.update(serialize(pkt, field))
            if rng.random() < 0.3:
                continue  # erased
            h.update(bytes((dec.consume(pkt), dec.last_consume_row_ops)))
        assert dec.delivered
        h.update(dec.row_ops.to_bytes(8, "big"))
        payloads = dec.extract()
        assert b"".join(payloads) == data
        h.update(b"".join(payloads))
    assert h.hexdigest() == CODEC_SHA256, h.hexdigest()
