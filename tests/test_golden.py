"""Golden output digests: a small fixed grid and a fixed codec stream must
reproduce pinned bytes.

Criterion 7 only compares runs with each other, so a refactor that quietly
changes behaviour would still pass it. This test pins the sha256 of the
``results.csv`` a 16-cell, 2-run, 3 s grid writes, and of every run's full
``MetricsReport.to_dict()`` (per-path packet totals, FEC round histograms,
p95 latency), so any drift in the channel, coding, distribution or video
layers shows up here. The events-log digest pins each receiver's dispatch
order: every event of the 16 cells at one seed, one receiver's session
after another, with its time, kind and argument. The fates digest pins
what became of each frame and generation in those same sessions, value by
value, which the aggregating digests cannot: two frames that swap fates
keep the reports digest. Two more tests shadow ``sum`` with the
compensated one of Python 3.12 and later, which the output path must not
depend on. The codec digest pins
the real payload codec the simulator never runs: systematic ("guarded")
emissions, their wire bytes, every decoder step and the recovered
payloads. An intentional behaviour change
re-pins the affected value and says why in CHANGES.md. A failing digest
names the Python and numpy versions the digests were pinned on next to
the running ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
import struct

import numpy as np

from mcnc.gf import FieldSpec
from mcnc.rlnc import DecoderState, Encoder, Generation, serialize

from mcnc.sim import engine, metrics, montecarlo
from mcnc.sim.config import SimConfig, grid_cells
from mcnc.sim.metrics import MetricsReport, UEMetrics
from mcnc.sim.montecarlo import run_grid, run_seeds
from mcnc.sim.results import emit_results
from mcnc.video.structure import ready_times

RESULTS_CSV_SHA256 = "810e2315323160f61ac9510596473c23449ec5ed544a80092fa9d6599ec2887b"
REPORTS_SHA256 = "fb5064202068a9086c5cf3433d9162487626125904eab58481603c126058d9bc"
EVENTS_LOG_SHA256 = "afaaf7102936d4b1117c904acfd54b090a70b91b589cd5d44317bc43a600b288"
FATES_SHA256 = "688ce9ad4f39ae957fa5ee85781ef7527f54d82e6f5577eec2a247c8b06fb4c0"
CODEC_SHA256 = "0e2eb0d45d73e7611a6e2fe8ea94c48c7784db908f0b39fff30dd75285f8cbd8"

#: the versions every digest above was pinned on: under others a digest can
#: move with their floats or random streams, not with this code
PINNED_ON = "Python 3.11.7, numpy 2.4.6"


def _pinned(got=""):
    """A failed digest's message: what it got, the versions the digests
    were pinned on and the running ones."""
    return (f"{got} (digests pinned on {PINNED_ON}; running Python "
            f"{platform.python_version()}, numpy {np.__version__})").lstrip()


def _grid_digests(tmp_path):
    """The results.csv and reports digests of the golden grid."""
    cfg = SimConfig(duration_s=3.0, runs=2, seed=7)
    out = run_grid(cfg)
    csv_path, _ = emit_results(out, run_seeds(cfg), cfg.seed, str(tmp_path))
    with open(csv_path, "rb") as fh:
        csv_digest = hashlib.sha256(fh.read()).hexdigest()
    reports = [
        [list(key), [r.to_dict() for r in out[key][1]]] for key in sorted(out)
    ]
    canonical = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return csv_digest, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_golden_digest(tmp_path):
    # one tuple, so a deliberate re-pin shows both new values in one run
    assert _grid_digests(tmp_path) == (RESULTS_CSV_SHA256, REPORTS_SHA256), _pinned()


def _neumaier_sum(iterable, start=0):
    """``sum`` as Python 3.12 and later compute it (CPython gh-100425):
    ints exactly up to the first float, which is added plainly, then
    floats with Neumaier's compensation and ints plainly again."""
    total = start
    it = iter(iterable)
    for x in it:
        total += x
        if isinstance(total, int):
            continue
        comp = 0.0
        for y in it:
            if isinstance(y, int):
                total += y
                continue
            t = total + y
            if abs(total) >= abs(y):
                comp += (total - t) + y
            else:
                comp += (y - t) + total
            total = t
        if comp and math.isfinite(comp):
            total += comp
        break
    return total


def test_golden_digest_under_a_compensated_sum(tmp_path, monkeypatch):
    # the output path adds its floats left to right itself, so the digests
    # hold whichever way the interpreter's own sum() adds floats
    for module in (metrics, montecarlo):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    assert _grid_digests(tmp_path) == (RESULTS_CSV_SHA256, REPORTS_SHA256), _pinned()


def test_summaries_under_a_compensated_sum(monkeypatch):
    # the grid above has two runs a cell, and a compensated sum of two
    # terms rounds to the plain one, so the summaries get three, chosen so
    # that the two sums differ for the mean and for the variance
    for module in (metrics, montecarlo):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    xs = (0.1, 0.3, 1.3)
    reports = [MetricsReport(1, 1.0, [UEMetrics(0, frames_total=1, psnr_sum_db=x)])
               for x in xs]
    mean = (xs[0] + xs[1] + xs[2]) / 3
    var = ((xs[0] - mean) ** 2 + (xs[1] - mean) ** 2 + (xs[2] - mean) ** 2) / 2
    assert montecarlo.summarize(reports)["psnr_db"] == {
        "mean": mean, "ci95": 1.96 * math.sqrt(var / 3)}


def test_events_log_golden_digest():
    h = hashlib.sha256()
    for cell in grid_cells(SimConfig(duration_s=3.0, seed=7)):
        log = []
        engine.run(cell, events_log=log)
        for line in log:
            h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == EVENTS_LOG_SHA256, _pinned(h.hexdigest())


def _pack_float(x):
    return struct.pack("<d", x)  # exact: no repr rounding


def _fates_record(eng):
    """One session's fates, in frame order and then in generation order.

    Per frame: whether it was taken, when (``consumed_at``) and whether it
    played. Per generation: ``complete_at``, ``notice_at``,
    ``attempts_used`` and ``failed``. Only values go in, so any layout of
    the session state that keeps them keeps the record.
    """
    first, is_base = eng.layout.first, eng.layout.is_base
    n = eng.n_frames
    complete, notice = list(eng.complete_at), list(eng.notice_at)
    consumed = [None if math.isnan(c) else c for c in eng.consumed_at.tolist()]
    deadline = [eng.buffer.deadline(f) for f in range(n)]
    ready = ready_times([max((complete[g] for g in range(first[f], first[f + 1]) if is_base[g]),
                             default=-math.inf) for f in range(n)])
    played = [c is not None and ready[f] < deadline[f] for f, c in enumerate(consumed)]
    # the played flags are the engine's own: the same flags, the same
    # count, and the same latency samples in frame order
    assert played == eng.played.tolist()
    assert sum(played) == eng.metrics.frames_played
    assert list(eng.metrics.latency_samples) == [
        c - (eng.stream_start + f / eng.cfg.fps)
        for f, (c, p) in enumerate(zip(consumed, played)) if p]
    out = [struct.pack("<qq", n, len(complete))]
    for c, p in zip(consumed, played):
        if c is None:
            out.append(b"L" + bytes(8))
        else:
            out.append(b"T" + _pack_float(c))
        out.append(b"\x01" if p else b"\x00")
    # a planless session has no plans: every generation reads as no plan
    plans = eng.plans if eng.cfg.nc_fec else [None] * len(complete)
    for c, note, plan in zip(complete, notice, plans):
        attempts, failed = (plan.attempts_used, plan.failed) if plan else (0, False)
        out.append(_pack_float(c) + _pack_float(note) + struct.pack("<q?", attempts, failed))
    return b"".join(out)


def test_fates_golden_digest(monkeypatch):
    # every receiver session of the events-log grid, one after another
    sessions = []
    real_run = engine._Engine.run

    def keep(self):
        sessions.append(self)
        return real_run(self)

    monkeypatch.setattr(engine._Engine, "run", keep)
    h = hashlib.sha256()
    for cell in grid_cells(SimConfig(duration_s=3.0, seed=7)):
        engine.run(cell)
        for eng in sessions:
            h.update(_fates_record(eng))
        sessions.clear()
    assert h.hexdigest() == FATES_SHA256, _pinned(h.hexdigest())


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
    assert h.hexdigest() == CODEC_SHA256, _pinned(h.hexdigest())
