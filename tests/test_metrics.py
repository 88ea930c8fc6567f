"""PSNR math and run-level accounting."""

from __future__ import annotations

import pickle
import tracemalloc
from array import array

import numpy as np
import pytest

from mcnc.sim.config import SimConfig, grid_cells
from mcnc.sim.engine import run
from mcnc.sim.metrics import (
    PSNR_CAP_DB,
    DimensionMismatchError,
    MetricsReport,
    UEMetrics,
    check_conservation,
    latency_stats,
    psnr_frame,
)


def test_psnr_identical_frames_hits_cap():
    frame = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert psnr_frame(frame, frame) == PSNR_CAP_DB == 99.99


def test_psnr_maximal_error_is_zero():
    black = np.zeros((16, 16), dtype=np.uint8)
    white = np.full((16, 16), 255, dtype=np.uint8)
    assert psnr_frame(black, white) == pytest.approx(0.0, abs=1e-12)


def test_psnr_uniform_offset_16():
    a = np.full((32, 32), 100, dtype=np.uint8)
    b = np.full((32, 32), 116, dtype=np.uint8)
    assert psnr_frame(a, b) == pytest.approx(24.05, abs=0.01)


def test_psnr_monotone_in_error():
    base = np.zeros((8, 8), dtype=np.uint8)
    prev = None
    for offset in (1, 2, 4, 8, 32, 128):
        value = psnr_frame(base, base + np.uint8(offset))
        if prev is not None:
            assert value < prev
        prev = value


def test_psnr_shape_checks():
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(DimensionMismatchError):
        psnr_frame(a, np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        psnr_frame(a, np.zeros(16, dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        psnr_frame(np.zeros((0, 0)), np.zeros((0, 0)))


def test_latency_stats_known_values():
    values = [0.010, 0.020, 0.030, 0.040]
    stats = latency_stats(values)
    assert stats["count"] == 4
    assert stats["mean"] == pytest.approx(0.025)
    assert stats["min"] == 0.010 and stats["max"] == 0.040
    assert stats["p50"] == pytest.approx(0.025)
    # any 1-D sequence: the same values as an array('d') or an ndarray
    assert latency_stats(array("d", values)) == stats
    assert latency_stats(np.array(values)) == stats


EMPTY_STATS = {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
               "p99": 0.0, "min": 0.0, "max": 0.0}


def test_latency_stats_empty():
    # an ndarray has no truth value, so emptiness is judged by size
    for empty in ([], array("d"), np.empty(0)):
        assert latency_stats(empty) == EMPTY_STATS


def test_report_without_receivers_has_empty_latency():
    assert MetricsReport(seed=0, duration_s=1.0, per_ue=[]).latency == EMPTY_STATS


def _ue(ue_id=0, **kw):
    u = UEMetrics(ue_id=ue_id)
    for key, value in kw.items():
        setattr(u, key, value)
    return u


def test_ue_ratios():
    u = _ue(nalus_total=200, nalus_lost=3, frames_total=100, psnr_sum_db=9000.0)
    assert u.nalu_loss_ratio == pytest.approx(0.015)
    assert u.avg_psnr_db == pytest.approx(90.0)
    empty = _ue()
    assert empty.nalu_loss_ratio == 0.0 and empty.avg_psnr_db == 0.0


def test_ue_psnr_mean_never_exceeds_cap():
    u = _ue(frames_total=3, psnr_sum_db=3 * 99.99 + 1e-9)
    assert u.avg_psnr_db == PSNR_CAP_DB


def test_report_pools_ues():
    a = _ue(0, nalus_total=100, nalus_lost=10, frames_total=50, frames_played=45,
            psnr_sum_db=50 * 80.0, latency_samples=array("d", [0.01] * 5))
    b = _ue(1, nalus_total=300, nalus_lost=0, frames_total=150, frames_played=150,
            psnr_sum_db=150 * 99.99, latency_samples=array("d", [0.03] * 5))
    report = MetricsReport(seed=1, duration_s=1.0, per_ue=[a, b])
    assert report.nalus_total == 400 and report.nalus_lost == 10
    assert report.nalu_loss_ratio == pytest.approx(0.025)
    assert report.frames_played == 195
    assert report.avg_psnr_db == pytest.approx((50 * 80.0 + 150 * 99.99) / 200)
    assert report.latency["mean"] == pytest.approx(0.02)
    assert report.latency["count"] == 10


def test_packet_counting_and_conservation():
    # [sent, delivered, outage, exhausted]: three mmWave bursts (4 through;
    # 1 of 2 through, 1 exhausted; 3 in outage) and one LTE packet
    u = _ue(packets={"mmwave": [9, 5, 3, 1], "lte": [1, 1, 0, 0]})
    report = MetricsReport(seed=0, duration_s=1.0, per_ue=[u])
    totals = report.packet_totals()
    assert totals["sent"] == {"mmwave": 9, "lte": 1}
    assert totals["delivered"] == {"mmwave": 5, "lte": 1}
    # the report pools both causes into one drop count per path
    assert totals["dropped"] == {"mmwave": 4}
    assert check_conservation(report) is None


def test_burst_counts_make_no_zero_entries():
    # the totals reach to_dict: a path with nothing to count stays out,
    # including every path of a receiver that sent nothing
    u = _ue(packets={"lte": [3, 2, 0, 1], "mmwave": [2, 0, 2, 0]})
    idle = _ue(1, packets={"mmwave": [0, 0, 0, 0], "lte": [0, 0, 0, 0]})
    totals = MetricsReport(seed=0, duration_s=1.0, per_ue=[u, idle]).packet_totals()
    assert totals["sent"] == {"lte": 3, "mmwave": 2}
    assert totals["delivered"] == {"lte": 2}
    assert totals["dropped"] == {"lte": 1, "mmwave": 2}


def test_conservation_flags_violations():
    for counts in (
        [5, 3, 1, 0],  # one unaccounted for
        [5, 3, 0, 3],  # one too many
        [0, 1, 0, 0],  # delivered, never sent
    ):
        u = _ue(packets={"mmwave": counts})
        report = MetricsReport(seed=0, duration_s=1.0, per_ue=[u])
        assert "mmwave" in check_conservation(report), counts

    bad = _ue(nalus_total=5, nalus_lost=9)
    assert "lost" in check_conservation(
        MetricsReport(seed=0, duration_s=1.0, per_ue=[bad])
    )


def _closed(generations_total, hist):
    u = _ue(generations_total=generations_total)
    u.fec_rounds_hist[:len(hist)] = hist
    return check_conservation(MetricsReport(seed=0, duration_s=1.0, per_ue=[u]))


def test_conservation_closes_each_plan_once():
    # every generation's plan closes exactly once, in one histogram bin
    assert _closed(3, [2, 1]) is None
    assert "3 plans closed for 2" in _closed(2, [2, 1])  # one closed twice
    assert "1 plans closed for 2" in _closed(2, [0, 1])  # one never closed


def test_fec_hist_sums_across_ues():
    a = _ue(0)
    b = _ue(1)
    a.fec_rounds_hist[0] = 3
    a.fec_rounds_hist[2] = 1
    b.fec_rounds_hist[0] = 2
    report = MetricsReport(seed=0, duration_s=1.0, per_ue=[a, b])
    assert report.fec_rounds_hist == [5, 0, 1, 0, 0, 0]


def test_to_dict_round_trips_key_fields():
    u = _ue(nalus_total=10, nalus_lost=1, frames_total=5, frames_played=4,
            psnr_sum_db=5 * 90.0, latency_samples=array("d", [0.02]))
    d = MetricsReport(seed=7, duration_s=2.0, per_ue=[u]).to_dict()
    assert d["seed"] == 7 and d["duration_s"] == 2.0
    assert d["nalu_loss_ratio"] == pytest.approx(0.1)
    assert d["latency_ms_mean"] == pytest.approx(20.0)
    assert d["frames_played"] == 4


def _pooled_list_latency(report):
    # the reference: every receiver's samples pooled as Python floats
    pooled = []
    for u in report.per_ue:
        pooled.extend(u.latency_samples)
    return latency_stats(pooled)


def _storage_runs():
    cells = grid_cells(SimConfig(duration_s=2.0, n_ues=3))
    for cell in (cells[0], cells[7], cells[-1]):
        for seed in (1, 2):
            yield run(cell, seed=seed)


def test_run_keeps_latency_as_float64_arrays():
    for report in _storage_runs():
        assert report.latency["count"] > 0
        for u in report.per_ue:
            assert isinstance(u.latency_samples, array)
            assert u.latency_samples.typecode == "d"
        # same values in the same order: every stat equal, not just close
        assert report.latency == _pooled_list_latency(report)


def test_report_survives_a_pickle_round_trip():
    # the path a report takes back from a worker process
    for report in _storage_runs():
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.to_dict() == report.to_dict()
        assert all(u.latency_samples.typecode == "d" for u in clone.per_ue)


#: a report's memory beyond its latency samples: receiver records, their
#: counters and histograms
REPORT_FIXED_BYTES = 32 * 1024


def test_a_finished_report_keeps_about_8_bytes_per_sample():
    # what the parent of a multi-worker run holds per report: the report
    # rebuilt from its pickle, traced alone; a boxed float in a list costs
    # 32 bytes per sample and fails the bound
    cfg = SimConfig()
    report = run(cfg, seed=1)
    n = report.latency["count"]
    assert n == report.frames_played > 10_000
    blob = pickle.dumps(report)
    tracemalloc.start()
    try:
        clone = pickle.loads(blob)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clone.latency["count"] == n
    assert kept <= 12 * n + REPORT_FIXED_BYTES, (kept, n)
