"""End-to-end engine behaviour on small, fast scenarios."""

from __future__ import annotations

import dataclasses
import gc
import math

import pytest

from mcnc.sim import engine
from mcnc.sim.config import SimConfig
from mcnc.sim.engine import TraceError, run
from mcnc.sim.metrics import UEMetrics, check_conservation
from mcnc.video.tracegen import synthesize_trace
from mcnc.video.trace import save_trace

# short sessions keep every test here under a second
BASE = SimConfig(duration_s=2.0, n_ues=2, runs=1)

LOSSLESS = dataclasses.replace(
    BASE,
    mmwave_snr_nlos_db=20.0,  # NLOS as good as LOS: no outage ever
    mmwave_snr_sigma_db=0.0,
    mmwave_loss_los=0.0,
    mmwave_loss_nlos=0.0,
    lte_loss=0.0,
)

OUTAGE = dataclasses.replace(
    BASE,
    mmwave_snr_los_db=-10.0,
    mmwave_snr_nlos_db=-10.0,
    mmwave_snr_sigma_db=0.0,
)


def test_lossless_run_delivers_everything():
    rep = run(LOSSLESS, seed=1)
    assert rep.nalu_loss_ratio == 0.0
    assert rep.frames_played == rep.frames_total == 200
    assert rep.avg_psnr_db == pytest.approx(99.99)
    assert check_conservation(rep) is None
    # every generation settles on the first burst: no repair rounds
    hist = rep.fec_rounds_hist
    assert sum(hist[1:]) == 0 and hist[0] == sum(hist)


def test_latency_floor_includes_backhaul():
    rep = run(LOSSLESS, seed=1)
    lat = rep.latency
    assert lat["count"] == 200
    # one-way backhaul plus radio base delay bound every sample from below
    floor = LOSSLESS.backhaul_delay_s + LOSSLESS.mmwave_base_delay_s
    assert lat["min"] >= floor
    assert lat["mean"] < 0.10


def test_same_seed_reproduces_bit_identical_reports():
    log_a, log_b = [], []
    a = run(BASE, seed=7, events_log=log_a)
    b = run(BASE, seed=7, events_log=log_b)
    assert a.to_dict() == b.to_dict()
    assert log_a == log_b
    assert len(log_a) > 0


def test_different_seeds_differ():
    a = run(BASE, seed=1)
    b = run(BASE, seed=2)
    assert a.to_dict() != b.to_dict()


def test_seed_defaults_to_config_seed():
    cfg = dataclasses.replace(BASE, seed=123)
    assert run(cfg).to_dict() == run(cfg, seed=123).to_dict()


def test_permanent_outage_loses_everything_without_fallback():
    cfg = dataclasses.replace(OUTAGE, multi_connectivity=False)
    rep = run(cfg, seed=1)
    assert rep.nalu_loss_ratio == 1.0
    assert rep.frames_played == 0
    assert rep.avg_psnr_db == pytest.approx(cfg.psnr_lost_db)
    totals = rep.packet_totals()
    assert totals["delivered"] == {}
    assert totals["sent"].get("lte", 0) == 0


def test_permanent_outage_rides_lte_with_multi_connectivity():
    rep = run(OUTAGE, seed=1)
    totals = rep.packet_totals()
    assert totals["sent"].get("mmwave", 0) == 0
    assert totals["sent"]["lte"] > 0
    assert rep.nalu_loss_ratio == 0.0  # retx + FEC cover the thin residual
    assert check_conservation(rep) is None


def test_residual_loss_without_error_control_on_lte():
    cfg = dataclasses.replace(OUTAGE, nc_fec=False, ran_retx=False, lte_loss=0.05)
    rep = run(cfg, seed=3)
    # per-packet loss at 5% with two packets per block: a few percent of
    # blocks die, nothing else can recover them
    assert 0.0 < rep.nalu_loss_ratio < 0.5
    assert check_conservation(rep) is None


def test_lossy_mmwave_only_cells_order_sanely():
    # one fast smoke of the mechanism ladder; the full ordering is an
    # acceptance property and runs on the complete grid
    base = dataclasses.replace(BASE, duration_s=4.0, multi_connectivity=False)
    none = dataclasses.replace(base, nc_fec=False, ran_retx=False)
    both = base
    loss_none = run(none, seed=5).nalu_loss_ratio
    loss_both = run(both, seed=5).nalu_loss_ratio
    assert loss_none > loss_both


def test_infinite_los_sojourn_never_leaves_los():
    # an infinite sojourn passes validation; the receivers never flip and
    # their clean mmWave links deliver everything
    cfg = dataclasses.replace(LOSSLESS, ues_los=BASE.n_ues,
                              mmwave_sojourn_los_s=math.inf)
    rep = run(cfg, seed=1)
    assert rep.nalu_loss_ratio == 0.0
    assert check_conservation(rep) is None


def test_transport_without_fec_runs():
    # exactly k emissions per generation and no top-up: a lossless link
    # still completes every generation on its first burst
    cfg = dataclasses.replace(LOSSLESS, nc_fec=False)
    rep = run(cfg, seed=1)
    assert rep.nalu_loss_ratio == 0.0
    assert rep.frames_played == rep.frames_total
    assert rep.fec_rounds_hist[0] == sum(rep.fec_rounds_hist)


def test_reports_over_a_dead_feedback_link_are_lost():
    # with multi connectivity the reports ride LTE; below its -5 dB outage
    # threshold it carries none of them, whatever its loss setting says
    cfg = dataclasses.replace(LOSSLESS, lte_snr_db=-10.0)
    rep = run(cfg, seed=1)
    for ue in rep.per_ue:
        assert ue.feedback_sent > 0
        assert ue.feedback_lost == ue.feedback_sent
    # a live link at the same settings loses none
    for ue in run(LOSSLESS, seed=1).per_ue:
        assert ue.feedback_lost == 0


@pytest.mark.parametrize("threshold_db,dead", [(0.0, True), (-5.0, False)])
def test_lte_link_follows_the_outage_threshold(threshold_db, dead):
    # a lossless LTE link at -3 dB carries all data (mmWave is dead) and
    # every report; above its SNR the shared threshold puts it in outage
    cfg = dataclasses.replace(OUTAGE, lte_loss=0.0, lte_snr_db=-3.0,
                              outage_threshold_db=threshold_db)
    rep = run(cfg, seed=1)
    totals = rep.packet_totals()
    assert totals["sent"]["lte"] > 0
    assert totals["dropped"].get("lte", 0) == (totals["sent"]["lte"] if dead else 0)
    for ue in rep.per_ue:
        assert ue.feedback_sent > 0
        assert ue.feedback_lost == (ue.feedback_sent if dead else 0)


def test_single_spatial_layer_halves_nalu_count():
    two = run(LOSSLESS, seed=1)
    one = run(dataclasses.replace(LOSSLESS, spatial_layers=1), seed=1)
    assert two.nalus_total == 2 * one.nalus_total


def test_trace_file_feeds_the_run(tmp_path):
    trace = synthesize_trace(112, seed=9, psnr_lost=8.0)
    path = tmp_path / "input.trace"
    save_trace(trace, path)
    cfg = dataclasses.replace(LOSSLESS, trace_file=str(path))
    rep = run(cfg, seed=1)
    assert rep.frames_total == 200  # duration bounds the session, not the trace
    assert rep.nalu_loss_ratio == 0.0


def test_trace_file_is_loaded_once_across_fps(tmp_path, monkeypatch):
    # a trace carries no timing, so the session's fps must not key its cache
    path = tmp_path / "shared.trace"
    save_trace(synthesize_trace(32, seed=9), path)
    loads = []

    def counting_load(p):
        loads.append(p)
        return real_load(p)

    real_load = engine.load_trace
    monkeypatch.setattr(engine, "load_trace", counting_load)
    cfg = dataclasses.replace(LOSSLESS, duration_s=0.5, trace_file=str(path))
    reports = [run(dataclasses.replace(cfg, fps=fps), seed=1) for fps in (50.0, 24.0)]
    assert loads == [str(path)]
    assert [r.frames_total for r in reports] == [2 * 25, 2 * 12]


def test_run_input_caches_stay_bounded():
    # every trace seed is a new trace and a new plan list; the caches keep
    # the newest few instead of one per setting ever seen
    cfg = dataclasses.replace(LOSSLESS, duration_s=0.1)
    for trace_seed in range(3 * engine.RUN_INPUT_CACHE_SIZE):
        run(dataclasses.replace(cfg, trace_seed=trace_seed), seed=1)
    for cache in (engine._synthetic_trace, engine._frame_plans):
        assert cache.cache_info().currsize == engine.RUN_INPUT_CACHE_SIZE


def test_broken_packet_count_fails_the_run(monkeypatch):
    def count_sent_twice(self, path, delivered):
        real_count(self, path, delivered)
        self.packets_sent[path] += 1

    real_count = UEMetrics.count_packet
    monkeypatch.setattr(UEMetrics, "count_packet", count_sent_twice)
    with pytest.raises(RuntimeError, match="conservation violated: path"):
        run(dataclasses.replace(BASE, duration_s=0.5), seed=1)


def test_short_trace_rejected(tmp_path):
    trace = synthesize_trace(16, seed=9)
    path = tmp_path / "short.trace"
    save_trace(trace, path)
    cfg = dataclasses.replace(BASE, trace_file=str(path))
    with pytest.raises(TraceError):
        run(cfg, seed=1)


def test_event_log_is_chronological():
    log = []
    run(BASE, seed=11, events_log=log)
    times = [float(line.split()[0]) for line in log]
    assert times == sorted(times)


def test_static_event_wins_a_tie_with_a_dynamic_one():
    # a no-op give-up (stale epoch) lands exactly on the first frame
    # arrival; events at one time run in kind order, so the frame goes first
    cfg = dataclasses.replace(BASE, duration_s=0.1)
    n_frames = cfg.frame_count()
    plans = engine._frame_plans(engine._obtain_trace(cfg), n_frames,
                                cfg.packet_bytes, cfg.generation_size)
    log = []
    eng = engine._Engine(cfg, 1, plans, n_frames, log)
    first_frame = eng._static[-1]
    assert first_frame[1] == engine._FRAME
    stale = engine._GenState(-1, 1, 0, 0, True)
    eng._push(first_frame[0], engine._GIVEUP, 0, (stale, stale.giveup_epoch - 1))
    eng.run()
    assert [line.split()[1] for line in log[:2]] == ["frame", "giveup"]
    assert log[0].split()[0] == log[1].split()[0]


@pytest.fixture
def collector_state():
    # every test here sets the collector state it needs; put back the
    # state pytest ran with
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def test_run_leaves_no_cyclic_garbage(collector_state):
    # the run's object graph is acyclic, so reference counting alone frees
    # it and the collector held off during the loop misses nothing
    gc.disable()
    gc.collect()
    run(dataclasses.replace(BASE, duration_s=1.0), seed=1)
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_collector_state(collector_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    run(dataclasses.replace(BASE, duration_s=0.5), seed=1)
    assert gc.isenabled() is enabled


def test_collector_restored_when_a_handler_raises(collector_state, monkeypatch):
    def broken(self, ue, f, now):
        assert not gc.isenabled()  # raised from inside the held loop
        raise ValueError("handler failed")

    monkeypatch.setattr(engine._Engine, "_on_frame", broken)
    gc.enable()
    with pytest.raises(ValueError, match="handler failed"):
        run(dataclasses.replace(BASE, duration_s=0.5), seed=1)
    assert gc.isenabled()
