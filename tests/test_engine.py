"""End-to-end engine behaviour on small, fast scenarios."""

from __future__ import annotations

import dataclasses
import gc
import heapq
import itertools
import math
import random
from array import array

import numpy as np
import pytest

from mcnc.channel import LTE, MMWAVE, LinkModel, TxOutcome
from mcnc.distribution import GenerationPlan, initial_burst_size
from mcnc.sim import engine
from mcnc.sim.config import SimConfig, grid_cells
from mcnc.sim.engine import TraceError, run
from mcnc.sim.metrics import MetricsReport, UEMetrics, check_conservation, left_sum
from mcnc.video.tracegen import main as tracegen_main, synthesize_trace
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
    for ue in rep.per_ue:  # every drop is the outage's, none the retry ladder's
        for sent, _, outage, exhausted in ue.packets.values():
            assert outage == sent and exhausted == 0


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
    for ue in rep.per_ue:  # LTE is never in outage: its drops are lost attempts
        _, _, outage, exhausted = ue.packets[LTE]
        assert exhausted > 0 and outage == 0


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


def test_tracegen_writes_the_trace_a_default_run_synthesizes(tmp_path):
    # a lossy cell, so the concealment PSNR of lost frames shows in the
    # report: tracegen's defaults are the run's, or the two reports differ
    cfg = dataclasses.replace(SimConfig(), duration_s=5.0, multi_connectivity=False,
                              nc_fec=False, ran_retx=False)
    path = tmp_path / "default.trace"
    assert tracegen_main(["--frames", str(cfg.frame_count()), "--out", str(path)]) == 0
    synthetic = run(cfg, seed=3)
    assert synthetic.nalu_loss_ratio > 0
    assert run(dataclasses.replace(cfg, trace_file=str(path)), seed=3).to_dict() == synthetic.to_dict()


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
    # playback runs after every send, so the extra count is the last one
    def play_then_count_one_more(self):
        real_play(self)
        self.metrics.packets[MMWAVE][0] += 1

    real_play = engine._Engine._play
    monkeypatch.setattr(engine._Engine, "_play", play_then_count_one_more)
    with pytest.raises(RuntimeError, match="conservation violated: path"):
        run(dataclasses.replace(BASE, duration_s=0.5), seed=1)


@pytest.mark.parametrize("nc_fec", [True, False])
def test_every_packet_is_one_transmit_call(monkeypatch, nc_fec):
    # the benchmark counts transmit calls and outcomes per link through a
    # wrapper like this one, so the engine must push each packet through
    # LinkModel.transmit on its own, with FEC or without; the report's
    # per-path counts must match
    calls = {MMWAVE: 0, LTE: 0}
    delivered = {MMWAVE: 0, LTE: 0}
    real_transmit = LinkModel.transmit

    def counting_transmit(self, size_bytes, now):
        out = real_transmit(self, size_bytes, now)
        calls[self.kind] += 1
        delivered[self.kind] += out.delivered
        return out

    monkeypatch.setattr(LinkModel, "transmit", counting_transmit)
    cfg = dataclasses.replace(BASE, multi_connectivity=True, nc_fec=nc_fec)
    totals = run(cfg, seed=3).packet_totals()
    assert calls[MMWAVE] > 0 and calls[LTE] > 0, "the cell must use both links"
    for kind in (MMWAVE, LTE):
        sent = totals["sent"].get(kind, 0)
        got = totals["delivered"].get(kind, 0)
        assert sent == calls[kind], (
            "%s: %d packets sent but %d transmit calls" % (kind, sent, calls[kind]))
        assert got == delivered[kind], (
            "%s: %d packets delivered but %d delivered outcomes" % (kind, got, delivered[kind]))


def test_trace_file_packets_are_capped(tmp_path):
    # validate() cannot see a file's NALU sizes: one record of 10**12 bytes
    # would be cut into 10**9 packets, so the run refuses it before the
    # frame plans are built
    path = tmp_path / "huge.trace"
    save_trace(synthesize_trace(112, seed=9), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("N,"))
    lines[i] = ",".join(lines[i].split(",")[:4] + [str(10**12)])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = dataclasses.replace(LOSSLESS, trace_file=str(path))
    cfg.validate()
    with pytest.raises(TraceError, match="source packets"):
        run(cfg, seed=1)


def test_a_trace_file_may_need_exactly_the_packet_cap(tmp_path, monkeypatch):
    # the cap is the most source packets a run may send: a trace file
    # needing exactly that many runs, and one packet more is refused
    cfg = dataclasses.replace(LOSSLESS, n_ues=1, ues_los=1)
    trace = synthesize_trace(cfg.frame_count(), seed=9)  # whole GOPs: a few frames more
    packets = sum(-(-trace.nalus_by_id[i].size_bytes // cfg.packet_bytes)
                  for rec in trace.frames[:cfg.frame_count()] for i in rec.nalu_ids)
    monkeypatch.setattr(engine, "MAX_GRID_STATES", packets)
    exact, longer = tmp_path / "exact.trace", tmp_path / "longer.trace"
    save_trace(trace, exact)
    lines = exact.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("N,"))
    head, size = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{int(size) + cfg.packet_bytes}"
    longer.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run(dataclasses.replace(cfg, trace_file=str(exact)), seed=1)
    with pytest.raises(TraceError, match=f"needs {packets + 1} source packets"):
        run(dataclasses.replace(cfg, trace_file=str(longer)), seed=1)


def test_short_trace_rejected(tmp_path):
    trace = synthesize_trace(16, seed=9)
    path = tmp_path / "short.trace"
    save_trace(trace, path)
    cfg = dataclasses.replace(BASE, trace_file=str(path))
    with pytest.raises(TraceError):
        run(cfg, seed=1)


def test_event_log_is_chronological():
    # the log holds each receiver's session in turn, each in time order
    log = []
    run(BASE, seed=11, events_log=log)
    ues = [int(line.split()[2][len("ue="):]) for line in log]
    assert ues == sorted(ues) and set(ues) == set(range(BASE.n_ues))
    for u in range(BASE.n_ues):
        times = [float(line.split()[0]) for line, v in zip(log, ues) if v == u]
        assert times == sorted(times)


def _small_engine(cfg, log=None, u=0, seed=1, engine_class=engine._Engine):
    """Receiver u's session of cfg, built but not run."""
    layout = engine._frame_plans(engine._obtain_trace(cfg), cfg.frame_count(),
                                 cfg.packet_bytes, cfg.generation_size)
    return engine_class(cfg, seed, layout, log, u)


def _frame_gens(eng, f):
    """The generation ids of eng's frame f."""
    return range(eng.layout.first[f], eng.layout.first[f + 1])


def _consumed(eng):
    """When eng's consumer took each frame, None for a lost frame."""
    return [None if math.isnan(c) else c for c in eng.consumed_at.tolist()]


def _attempts_and_failed(eng, gen_id):
    plan = eng.plans[gen_id] if eng.cfg.nc_fec else None  # planless: no plans
    return (plan.attempts_used, plan.failed) if plan else (0, False)


def _set_timeline(eng, gen_id, steps):
    """Hand-set generation gen_id's rank timeline, complete at its last step."""
    off = eng.layout.off[gen_id]
    eng.ts[off:off + len(steps)] = array("d", steps)
    eng.rank[gen_id] = len(steps)
    eng.complete_at[gen_id] = steps[-1]


def test_static_event_wins_a_tie_with_a_dynamic_one():
    # a top-up lands exactly on the first frame arrival and is pushed
    # before the run starts; the loop dispatches only the checks strictly
    # earlier than a frame, so the frame still goes first
    log = []
    eng = _small_engine(dataclasses.replace(BASE, duration_s=0.1), log)
    t = eng.stream_start
    last = eng.layout.n_gens - 1
    heapq.heappush(eng._heap, (t, last, GenerationPlan(last, eng.layout.k[last], 1, t), 1))
    eng.run()
    assert [line.split()[1] for line in log[:2]] == ["frame", "check"]
    assert log[0].split()[0] == log[1].split()[0]


def test_equal_time_checks_run_in_generation_order():
    # the heap orders top-ups on (t, gen_id), whatever order they were
    # pushed in, so one decided after a blackout walk takes its place
    # among the others exactly as one decided by a look per report
    # interval would
    log = []
    eng = _small_engine(dataclasses.replace(BASE, duration_s=0.1), log)
    t = eng.stream_start - 1.0
    n = eng.layout.n_gens
    for gen_id in (n - 2, n - 5, n - 3):
        heapq.heappush(eng._heap, (t, gen_id, GenerationPlan(gen_id, eng.layout.k[gen_id], 1, t), 1))
    eng.run()
    assert [line.split()[3] for line in log[:3]] == [
        f"arg=gen{n - 5}", f"arg=gen{n - 3}", f"arg=gen{n - 2}"]


def test_engine_starts_with_one_frame_per_receiver():
    # frame arrivals never enter the heap, which starts empty: each
    # receiver's session opens with its frame 0 at its own stream start,
    # and frame f arrives at stream_start + f / fps, in order
    cfg = dataclasses.replace(BASE, n_ues=3, duration_s=0.5)
    for u in range(cfg.n_ues):
        log = []
        eng = _small_engine(cfg, log, u=u)
        assert eng._heap == []
        eng.run()
        assert log[0] == f"{eng.stream_start:.9f} frame ue={u} arg=0"
        frames = [line.split() for line in log if line.split()[1] == "frame"]
        assert [fr[3] for fr in frames] == [f"arg={f}" for f in range(eng.n_frames)]
        assert [fr[0] for fr in frames] == [
            f"{eng.stream_start + f / cfg.fps:.9f}" for f in range(eng.n_frames)]


def _reference_latest_report(eng, fb_ok, now, staleness):
    """The scan the ``newest`` table replaces: from the newest report slot
    g that can have arrived by now, walk back over the reports j with
    (g - j) * interval < staleness."""
    g = math.floor((now - eng.ul_delay) / eng.fb_int)
    j = min(g, eng.n_reports - 1)
    while j >= 0 and (g - j) * eng.fb_int < staleness:
        if fb_ok[j]:
            return j
        j -= 1
    return -1


# staleness -> report slots a report stays fresh: whole multiples of the
# default interval (0.035 / 0.005 reads 7.000000000000001), one that is not
# a multiple, one under a slot, and one past the whole report grid
WINDOWS = {**{k * 0.005: k for k in range(1, 9)}, 0.0123: 3, 1e-12: 1, 1e17: None}


@pytest.mark.parametrize("p_ok", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_latest_report_matches_the_scan(p_ok):
    for staleness, window in WINDOWS.items():
        eng = _small_engine(dataclasses.replace(BASE, duration_s=0.5,
                                                feedback_staleness_s=staleness))
        n = eng.n_reports
        assert eng.window > n if window is None else eng.window == window, staleness
        rng = random.Random(int(p_ok * 10))
        fb_ok = [rng.random() < p_ok for _ in range(n)]
        # all-lost runs longer than the window, one at the start
        gap = min(2 * eng.window + 1, n // 4)
        for a in (0, n // 3):
            fb_ok[a:a + gap] = [False] * gap
        if p_ok:
            fb_ok[n // 2] = True  # a lone survivor just past a lost run
        eng.newest = engine._newest_reports(np.array(fb_ok), eng.window).tolist()
        times = [-eng.fb_int, 0.0, eng.ul_delay - 1e-9, eng.ul_delay]
        # every slot boundary, one ulp either side of it, and mid-slot
        for g in range(n + 2 * min(eng.window, n)):
            edge = eng.ul_delay + g * eng.fb_int
            times += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
                      eng.ul_delay + (g + 0.5) * eng.fb_int]
        times += [eng.t_end + 1.0, 1e6]
        for t in times:
            assert eng._latest_report(t) == _reference_latest_report(
                eng, fb_ok, t, staleness), (staleness, t)


def test_path_choice_does_not_depend_on_when_it_is_asked():
    # the path is a function of time alone, so the same looks give the
    # same answers whether they are asked in order, reversed or shuffled
    cfg = dataclasses.replace(BASE, duration_s=3.0, multi_connectivity=True)
    eng = _small_engine(cfg)
    times = [eng.stream_start + i * 0.0013 for i in range(int(eng.t_end / 0.0013))]
    answers = []
    for order in (times, times[::-1], random.Random(5).sample(times, len(times))):
        eng = _small_engine(cfg)
        answers.append({t: eng._current_path(t) for t in order})
    assert answers[0] == answers[1] == answers[2]
    assert set(answers[0].values()) == {MMWAVE, LTE}  # both paths are chosen


def test_staleness_longer_than_the_session_runs():
    # every staleness bound past the report grid gives the same scan
    # window, so the same run, however large the bound
    runs = [run(SimConfig(duration_s=0.5, feedback_staleness_s=s), seed=1).per_ue
            for s in (1e3, 1e17, 1e300)]
    assert runs[0] == runs[1] == runs[2]


def _sessions(cfg, seed=1, engine_class=engine._Engine):
    """Every receiver's session of cfg, run."""
    sessions = [_small_engine(cfg, u=u, seed=seed, engine_class=engine_class)
                for u in range(cfg.n_ues)]
    for eng in sessions:
        eng.run()
    return sessions


def test_failure_notices_name_generations_late_for_their_deadline():
    # a notice can only move the consumer past a lost frame, so a sender
    # plan that fails or a give-up timer leaves one only on a base
    # generation that does not count for its frame's display instant. With
    # a staleness under one report interval a report is fresh for one slot
    # only, so plans also fail on generations that completed in time: those
    # must carry no notice
    cells = [(cell, 7) for cell in grid_cells(SimConfig(duration_s=3.0, seed=7))]
    cells.append((dataclasses.replace(BASE, feedback_staleness_s=0.001,
                                      multi_connectivity=False), 3))
    notices = spared = 0
    for cell, seed in cells:
        for eng in _sessions(cell, seed):
            for f in range(eng.n_frames):
                for gen_id in _frame_gens(eng, f):
                    is_base = eng.layout.is_base[gen_id]
                    counts = eng.complete_at[gen_id] < eng.buffer.deadline(f)
                    if eng.notice_at[gen_id] < math.inf:
                        assert is_base and not counts, gen_id
                        notices += 1
                    elif is_base and _attempts_and_failed(eng, gen_id)[1] and counts:
                        spared += 1
    assert notices and spared  # both happen, so neither check is vacuous


def test_each_generation_gives_up_at_most_once(monkeypatch):
    # a give-up is the generation's one notice_at, so neither the receiver
    # timer nor a failed sender plan may write it over an earlier notice
    giveups = 0
    real_give_up, real_fail = engine._Engine._give_up_timers, engine._Engine._fail_plan

    def give_up(self):
        # the give-up timer is set after the planless sends, for every
        # generation at once
        nonlocal giveups
        before = list(self.notice_at)
        real_give_up(self)
        for gen_id, (was, now) in enumerate(zip(before, self.notice_at)):
            if now != was:
                assert was == math.inf, gen_id
                giveups += 1

    def fail(self, g, now):
        before = self.notice_at[g.gen_id]
        real_fail(self, g, now)
        if self.notice_at[g.gen_id] != before:
            assert before == math.inf, g.gen_id

    monkeypatch.setattr(engine._Engine, "_give_up_timers", give_up)
    monkeypatch.setattr(engine._Engine, "_fail_plan", fail)
    for cell in grid_cells(SimConfig(duration_s=3.0, seed=7)):
        run(cell)
    assert giveups  # give-ups happen, so the check above is not vacuous


def test_give_up_moves_the_consumer_past_a_lost_frame():
    # without FEC a base generation that falls short gives up on its frame
    # before the display instant; a next frame already complete by then is
    # taken at the notice, not at the lost frame's display instant
    cfg = dataclasses.replace(BASE, duration_s=3.0, nc_fec=False, n_ues=5)
    cases = 0
    for eng in _sessions(cfg):
        consumed = _consumed(eng)
        for f in range(1, eng.n_frames - 1):
            prev, fr, nxt = consumed[f - 1], consumed[f], consumed[f + 1]
            notice = min(eng.notice_at[g] for g in _frame_gens(eng, f))
            if not (fr is None and notice < eng.buffer.deadline(f)
                    and prev is not None and prev <= notice
                    and nxt is not None):
                continue
            if max(eng.complete_at[g] for g in _frame_gens(eng, f + 1)
                   if eng.layout.is_base[g]) < notice:
                assert nxt == notice, f
                cases += 1
    assert cases  # the cell has such frames, so the check is not vacuous


@pytest.mark.parametrize("multi_connectivity", [True, False])
def test_each_receiver_session_runs_alone(multi_connectivity):
    # no state leaks between receivers: sessions built and run in reverse
    # receiver order give the metrics the whole run gives
    cfg = dataclasses.replace(BASE, n_ues=3, multi_connectivity=multi_connectivity)
    expected = run(cfg, seed=1).per_ue
    sessions = [_small_engine(cfg, u=u) for u in reversed(range(cfg.n_ues))]
    for eng in sessions:
        assert eng.run() == expected[eng.u]


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


@pytest.mark.parametrize("nc_fec", [True, False])
def test_collector_restored_when_a_handler_raises(collector_state, monkeypatch, nc_fec):
    # both kinds of session send through LinkModel.transmit inside the held loop
    def broken(self, size_bytes, now):
        assert not gc.isenabled()  # raised from inside the held loop
        raise ValueError("handler failed")

    monkeypatch.setattr(LinkModel, "transmit", broken)
    gc.enable()
    with pytest.raises(ValueError, match="handler failed"):
        run(dataclasses.replace(BASE, duration_s=0.5, nc_fec=nc_fec), seed=1)
    assert gc.isenabled()


class _PollingEngine(engine._Engine):
    """The engine with every look an event: a look that finds no fresh
    report pushes the next one, a report interval later, until a report is
    fresh or that look would pass the display deadline."""

    polls = 0

    def _look(self, g, t):
        if self._latest_report(t) >= 0:
            super()._look(g, t)
        elif t + self.fb_int > g.deadline:
            self._fail_plan(g, t)
        else:
            type(self).polls += 1
            heapq.heappush(self._heap, (t + self.fb_int, g.gen_id, g, None))

    def _on_check(self, g, count, now):
        if count is None:  # look again
            self._look(g, now)
        else:
            super()._on_check(g, count, now)


def _fates(engine_class, cfg, seed):
    """The report, latency samples and frame fates of every session."""
    sessions = _sessions(cfg, seed, engine_class)
    report = MetricsReport(seed, cfg.duration_s, [eng.metrics for eng in sessions])
    return (report.to_dict(),
            [list(ue.latency_samples) for ue in report.per_ue],
            [[(c, [eng.notice_at[g] for g in _frame_gens(eng, f)])
              for f, c in enumerate(_consumed(eng))]
             for eng in sessions])


@pytest.mark.parametrize("staleness", [0.001, BASE.feedback_staleness_s, 1e17])
def test_waiting_out_a_blackout_matches_polling_it(staleness, monkeypatch):
    # the mmWave-only FEC cells are the ones whose feedback link has
    # blackouts: resolving each in one step must change nothing at all
    monkeypatch.setattr(_PollingEngine, "polls", 0)
    cells = [cell for cell in grid_cells(dataclasses.replace(
                 BASE, n_ues=5, feedback_staleness_s=staleness))
             if cell.nc_fec and not cell.multi_connectivity]
    assert len(cells) == 4
    for cell in cells:
        for seed in (1, 2, 3):
            assert _fates(engine._Engine, cell, seed) == _fates(_PollingEngine, cell, seed), (
                cell.coding_profile, cell.ran_retx, seed)
    assert _PollingEngine.polls  # blackouts happen, so the check is not vacuous


class _BurstPerGenerationEngine(engine._Engine):
    """The engine with a planless session sent as it once was: one
    ``_send_burst`` per generation, feeding the rank timeline that no look
    reads without FEC. It allocates the columns ``_send_burst`` feeds,
    which a planless session does not have."""

    def _send_planless(self):
        self.rank = [0] * self.layout.n_gens
        self.ts = array("d", bytes(8 * self.layout.n_packets))
        self._off = self.layout.off
        self._n_initial = {path: [initial_burst_size(k, path, False)
                                  for k in range(self.cfg.generation_size + 1)]
                           for path in (MMWAVE, LTE)}
        for f, now in enumerate(self.arrival_at.tolist()):
            path = self._current_path(now)
            for gen_id in _frame_gens(self, f):
                k = self._k[gen_id]
                self._send_burst(gen_id, self._n_initial[path][k], k, path, now)
        self._give_up_timers()


def test_a_planless_frame_sends_as_one_burst_per_generation_did():
    # every no-FEC cell of the grid, one receiver in LOS and one in NLOS:
    # the same completions, last arrivals, counts and link states, down to
    # each link's loss stream
    cells = [cell for cell in grid_cells(dataclasses.replace(BASE, ues_los=1))
             if not cell.nc_fec]
    assert len(cells) == 8
    drops = [0, 0]  # outage, retries exhausted: both kinds occur
    partial = 0  # generations with some but not all packets in
    for cell, seed in itertools.product(cells, (1, 2, 3)):
        for new, ref in zip(_sessions(cell, seed), _sessions(cell, seed, _BurstPerGenerationEngine)):
            where = (cell.coding_profile, cell.connectivity_label, cell.ran_retx, seed, new.u)
            assert new.complete_at == ref.complete_at, where
            assert new.last_arrival == ref.last_arrival, where
            assert new.metrics.packets == ref.metrics.packets, where
            for a, b in ((new.mm, ref.mm), (new.lte, ref.lte)):
                assert a.busy_until == b.busy_until, (where, a.kind)
                assert a.rng.getstate() == b.rng.getstate(), (where, a.kind)
            assert any(ref.rank), where  # the reference's bursts fed its timeline
            for counts in new.metrics.packets.values():
                drops[0] += counts[2]
                drops[1] += counts[3]
            partial += sum(c == math.inf and a >= 0.0
                           for c, a in zip(new.complete_at, new.last_arrival))
    assert min(drops) > 0 and partial > 0


#: what only the sender's FEC plans use: the rank timeline and its inputs,
#: the plans, their initial burst sizes and the pending top-ups
FEC_STATE = ("ts", "rank", "plans", "_off", "_n_initial", "_heap", "_dep", "_rank_rng")


@pytest.mark.parametrize("nc_fec", [True, False])
def test_only_an_fec_session_builds_the_fec_state(nc_fec):
    eng = _small_engine(dataclasses.replace(BASE, nc_fec=nc_fec))
    eng.run()
    assert [hasattr(eng, name) for name in FEC_STATE] == [nc_fec] * len(FEC_STATE)
    assert eng.metrics.frames_total == eng.n_frames  # the session did run


def test_a_plan_carries_its_frames_display_instant():
    # every generation of frame f is planned against frame f's deadline,
    # the instant playback judges it by
    eng = _small_engine(BASE)
    eng.run()
    frame_of = eng.layout.frame_of
    assert [g.deadline for g in eng.plans] == [
        eng.buffer.deadline(int(frame_of[g])) for g in range(eng.layout.n_gens)]


def test_every_check_sends_a_top_up():
    # a look decides its round as the burst is sent, so the heap holds
    # top-ups only: each CHECK of a generation is one of its attempts
    attempts = 0
    for seed in (7, 8):
        for cell in grid_cells(SimConfig(duration_s=3.0, seed=seed)):
            for u in range(cell.n_ues):
                log = []
                eng = _small_engine(cell, log, u=u, seed=seed)
                eng.run()
                checks = {}
                for line in log:
                    _, kind, _, arg = line.split()
                    if kind == "check":
                        checks[arg] = checks.get(arg, 0) + 1
                for gen_id in range(eng.layout.n_gens):
                    n = checks.get(f"arg=gen{gen_id}", 0)
                    assert n == _attempts_and_failed(eng, gen_id)[0], (cell, u, gen_id, n)
                    attempts += n
    assert attempts  # top-ups happen, so the check is not vacuous


def test_every_fresh_report_is_decided_by_handle_feedback(monkeypatch):
    # handle_feedback is the one decision a look with a fresh report gets:
    # each top-up is one call with a nonzero count, and the report that
    # closes the plan is one more call, returning 0. Only a plan the
    # blackout walk fails, at a look with no fresh report, closes without one
    calls, fail_reports = {}, {}  # keyed by id(plan), cleared per cell
    real_decide, real_fail = engine.handle_feedback, engine._Engine._fail_plan

    def decide(plan, report_rank, now, overshoot=1.0):
        count = real_decide(plan, report_rank, now, overshoot)
        calls.setdefault(id(plan), []).append(count)
        return count

    def fail(self, g, now):
        fail_reports[id(g)] = self._latest_report(now)
        real_fail(self, g, now)

    monkeypatch.setattr(engine, "handle_feedback", decide)
    monkeypatch.setattr(engine._Engine, "_fail_plan", fail)
    closes = walked = 0
    for seed in (7, 8):
        for cell in grid_cells(SimConfig(duration_s=3.0, seed=seed)):
            calls.clear()
            fail_reports.clear()
            sessions = _sessions(cell, seed)
            if not cell.nc_fec:
                assert not calls  # no sender plan: nothing to decide
                continue
            for eng in sessions:
                for g in eng.plans:
                    assert g.delivered != g.failed, g.gen_id  # closed, once
                    counts = calls.get(id(g), [])
                    by_walk = g.failed and fail_reports[id(g)] < 0
                    assert counts[:g.attempts_used] == [c for c in counts if c], g.gen_id
                    assert counts[g.attempts_used:] == ([] if by_walk else [0]), g.gen_id
                    closes += not by_walk
                    walked += by_walk
    assert closes and walked  # both kinds of close happen: neither check is vacuous


# -- exact ties: each boundary is pinned where a float tie can land on it


def _set_newest(eng, newest):
    """Hand-set eng's per-slot newest fresh report."""
    eng.newest = newest


def test_a_look_landing_exactly_on_the_deadline_is_still_made():
    # the blackout walk makes every look up to and including the deadline:
    # a fresh report there that shows the plan complete delivers it
    eng = _small_engine(BASE)
    j = 40
    _set_newest(eng, [-1] * j + list(range(j, eng.n_reports)))  # no report before slot j
    t = eng.ul_delay + (j - 0.5) * eng.fb_int  # a look in the blackout
    assert eng._latest_report(t) < 0 <= eng._latest_report(t + eng.fb_int)
    g = GenerationPlan(0, 1, 1, t + eng.fb_int)
    _set_timeline(eng, 0, [0.0])
    eng._look(g, t)
    assert g.delivered and not g.failed
    assert eng.metrics.fec_rounds_hist[0] == 1


def test_the_blackout_walk_checks_a_look_one_sum_moves_two_slots_on():
    # a look a few ulps below a slot boundary, in slot j, whose next look
    # t + interval lands in slot j + 2, the first with a fresh report: the
    # walk must make that look, or it walks past the only one the deadline
    # allows
    eng = _small_engine(BASE)
    for j in range(10, eng.n_reports - 2):
        t = eng.ul_delay + (j + 1) * eng.fb_int
        for _ in range(8):
            t = math.nextafter(t, 0.0)
            if eng._slot(t) == j and eng._slot(t + eng.fb_int) == j + 2:
                break
        else:
            continue
        break
    else:
        pytest.fail("no look time one sum moves two slots on")
    _set_newest(eng, [-1] * (j + 2) + list(range(j + 2, eng.n_reports)))
    assert eng._latest_report(t) < 0 <= eng._latest_report(t + eng.fb_int)
    g = GenerationPlan(0, 1, 1, t + eng.fb_int)
    _set_timeline(eng, 0, [0.0])
    eng._look(g, t)
    assert g.delivered and not g.failed


def test_a_report_slot_is_the_floored_float_quotient():
    # today's rule at each report's arrival instant and one ulp either
    # side: the quotient can land just below j, so an arrival can read the
    # slot before its own, as report 1's at 0.011 + 0.005 s reads slot 0.
    # A rule that puts boundaries in the later slot re-pins these values.
    eng = _small_engine(SimConfig())
    early = 0
    for j in range(eng.n_reports):
        t = eng.ul_delay + j * eng.fb_int
        for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)):
            assert eng._slot(x) == math.floor((x - eng.ul_delay) / eng.fb_int), (j, x)
        early += eng._slot(t) == j - 1
    assert (eng.ul_delay, eng.fb_int) == (0.011000000000000001, 0.005)
    assert eng._slot(eng.ul_delay + eng.fb_int) == 0
    assert (early, eng.n_reports) == (612, 12315)


class _ScriptedLink:
    """A link whose packets all get through, each at a scripted
    (delivery time, attempts)."""

    base_delay_s = 0.0
    busy_until = 0.0

    def __init__(self, script):
        self.script = iter(script)

    def transmit(self, size_bytes, now):
        deliver_at, attempts = next(self.script)
        return TxOutcome((True, deliver_at, attempts, now))


def test_a_retried_packet_feeds_the_rank_in_arrival_order():
    # packet 0 of a burst is lost once and retried, so it lands after
    # packets 1 and 2, which get through at their first attempt: packet 1
    # (a source packet) raises the rank first, packet 2's dependence draw
    # is taken at rank 1, and packet 0 completes the generation
    eng = _small_engine(BASE)
    eng.mm = _ScriptedLink([(0.030, 2), (0.021, 1), (0.022, 1)])
    gen_id = eng.layout.k.index(2)
    off = eng.layout.off[gen_id]
    draws = []

    class _DependentDraws:
        def random(self):
            draws.append(list(eng.ts[off:off + 2]))  # the second step is not yet written
            return 0.0  # every tail packet is dependent

    eng._rank_rng = _DependentDraws()
    settle = eng._send_burst(gen_id, 3, 2, MMWAVE, 0.0)
    b = BASE.backhaul_delay_s
    assert list(eng.ts[off:off + 2]) == [0.021 + b, 0.030 + b] and eng.rank[gen_id] == 2
    assert draws == [[0.021 + b, 0.0]]
    assert eng.complete_at[gen_id] == eng.last_arrival[gen_id] == settle == 0.030 + b


def test_a_report_sent_as_the_rank_rose_shows_the_new_rank():
    # report j describes the receiver at j * interval, arrivals at that
    # very instant included
    eng = _small_engine(BASE)
    _set_newest(eng, list(range(eng.n_reports)))  # every report survives
    j = 40
    t = eng.ul_delay + (j + 0.5) * eng.fb_int
    assert eng._latest_report(t) == j
    g = GenerationPlan(0, 1, 1, 10.0)
    _set_timeline(eng, 0, [j * eng.fb_int])
    eng._look(g, t)
    assert g.delivered and eng._heap == []


def test_a_generation_completing_at_its_display_instant_does_not_count():
    # complete_at < D is the one rule: at complete_at == D a base layer
    # does not make its frame, nor a parent its dependants
    eng = _small_engine(dataclasses.replace(LOSSLESS, duration_s=1.0))
    eng.run()
    played = eng.metrics.frames_played
    assert played == eng.n_frames  # lossless: every frame plays
    deadline = eng.buffer.deadline
    # frame 2 is a parent of frame 1 (GOP position 1 refers to 0 and 2),
    # and frame 5's base completes exactly at its own display instant
    for f, at in ((2, deadline(1)), (5, deadline(5))):
        for gen_id in _frame_gens(eng, f):
            if eng.layout.is_base[gen_id]:
                eng.complete_at[gen_id] = at
    eng.consumed_at = eng.played = None
    eng.metrics = UEMetrics(ue_id=eng.u)
    eng._play()
    # frame 2 itself counts (frame 1's instant is before its own); frame 1
    # is taken but its parent is ready only at its instant; frame 5 is lost
    consumed = _consumed(eng)
    assert consumed[2] == deadline(1)
    assert consumed[1] is not None and consumed[5] is None
    assert eng.metrics.frames_played == played - 2
    assert eng.metrics.nalus_lost == 1


def test_a_plan_failing_on_a_generation_complete_at_its_deadline_leaves_a_notice():
    eng = _small_engine(BASE)
    assert eng.layout.is_base[0]
    for complete_at, notice in ((1.0, 0.5 + eng.ul_delay),
                                (math.nextafter(1.0, 0.0), math.inf)):
        g = GenerationPlan(0, 1, 1, 1.0)
        eng.complete_at[0], eng.notice_at[0] = complete_at, math.inf
        eng._fail_plan(g, 0.5)
        assert g.failed and eng.notice_at[0] == notice, complete_at


def test_the_first_report_slot_already_sets_the_path():
    # slot 0's report can have arrived from ul_delay on, and not before
    eng = _small_engine(BASE)
    assert BASE.multi_connectivity
    eng.on_mmwave = [True] * len(eng.on_mmwave)
    assert eng._current_path(eng.ul_delay) == MMWAVE
    assert eng._current_path(math.nextafter(eng.ul_delay, 0.0)) == LTE


def test_report_slot_0_is_a_report():
    # report 0, sent at time 0, counts like any other: with every report
    # surviving, each lookup of the newest fresh report finds it in slot 0
    eng = _small_engine(LOSSLESS)
    assert LOSSLESS.multi_connectivity and eng.newest[:2] == [0, 1]
    assert eng._latest_report(eng.ul_delay) == 0
    # the path table judges report 0's mmWave SNR, 20 dB in either mode
    assert eng.on_mmwave[0] is True
    # a look that finds report 0 decides on it at once, without a walk
    k = eng.layout.k[0]
    g = GenerationPlan(0, k, k, 1.0)
    eng._look(g, eng.ul_delay)
    assert eng._heap == [(eng.ul_delay, 0, g, k)]


# -- playback on hand-built columns


def _hand_built(frames, **changes):
    """One receiver's session, built but not run, over a hand-built layout:
    ``frames`` as ``engine._Layout`` takes them."""
    cfg = dataclasses.replace(BASE, **changes)
    return engine._Engine(cfg, 1, engine._Layout(frames), None, 0)


def _played_with_losses(n_frames, lost=(), spatial_layers=1):
    """A hand-built session of n_frames frames, one generation per NALU,
    played back after every generation completed at 0.0 but those of the
    (frame, spatial layer) NALUs in lost, which never complete."""
    eng = _hand_built([([(layer == 0, [1]) for layer in range(spatial_layers)], 40.0, 10.0)]
                      * n_frames)
    eng.complete_at[:] = array("d", [math.inf if (f, layer) in lost else 0.0
                                     for f in range(n_frames)
                                     for layer in range(spatial_layers)])
    eng._play()
    return eng


def test_all_delivered_plays_every_frame():
    eng = _played_with_losses(32, spatial_layers=2)
    assert eng.played.tolist() == [True] * 32


def test_a_lost_key_frame_cascades():
    # the second GOP dies entirely; so does everything in the first GOP
    # whose reference chain crosses the missing key frame
    eng = _played_with_losses(32, lost={(16, 0)})
    assert np.flatnonzero(eng.played).tolist() == [0]


def test_a_lost_top_layer_frame_stays_isolated():
    eng = _played_with_losses(16, lost={(5, 0)})  # odd position, top layer
    assert np.flatnonzero(~eng.played).tolist() == [5]


def test_a_lost_enhancement_layer_gates_nothing():
    eng = _played_with_losses(16, lost={(f, 1) for f in range(16)}, spatial_layers=2)
    assert eng.played.tolist() == [True] * 16


def test_a_nalu_whose_generations_both_miss_is_lost_once():
    # frame 0: a base NALU of two generations, both short; frame 1: an
    # enhancement NALU of two generations, one short
    eng = _hand_built([([(True, [2, 2]), (False, [3])], 40.0, 10.0),
                       ([(True, [2]), (False, [2, 2])], 40.0, 10.0)])
    eng.complete_at[:] = array("d", [math.inf, math.inf, 0.0, 0.0, math.inf, 0.0])
    eng._play()
    assert (eng.metrics.nalus_lost, eng.metrics.nalus_total) == (2, 4)
    assert [c is None for c in _consumed(eng)] == [True, False]


def test_a_notice_before_the_display_instant_moves_the_consumer_past_a_lost_frame():
    # frame 1's base never completes; frame 2's (which refers to frame 0
    # only) completed before frame 1's display instant D, so the consumer
    # takes it once it moved past frame 1: at the notice if one came
    # earlier than D, else at D
    eng = _hand_built([([(True, [2])], 40.0, 10.0)] * 3)
    d = eng.buffer.deadline(1)
    eng.complete_at[0], eng.complete_at[2] = 0.0, d - 0.015
    for notice, taken_at in ((d - 0.010, d - 0.010), (math.inf, d)):
        eng.notice_at[1] = notice
        eng.metrics = UEMetrics(ue_id=eng.u)
        eng._play()
        assert _consumed(eng) == [0.0, None, taken_at], notice
        assert eng.played.tolist() == [True, False, True]
        assert list(eng.metrics.latency_samples) == [0.0 - eng.arrival_at[0],
                                                     taken_at - eng.arrival_at[2]]


def test_psnr_adds_up_in_frame_order():
    # left to right, as the interpreter's sum did before 3.12; forty equal
    # values are enough for a pairwise sum to round differently
    psnr = [33.3] * 40
    eng = _hand_built([([(True, [1])], p, 0.0) for p in psnr])
    eng.complete_at[:] = array("d", [0.0] * len(psnr))
    eng._play()
    assert eng.metrics.frames_played == len(psnr)
    assert eng.metrics.psnr_sum_db == left_sum(psnr) != float(np.sum(psnr))


def _giveup_rule(cfg, is_base, complete_at, last_arrival, sent_at):
    """The receiver's give-up timer, one generation at a time: a base
    generation still short after its one burst, sent at sent_at, gives up
    its patience after its last arrival, or the shorter one after sent_at
    if nothing arrived."""
    if not is_base or complete_at < math.inf:
        return math.inf
    if last_arrival >= 0.0:
        return max(last_arrival, sent_at) + cfg.receiver_giveup_s
    return sent_at + cfg.receiver_giveup_empty_s


def test_the_give_up_mask_follows_the_per_generation_rule():
    # per frame: an empty base generation, a late one, a completed one and
    # a short enhancement generation, which never gives up
    nalus = [(True, [2, 2, 2]), (False, [2])]
    eng = _hand_built([(nalus, 40.0, 10.0)] * 2, nc_fec=False)
    for f in range(2):
        sent = eng.arrival_at[f]
        gens = _frame_gens(eng, f)
        eng.last_arrival[gens[1]] = sent + 0.004
        eng.last_arrival[gens[2]] = eng.complete_at[gens[2]] = sent + 0.003
        eng.last_arrival[gens[3]] = sent + 0.002
    is_base = eng.layout.is_base.tolist()
    expected = [_giveup_rule(eng.cfg, is_base[g], eng.complete_at[g], eng.last_arrival[g],
                             eng.arrival_at[eng.layout.frame_of[g]])
                for g in range(eng.layout.n_gens)]
    eng._give_up_timers()
    eng._play()
    assert list(eng.notice_at) == expected
    # each kind is there: the two patiences, and no notice
    sent = eng.arrival_at[0]
    assert expected[:4] == [sent + BASE.receiver_giveup_empty_s,
                            sent + 0.004 + BASE.receiver_giveup_s, math.inf, math.inf]
    assert eng.metrics.fec_rounds_hist[0] == eng.layout.n_gens
