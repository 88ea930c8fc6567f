"""Event-driven streaming session: trace frames in, played frames out.

One run couples the layers end to end. Trace frames are cut into
generations at the sender (one NALU never shares a generation with
another), coded bursts ride the per-receiver radio links, feedback steers
path choice and top-up rounds, and an in-order consumer hands complete
frames to the playout buffer, which plays or skips them on a hard display
clock. Everything is deterministic given (config, seed): every random
stream is split off the master seed with a distinct label.

Scale choices, made so a 60 s five-receiver session stays under a second
of wall clock without changing observable behavior:

- Fading is presampled. Each mmWave link draws its whole trajectory on
  the channel step grid up front (``LinkModel.presample``), and
  transmissions, feedback survival and path reports look the state up by
  timestamp.
- Transmissions are presimulated at dispatch. The FIFO link yields each
  packet's delivery time immediately, so a burst's effect on the decoder
  rank timeline is known when the burst is sent; rank queries and the
  completion event read that timeline instead of per-packet events. A
  retried packet can overlap a later burst by a few milliseconds; the
  timeline clamps such arrivals to keep rank monotone in time.
- Feedback is pulled, not evented. Receiver reports live on a fixed grid
  and ride one feedback link: LTE with multi connectivity, else the mmWave
  uplink. That link presamples per-report survival
  (``LinkModel.control_survival``), and "what did the sender know at t"
  resolves to the newest surviving report that had arrived by t.
- Decoding is rank-sampled. Payloads are never materialized here, and the
  transmit side uses guarded draws: a generation's first k emissions are
  linearly independent by construction, so each of them that arrives adds
  one rank. Later emissions are uniform nonzero vectors, and by uniformity
  against any fixed span such an arrival is dependent with probability
  (q^rank - 1)/(q^k - 1); the engine samples that Bernoulli from a
  run-level stream instead of eliminating coefficient vectors. (A guarded
  arrival landing after tail packets already raised the rank could in
  truth be dependent, at odds ~q^(rank-k); the shortcut ignores that.)
  Byte counts use the padded wire size, and the codec's real elimination
  path has its own tests.
- Static events skip the heap. Frame arrivals and display deadlines are
  fixed at init, so they are built once as a reverse-sorted list and
  popped from its end; the loop takes the list's head whenever it sorts
  before the heap's. Each carries the seq number a heap push would have
  given it, so the (time, kind, seq) dispatch order is unchanged.
- The per-run object graph is acyclic: a generation names its frame by
  index, not by reference, and nothing a receiver holds points back at the
  engine. Reference counting frees a run as it ends, so the cyclic
  collector is held off around the event loop (and restored, even when a
  handler raises) instead of rescanning the live graph.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import random
from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from ..channel import LOS, MMWAVE, NLOS, LinkModel
from ..distribution import PathFeedback, PathSelector, handle_feedback, plan_generation
from ..gf import FieldSpec
from ..rlnc import split_counts, wire_size
from ..seeding import derive_seed
from ..video.structure import decodable, packetize
from ..video.playout import PlayoutBuffer
from ..video.trace import VideoTrace, load_trace
from ..video.tracegen import synthesize_trace
from .config import SimConfig
from .metrics import MetricsReport, UEMetrics, check_conservation


class TraceError(RuntimeError):
    """Raised when the video trace cannot be obtained or is too short."""


# event kinds, in tie-break order at equal timestamps
_DEADLINE = 0
_FRAME = 1
_CHECK = 2
_DONE = 3
_ABANDON = 4
_GIVEUP = 5

_KIND_NAMES = {
    _DEADLINE: "deadline",
    _FRAME: "frame",
    _CHECK: "check",
    _DONE: "gen_done",
    _ABANDON: "abandon",
    _GIVEUP: "giveup",
}

# flat serialization/processing allowance for control packets (reports and
# abandon notices); their payloads are too small for FIFO treatment to matter
_CTRL_PROC_S = 0.0005


class _FramePlan:
    """Per-frame template shared by every receiver: generation cut + psnr."""

    __slots__ = ("gens", "n_nalus", "psnr_recv", "psnr_lost", "base_count")

    def __init__(self, gens, n_nalus, psnr_recv, psnr_lost):
        self.gens = gens  # tuple of (nalu_slot, is_base, k)
        self.n_nalus = n_nalus
        self.psnr_recv = psnr_recv
        self.psnr_lost = psnr_lost
        self.base_count = sum(1 for _, is_base, _ in gens if is_base)


class _GenState:
    __slots__ = ("gen_id", "k", "frame", "nalu_slot", "is_base", "plan",
                 "rank", "rank_ts", "complete_at",
                 "last_arrival", "est_settle", "giveup_epoch", "seq")

    def __init__(self, gen_id, k, frame, nalu_slot, is_base):
        self.gen_id = gen_id
        self.k = k
        self.frame = frame  # frame index, not the _FrameState: no cycle
        self.nalu_slot = nalu_slot
        self.is_base = is_base
        self.plan = None
        self.rank = 0
        self.rank_ts: List[float] = []  # rank_ts[i]: when the rank reached i + 1
        self.complete_at: Optional[float] = None
        self.last_arrival = -1.0
        self.est_settle = 0.0
        self.giveup_epoch = 0
        self.seq = 0


def _in_time(g: _GenState) -> bool:
    """Whether the generation completed by its frame's display deadline."""
    return g.complete_at is not None and g.complete_at <= g.plan.deadline


class _FrameState:
    __slots__ = ("idx", "gen_time", "deadline", "plan", "gens", "base_left",
                 "consumed_at", "lost")

    def __init__(self, idx, gen_time, deadline, plan):
        self.idx = idx
        self.gen_time = gen_time
        self.deadline = deadline
        self.plan = plan
        self.gens: List[_GenState] = []
        self.base_left = plan.base_count
        self.consumed_at: Optional[float] = None
        self.lost = False


class _UEState:
    __slots__ = ("idx", "stream_start", "mm", "lte", "selector", "metrics",
                 "fb_ok", "frames", "decode_memo", "ptr", "buffer", "ul_delay")


#: run inputs kept per process: enough for a grid's one trace and its two
#: plan lists (one per coding profile), small enough that sweeps stay flat
RUN_INPUT_CACHE_SIZE = 4


@functools.lru_cache(maxsize=RUN_INPUT_CACHE_SIZE)
def _file_trace(path: str) -> VideoTrace:
    try:
        return load_trace(path)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    except ValueError as exc:
        raise TraceError(f"bad trace {path!r}: {exc}") from None


@functools.lru_cache(maxsize=RUN_INPUT_CACHE_SIZE)
def _synthetic_trace(frames: int, seed: int, base_bytes: int, enh_bytes: int,
                     jitter: float, psnr_lost: float, spatial_layers: int) -> VideoTrace:
    return synthesize_trace(frames=frames, seed=seed, base_bytes=base_bytes,
                            enh_bytes=enh_bytes, jitter=jitter, psnr_lost=psnr_lost,
                            spatial_layers=spatial_layers)


def _obtain_trace(cfg: SimConfig) -> VideoTrace:
    if cfg.trace_file:
        return _file_trace(cfg.trace_file)
    return _synthetic_trace(cfg.frame_count(), cfg.trace_seed, cfg.base_nalu_bytes,
                            cfg.enh_nalu_bytes, cfg.size_jitter, cfg.psnr_lost_db,
                            cfg.spatial_layers)


@functools.lru_cache(maxsize=RUN_INPUT_CACHE_SIZE)
def _frame_plans(trace: VideoTrace, n_frames: int,
                 packet_bytes: int, k_max: int) -> List[_FramePlan]:
    # keyed on the trace object itself, which the trace caches share
    plans = []
    for f in range(n_frames):
        rec = trace.frames[f]
        gens = []
        for slot, nid in enumerate(rec.nalu_ids):
            is_base = rec.nalu_layers[slot] == 0
            size = trace.nalus_by_id[nid].size_bytes
            n_pkts = len(packetize(size, packet_bytes))
            for k in split_counts(n_pkts, k_max):
                gens.append((slot, is_base, k))
        plans.append(
            _FramePlan(tuple(gens), len(rec.nalu_ids), rec.psnr_received, rec.psnr_lost)
        )
    return plans


class _Engine:
    def __init__(self, cfg: SimConfig, seed: int, plans: List[_FramePlan],
                 n_frames: int, log: Optional[List[str]]):
        self.cfg = cfg
        self.seed = seed
        self.plans = plans
        self.n_frames = n_frames
        self.log = log

        self.field = FieldSpec(cfg.field_exponent)
        self._wire_bytes: Dict[int, int] = {}
        self._dep: Dict[int, List[float]] = {}
        self._rank_rng = random.Random(derive_seed(seed, "rank"))
        self._next_gen_id = 0
        self._heap: list = []
        self.now = 0.0

        fps = cfg.fps
        buffer_depth = cfg.playout_buffer_frames / fps
        self.t_end = cfg.session_end_s()
        self.n_steps = int(self.t_end * (1.0 / cfg.channel_step_s)) + 2
        self.fb_int = cfg.feedback_interval_s
        self.n_reports = int(self.t_end / self.fb_int) + 2
        # how many missed reports to scan back before declaring ignorance;
        # past the staleness bound the answer cannot change path choice
        self._fb_scan = max(2, int(cfg.feedback_staleness_s / self.fb_int) + 2)

        self.ues = [self._build_ue(u, buffer_depth) for u in range(cfg.n_ues)]

        # frame arrivals and display deadlines are fixed up front; they form
        # a presorted stream beside the heap, with the seq numbers a push of
        # each (frame, deadline) pair per receiver would have given them.
        # It is popped from its end, so each event is freed once run.
        static = []
        for ue in self.ues:
            u = ue.idx
            seq0 = 2 * u * n_frames
            start = ue.stream_start
            deadline = ue.buffer.deadline
            static += [(start + f / fps, _FRAME, seq0 + 2 * f + 1, u, f)
                       for f in range(n_frames)]
            static += [(deadline(f), _DEADLINE, seq0 + 2 * f + 2, u, f)
                       for f in range(n_frames)]
        static.sort(reverse=True)
        self._static = static
        self._seq = 2 * len(self.ues) * n_frames

    # ------------------------------------------------------------- setup

    def _build_ue(self, u: int, buffer_depth: float) -> _UEState:
        cfg = self.cfg
        ue = _UEState()
        ue.idx = u
        ue.stream_start = u * cfg.stagger_step_s
        ue.mm = LinkModel(
            kind=MMWAVE,
            bandwidth_hz=cfg.mmwave_bandwidth_hz,
            efficiency=cfg.efficiency,
            base_delay_s=cfg.mmwave_base_delay_s,
            sojourn_s=(cfg.mmwave_sojourn_los_s, cfg.mmwave_sojourn_nlos_s),
            snr_mean_db=(cfg.mmwave_snr_los_db, cfg.mmwave_snr_nlos_db),
            snr_sigma_db=cfg.mmwave_snr_sigma_db,
            shadow_corr_s=cfg.mmwave_shadow_corr_s,
            loss_prob=(cfg.mmwave_loss_los, cfg.mmwave_loss_nlos),
            outage_threshold_db=cfg.outage_threshold_db,
            ran_retx=cfg.ran_retx,
            max_attempts=cfg.ran_max_attempts,
            retx_delay_s=cfg.ran_retx_delay_s,
            initial_mode=LOS if u < cfg.ues_los else NLOS,
            rng=random.Random(derive_seed(self.seed, "mmloss", u)),
        )
        # the cell rate is shared evenly among receivers by static split
        ue.lte = LinkModel.lte(
            bandwidth_hz=cfg.lte_bandwidth_hz / cfg.n_ues,
            snr_db=cfg.lte_snr_db,
            loss_prob=cfg.lte_loss,
            base_delay_s=cfg.lte_base_delay_s,
            ran_retx=cfg.ran_retx,
            max_attempts=cfg.ran_max_attempts,
            retx_delay_s=cfg.ran_retx_delay_s,
            efficiency=cfg.efficiency,
            outage_threshold_db=cfg.outage_threshold_db,
            rng=random.Random(derive_seed(self.seed, "lteloss", u)),
        )
        ue.selector = PathSelector(
            multi_connectivity=cfg.multi_connectivity,
            outage_threshold_db=ue.mm.outage_threshold_db,
            hysteresis_db=cfg.hysteresis_db,
            staleness_s=cfg.feedback_staleness_s,
        )
        ue.metrics = UEMetrics(ue_id=u)
        ue.mm.presample(self.n_steps, cfg.channel_step_s,
                        np.random.default_rng(derive_seed(self.seed, "chan", u)))
        # feedback rides the fallback path when there is one, else the
        # mmWave uplink: its state decides which reports survive, and every
        # control packet (reports, abandon notices) takes its delay
        fb_link = ue.lte if cfg.multi_connectivity else ue.mm
        ue.fb_ok = fb_link.control_survival(
            np.arange(self.n_reports) * self.fb_int,
            np.random.default_rng(derive_seed(self.seed, "fb", u)))
        ue.ul_delay = cfg.backhaul_delay_s + fb_link.base_delay_s + _CTRL_PROC_S
        ue.frames = [None] * self.n_frames
        ue.decode_memo = set()  # frames found decodable; they stay so
        ue.ptr = 0
        ue.buffer = PlayoutBuffer(
            ue.stream_start + cfg.backhaul_delay_s + buffer_depth,
            fps=cfg.fps,
            capacity=cfg.playout_buffer_frames,
        )
        ue.metrics.feedback_sent = self.n_reports
        ue.metrics.feedback_lost = int(np.count_nonzero(~ue.fb_ok))
        return ue

    # --------------------------------------------------------- event loop

    def _push(self, t, kind, ue_idx, arg):
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, self._seq, ue_idx, arg))

    def run(self) -> MetricsReport:
        heap = self._heap
        static = self._static
        heappop = heapq.heappop
        ues = self.ues
        log = self.log
        handlers = {
            _FRAME: self._on_frame,
            _CHECK: self._on_check,
            _DONE: self._on_done,
            _ABANDON: self._resolve_failure,
            _GIVEUP: self._on_giveup,
            _DEADLINE: self._on_deadline,
        }
        # the run's object graph is acyclic, so reference counting frees
        # everything the loop drops and the cyclic collector has nothing
        # to find; hold it off instead of letting it rescan the live graph
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            while True:
                # seq numbers are unique, so the tuples order on (t, kind, seq)
                if static and (not heap or static[-1] < heap[0]):
                    t, kind, _, ue_idx, arg = static.pop()
                elif heap:
                    t, kind, _, ue_idx, arg = heappop(heap)
                else:
                    break
                self.now = t
                if log is not None:
                    log.append(f"{t:.9f} {_KIND_NAMES[kind]} ue={ue_idx} arg={self._log_arg(arg)}")
                handlers[kind](ues[ue_idx], arg, t)
        finally:
            if gc_was_on:
                gc.enable()
        for ue in ues:
            ue.metrics.max_buffer_occupancy = ue.buffer.max_occupancy
        return MetricsReport(self.seed, self.cfg.duration_s, [u.metrics for u in ues])

    @staticmethod
    def _log_arg(arg):
        if isinstance(arg, _GenState):
            return f"gen{arg.gen_id}"
        if isinstance(arg, tuple):
            return f"gen{arg[0].gen_id}/e{arg[1]}"
        return arg

    # ----------------------------------------------------------- feedback

    def _latest_report(self, ue: _UEState, now: float) -> int:
        """Newest surviving report index whose arrival is <= now, or -1."""
        g = math.floor((now - ue.ul_delay) / self.fb_int)
        if g >= self.n_reports:
            g = self.n_reports - 1
        lim = g - self._fb_scan
        fb_ok = ue.fb_ok
        while g >= 0 and g > lim:
            if fb_ok[g]:
                return g
            g -= 1
        return -1

    def _known_rank(self, ue: _UEState, g: _GenState, now: float) -> int:
        rep = self._latest_report(ue, now)
        if rep < 0:
            return 0
        return bisect_right(g.rank_ts, rep * self.fb_int)

    def _current_path(self, ue: _UEState, now: float) -> str:
        if not self.cfg.multi_connectivity:
            return MMWAVE
        rep = self._latest_report(ue, now)
        if rep >= 0:
            sent_at = rep * self.fb_int
            snr = ue.mm.snr_at(sent_at)
            ue.selector.update(PathFeedback(
                ue_id=ue.idx,
                sent_at=sent_at,
                mmwave_available=snr >= ue.mm.outage_threshold_db,
                mmwave_snr_db=snr,
            ))
        return ue.selector.select_path(now)

    # -------------------------------------------------------- transmission

    def _wire(self, k: int) -> int:
        b = self._wire_bytes.get(k)
        if b is None:
            b = wire_size(self.field, k, self.cfg.packet_bytes)
            self._wire_bytes[k] = b
        return b

    def _dep_probs(self, k: int) -> List[float]:
        """P(arrival is linearly dependent | receiver rank r), r in [0, k)."""
        probs = self._dep.get(k)
        if probs is None:
            q = float(self.field.order)
            den = q ** k - 1.0  # fits float64 for every configured (q, k)
            probs = [(q ** r - 1.0) / den for r in range(k)]
            self._dep[k] = probs
        return probs

    def _send_burst(self, ue: _UEState, g: _GenState, n: int, path: str, now: float):
        cfg = self.cfg
        first = g.seq
        g.seq += n
        nbytes = self._wire(g.k)
        metrics = ue.metrics
        backhaul = cfg.backhaul_delay_s
        survivors = []
        est = now
        link = ue.mm if path == MMWAVE else ue.lte
        for emission in range(first, first + n):
            out = link.transmit(nbytes, now)
            metrics.count_packet(path, out.delivered)
            if out.delivered:
                arr = out.deliver_at + backhaul
                survivors.append((arr, emission))
                if arr > est:
                    est = arr
        tail = link.busy_until + link.base_delay_s + backhaul
        if tail > est:
            est = tail
        g.est_settle = est
        if survivors:
            survivors.sort()
            for arr, emission in survivors:
                self._feed(ue, g, arr, emission)

    def _feed(self, ue: _UEState, g: _GenState, arrival: float, emission: int):
        k = g.k
        if g.rank < k:
            if emission < k:
                advanced = True  # guarded draw: independent by construction
            else:
                p = self._dep_probs(k)[g.rank]
                advanced = p == 0.0 or self._rank_rng.random() >= p
            if advanced:
                g.rank += 1
                ts = g.rank_ts
                if ts and arrival < ts[-1]:
                    arrival = ts[-1]
                ts.append(arrival)
                if g.rank == k:
                    g.complete_at = arrival
                    ue.metrics.generations_delivered += 1
                    self._push(arrival, _DONE, ue.idx, g)
        if arrival > g.last_arrival:
            g.last_arrival = arrival

    def _arm_giveup(self, ue: _UEState, g: _GenState, now: float):
        # receiver-side skip timer for planless operation; with reactive
        # coding on, the sender plan plus the display deadline resolve
        # every generation, so the timer must not race them. An empty
        # generation reads as link loss, not repairable noise, and gets
        # the shorter patience. Only base generations can release a frame.
        if not g.is_base or g.complete_at is not None:
            return
        g.giveup_epoch += 1
        if g.last_arrival >= 0.0:
            t = max(g.last_arrival, now) + self.cfg.receiver_giveup_s
        else:
            t = now + self.cfg.receiver_giveup_empty_s
        self._push(t, _GIVEUP, ue.idx, (g, g.giveup_epoch))

    def _finish_plan(self, ue: _UEState, g: _GenState):
        h = ue.metrics.fec_rounds_hist
        a = g.plan.attempts_used
        h[a if a < len(h) else len(h) - 1] += 1

    def _schedule_check(self, ue: _UEState, g: _GenState, now: float):
        # look again once the burst just sent has settled and the report
        # showing it can have arrived, unless the rank the sender will know
        # by then already completes the plan
        guard = self.cfg.plan_check_guard_s
        t_check = g.est_settle + ue.ul_delay + guard
        if t_check <= now:
            t_check = now + guard
        if self._known_rank(ue, g, t_check) >= g.k:
            g.plan.delivered = True
            self._finish_plan(ue, g)
        else:
            self._push(t_check, _CHECK, ue.idx, g)

    def _fail_plan(self, ue: _UEState, g: _GenState, now: float):
        # the sender gives up; the receiver hears of it one uplink delay
        # later and drops the frame unless this base generation made it
        g.plan.failed = True
        self._finish_plan(ue, g)
        if g.is_base and not _in_time(g):
            self._push(now + ue.ul_delay, _ABANDON, ue.idx, g)

    # ------------------------------------------------------------ handlers

    def _on_frame(self, ue: _UEState, f: int, now: float):
        cfg = self.cfg
        plan = self.plans[f]
        fr = _FrameState(f, now, ue.buffer.deadline(f), plan)
        ue.frames[f] = fr
        path = self._current_path(ue, now)
        nc = cfg.nc_fec
        m = ue.metrics
        for nalu_slot, is_base, k in plan.gens:
            gen_id = self._next_gen_id
            self._next_gen_id += 1
            g = _GenState(gen_id, k, f, nalu_slot, is_base)
            g.plan = plan_generation(gen_id, k, path, fr.deadline, nc)
            fr.gens.append(g)
            m.generations_total += 1
            self._send_burst(ue, g, g.plan.n_initial, path, now)
            if not nc:
                # no sender-side plan without reactive coding: losses
                # resolve through the receiver timer or the display clock
                m.fec_rounds_hist[0] += 1
                self._arm_giveup(ue, g, now)
                continue
            self._schedule_check(ue, g, now)

    def _on_check(self, ue: _UEState, g: _GenState, now: float):
        cfg = self.cfg
        plan = g.plan
        rep = self._latest_report(ue, now)
        if rep < 0 or now - rep * self.fb_int - ue.ul_delay > cfg.feedback_staleness_s:
            # feedback blackout (mmWave-only uplink in outage): hold the
            # plan instead of burning top-up rounds blind; the display
            # deadline still bounds how long the receiver waits
            if now + self.fb_int > plan.deadline:
                self._fail_plan(ue, g, now)
            else:
                self._push(now + self.fb_int, _CHECK, ue.idx, g)
            return
        rank = self._known_rank(ue, g, now)
        act = handle_feedback(plan, rank, now, overshoot=cfg.retx_overshoot)
        if act.kind == "delivered":
            self._finish_plan(ue, g)
        elif act.kind == "failed":
            self._fail_plan(ue, g, now)
        else:
            self._send_burst(ue, g, act.count, self._current_path(ue, now), now)
            self._schedule_check(ue, g, now)

    def _on_done(self, ue: _UEState, g: _GenState, now: float):
        fr = ue.frames[g.frame]
        if g.is_base and not fr.lost:
            fr.base_left -= 1
            if fr.base_left == 0:
                self._try_advance(ue, now)

    def _resolve_failure(self, ue: _UEState, g: _GenState, now: float):
        # an abandon notice or a receiver give-up: the frame is lost unless
        # the generation made its deadline or the frame is already resolved
        fr = ue.frames[g.frame]
        if _in_time(g) or fr.lost or fr.consumed_at is not None:
            return
        fr.lost = True
        self._try_advance(ue, now)

    def _on_giveup(self, ue: _UEState, arg, now: float):
        g, epoch = arg
        if epoch == g.giveup_epoch:
            self._resolve_failure(ue, g, now)

    def _try_advance(self, ue: _UEState, now: float):
        frames = ue.frames
        n = self.n_frames
        ptr = ue.ptr
        while ptr < n:
            fr = frames[ptr]
            if fr is None:
                break
            if fr.lost:
                ptr += 1
                continue
            if fr.base_left == 0:
                if now <= fr.deadline:
                    ue.buffer.admit(ptr, now)
                    fr.consumed_at = now
                else:
                    fr.lost = True
                ptr += 1
                continue
            break
        ue.ptr = ptr

    def _base_complete(self, ue: _UEState, f: int) -> bool:
        """Whether every base generation of frame f is complete by the
        current event time."""
        fr = ue.frames[f]
        if fr is None:
            return False
        now = self.now
        for g in fr.gens:
            if g.is_base and (g.complete_at is None or g.complete_at > now):
                return False
        return True

    def _on_deadline(self, ue: _UEState, f: int, now: float):
        fr = ue.frames[f]
        if ue.ptr == f:
            # still unresolved at display time: a hard loss
            if fr.consumed_at is None and not fr.lost:
                fr.lost = True
            ue.ptr = f + 1
            self._try_advance(ue, now)
        ue.buffer.step(now)

        m = ue.metrics
        m.frames_total += 1
        usable = fr.consumed_at is not None and decodable(
            f, self.n_frames, functools.partial(self._base_complete, ue),
            ue.decode_memo)
        if usable:
            m.frames_played += 1
            m.psnr_sum_db += fr.plan.psnr_recv
            m.latency_samples.append(fr.consumed_at - fr.gen_time)
        else:
            m.psnr_sum_db += fr.plan.psnr_lost

        n_nalus = fr.plan.n_nalus
        ok = [True] * n_nalus
        for g in fr.gens:
            if g.complete_at is None or g.complete_at > now:
                ok[g.nalu_slot] = False
        m.nalus_total += n_nalus
        m.nalus_lost += n_nalus - sum(ok)


def run(config: SimConfig, seed: Optional[int] = None,
        events_log: Optional[List[str]] = None) -> MetricsReport:
    """Execute one streaming session and return its metrics.

    Deterministic: identical (config, seed) give an identical report and,
    when ``events_log`` is supplied, an identical log line sequence.
    Raises RuntimeError if the report breaks one of the bookkeeping
    identities of :func:`~mcnc.sim.metrics.check_conservation`.
    """
    config.validate()
    if seed is None:
        seed = config.seed
    trace = _obtain_trace(config)
    n_frames = config.frame_count()
    if trace.n_frames < n_frames:
        raise TraceError(
            f"trace has {trace.n_frames} frames, need {n_frames} "
            f"for {config.duration_s}s at {config.fps}fps"
        )
    plans = _frame_plans(trace, n_frames, config.packet_bytes, config.generation_size)
    report = _Engine(config, seed, plans, n_frames, events_log).run()
    violation = check_conservation(report)
    if violation is not None:
        raise RuntimeError("conservation violated: " + violation)
    return report
