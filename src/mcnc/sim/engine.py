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
- Feedback is pulled, not evented. Receiver reports live on a fixed grid;
  per-report survival is presampled, and "what did the sender know at t"
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
  path has its own tests. Uncoded transport tracks distinct source
  indices instead.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

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
                 "rank", "mask", "rank_ts", "rank_rs", "complete_at",
                 "last_arrival", "est_settle", "giveup_epoch", "seq")

    def __init__(self, gen_id, k, frame, nalu_slot, is_base):
        self.gen_id = gen_id
        self.k = k
        self.frame = frame
        self.nalu_slot = nalu_slot
        self.is_base = is_base
        self.plan = None
        self.rank = 0
        self.mask = None  # uncoded mode: bitmask of source indices received
        self.rank_ts: List[float] = []
        self.rank_rs: List[int] = []
        self.complete_at: Optional[float] = None
        self.last_arrival = -1.0
        self.est_settle = 0.0
        self.giveup_epoch = 0
        self.seq = 0


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
                 "fb_ok", "frames", "base_complete", "decode_memo", "ptr", "buffer", "ul_delay")


_TRACE_CACHE: Dict[tuple, VideoTrace] = {}
_PLAN_CACHE: Dict[tuple, List[_FramePlan]] = {}


def _obtain_trace(cfg: SimConfig) -> Tuple[tuple, VideoTrace]:
    if cfg.trace_file:
        key = ("file", cfg.trace_file)
        if key not in _TRACE_CACHE:
            try:
                _TRACE_CACHE[key] = load_trace(cfg.trace_file)
            except OSError as exc:
                raise TraceError(f"cannot read trace {cfg.trace_file!r}: {exc}") from None
            except ValueError as exc:
                raise TraceError(f"bad trace {cfg.trace_file!r}: {exc}") from None
        return key, _TRACE_CACHE[key]
    n_frames = cfg.frame_count()
    key = ("gen", n_frames, cfg.trace_seed, cfg.base_nalu_bytes,
           cfg.enh_nalu_bytes, cfg.size_jitter, cfg.psnr_lost_db, cfg.spatial_layers)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = synthesize_trace(
            frames=n_frames,
            seed=cfg.trace_seed,
            base_bytes=cfg.base_nalu_bytes,
            enh_bytes=cfg.enh_nalu_bytes,
            jitter=cfg.size_jitter,
            psnr_lost=cfg.psnr_lost_db,
            spatial_layers=cfg.spatial_layers,
        )
    return key, _TRACE_CACHE[key]


def _frame_plans(trace_key, trace: VideoTrace, n_frames: int,
                 packet_bytes: int, k_max: int) -> List[_FramePlan]:
    key = (trace_key, n_frames, packet_bytes, k_max)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
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
    _PLAN_CACHE[key] = plans
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
        self._seq = 0
        self._heap: list = []
        self.now = 0.0

        fps = cfg.fps
        buffer_depth = cfg.playout_buffer_frames / fps
        self.t_end = cfg.session_end_s()
        self._inv_step = 1.0 / cfg.channel_step_s
        self.n_steps = int(self.t_end * self._inv_step) + 2
        self.fb_int = cfg.feedback_interval_s
        self.n_reports = int(self.t_end / self.fb_int) + 2
        # how many missed reports to scan back before declaring ignorance;
        # past the staleness bound the answer cannot change path choice
        self._fb_scan = max(2, int(cfg.feedback_staleness_s / self.fb_int) + 2)

        self.ues = [self._build_ue(u, buffer_depth) for u in range(cfg.n_ues)]

        for ue in self.ues:
            for f in range(n_frames):
                self._push(ue.stream_start + f / fps, _FRAME, ue.idx, f)
                self._push(ue.buffer.deadline(f), _DEADLINE, ue.idx, f)

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
            rng=random.Random(derive_seed(self.seed, "lteloss", u)),
        )
        ue.selector = PathSelector(
            multi_connectivity=cfg.multi_connectivity,
            outage_threshold_db=cfg.outage_threshold_db,
            hysteresis_db=cfg.hysteresis_db,
            staleness_s=cfg.feedback_staleness_s,
        )
        ue.metrics = UEMetrics(ue_id=u)
        ue.mm.presample(self.n_steps, cfg.channel_step_s,
                        np.random.default_rng(derive_seed(self.seed, "chan", u)))
        ue.fb_ok = self._sample_report_survival(u, ue)
        ue.frames = [None] * self.n_frames
        ue.base_complete = functools.partial(self._base_complete, ue)
        ue.decode_memo = set()  # frames found decodable; they stay so
        ue.ptr = 0
        ue.buffer = PlayoutBuffer(
            ue.stream_start + cfg.backhaul_delay_s + buffer_depth,
            fps=cfg.fps,
            capacity=cfg.playout_buffer_frames,
        )
        # feedback rides the fallback path when there is one, else the
        # mmWave uplink (where outage also costs the reports)
        fb_base = cfg.lte_base_delay_s if cfg.multi_connectivity else cfg.mmwave_base_delay_s
        # one delay for every control packet: reports and abandon notices
        ue.ul_delay = cfg.backhaul_delay_s + fb_base + _CTRL_PROC_S
        ue.metrics.feedback_sent = self.n_reports
        ue.metrics.feedback_lost = int(np.count_nonzero(~ue.fb_ok))
        return ue

    def _sample_report_survival(self, u: int, ue: _UEState) -> np.ndarray:
        cfg = self.cfg
        rng = np.random.default_rng(derive_seed(self.seed, "fb", u))
        draws = rng.random(self.n_reports)
        attempts = cfg.ran_max_attempts if cfg.ran_retx else 1
        if cfg.multi_connectivity:
            p_eff = cfg.lte_loss ** attempts
            return draws >= p_eff
        idx = np.minimum(
            (np.arange(self.n_reports) * self.fb_int * self._inv_step).astype(np.int64),
            self.n_steps - 1,
        )
        snr = np.asarray(ue.mm.snrs_db)[idx]
        mode = np.asarray(ue.mm.modes)[idx]
        p_mode = np.where(mode == LOS, cfg.mmwave_loss_los, cfg.mmwave_loss_nlos)
        p_eff = p_mode ** attempts
        ok = draws >= p_eff
        ok[snr < cfg.outage_threshold_db] = False
        return ok

    # --------------------------------------------------------- event loop

    def _push(self, t, kind, ue_idx, arg):
        self._seq += 1
        heapq.heappush(self._heap, (t, kind, self._seq, ue_idx, arg))

    def run(self) -> MetricsReport:
        heap = self._heap
        log = self.log
        handlers = {
            _FRAME: self._on_frame,
            _CHECK: self._on_check,
            _DONE: self._on_done,
            _ABANDON: self._on_abandon,
            _GIVEUP: self._on_giveup,
            _DEADLINE: self._on_deadline,
        }
        while heap:
            t, kind, _, ue_idx, arg = heapq.heappop(heap)
            self.now = t
            if log is not None:
                log.append(f"{t:.9f} {_KIND_NAMES[kind]} ue={ue_idx} arg={self._log_arg(arg)}")
            handlers[kind](self.ues[ue_idx], arg, t)
        for ue in self.ues:
            ue.metrics.max_buffer_occupancy = ue.buffer.max_occupancy
        return MetricsReport(self.seed, self.cfg.duration_s, [u.metrics for u in self.ues])

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
        t_rep = rep * self.fb_int
        i = bisect_right(g.rank_ts, t_rep) - 1
        return g.rank_rs[i] if i >= 0 else 0

    def _current_path(self, ue: _UEState, now: float) -> str:
        if not self.cfg.multi_connectivity:
            return MMWAVE
        rep = self._latest_report(ue, now)
        if rep >= 0:
            idx = min(int(rep * self.fb_int * self._inv_step), self.n_steps - 1)
            snr = ue.mm.snrs_db[idx]
            ue.selector.update(PathFeedback(
                ue_id=ue.idx,
                sent_at=rep * self.fb_int,
                mmwave_available=snr >= self.cfg.outage_threshold_db,
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
            if g.mask is not None:
                bit = 1 << (emission % k)
                advanced = not g.mask & bit
                g.mask |= bit
            elif emission < k:
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
                g.rank_rs.append(g.rank)
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

    # ------------------------------------------------------------ handlers

    def _on_frame(self, ue: _UEState, f: int, now: float):
        cfg = self.cfg
        plan = self.plans[f]
        fr = _FrameState(f, now, ue.buffer.deadline(f), plan)
        ue.frames[f] = fr
        path = self._current_path(ue, now)
        nc = cfg.nc_fec
        guard = cfg.plan_check_guard_s
        m = ue.metrics
        for nalu_slot, is_base, k in plan.gens:
            gen_id = self._next_gen_id
            self._next_gen_id += 1
            g = _GenState(gen_id, k, fr, nalu_slot, is_base)
            if cfg.uncoded:
                g.mask = 0
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
            t_check = g.est_settle + ue.ul_delay + guard
            if self._known_rank(ue, g, t_check) >= k:
                g.plan.delivered = True
                self._finish_plan(ue, g)
            else:
                self._push(t_check, _CHECK, ue.idx, g)

    def _on_check(self, ue: _UEState, g: _GenState, now: float):
        cfg = self.cfg
        plan = g.plan
        if plan.delivered or plan.failed:
            return
        rep = self._latest_report(ue, now)
        if rep < 0 or now - rep * self.fb_int - ue.ul_delay > cfg.feedback_staleness_s:
            # feedback blackout (mmWave-only uplink in outage): hold the
            # plan instead of burning top-up rounds blind; the display
            # deadline still bounds how long the receiver waits
            if now + self.fb_int > g.frame.deadline:
                plan.failed = True
                self._finish_plan(ue, g)
                if g.is_base and (g.complete_at is None
                                  or g.complete_at > g.frame.deadline):
                    self._push(now + ue.ul_delay, _ABANDON, ue.idx, g)
            else:
                self._push(now + self.fb_int, _CHECK, ue.idx, g)
            return
        rank = self._known_rank(ue, g, now)
        act = handle_feedback(plan, rank, now, nc_fec=cfg.nc_fec,
                              overshoot=cfg.retx_overshoot)
        if act.kind == "delivered":
            self._finish_plan(ue, g)
            return
        if act.kind == "failed":
            self._finish_plan(ue, g)
            if g.is_base and (g.complete_at is None or g.complete_at > g.frame.deadline):
                self._push(now + ue.ul_delay, _ABANDON, ue.idx, g)
            return
        path = self._current_path(ue, now)
        self._send_burst(ue, g, act.count, path, now)
        t_next = g.est_settle + ue.ul_delay + cfg.plan_check_guard_s
        if t_next <= now:
            t_next = now + cfg.plan_check_guard_s
        if self._known_rank(ue, g, t_next) >= g.k:
            plan.delivered = True
            self._finish_plan(ue, g)
        else:
            self._push(t_next, _CHECK, ue.idx, g)

    def _on_done(self, ue: _UEState, g: _GenState, now: float):
        fr = g.frame
        if g.is_base and not fr.lost:
            fr.base_left -= 1
            if fr.base_left == 0:
                self._try_advance(ue, now)

    def _resolve_failure(self, ue: _UEState, g: _GenState, now: float):
        fr = g.frame
        if fr.lost or fr.consumed_at is not None:
            return
        fr.lost = True
        self._try_advance(ue, now)

    def _on_abandon(self, ue: _UEState, g: _GenState, now: float):
        if g.complete_at is not None and g.complete_at <= g.frame.deadline:
            return
        self._resolve_failure(ue, g, now)

    def _on_giveup(self, ue: _UEState, arg, now: float):
        g, epoch = arg
        if epoch != g.giveup_epoch:
            return
        if g.complete_at is not None and g.complete_at <= g.frame.deadline:
            return
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
            f, self.n_frames, ue.base_complete, ue.decode_memo)
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
    trace_key, trace = _obtain_trace(config)
    n_frames = config.frame_count()
    if trace.n_frames < n_frames:
        raise TraceError(
            f"trace has {trace.n_frames} frames, need {n_frames} "
            f"for {config.duration_s}s at {config.fps}fps"
        )
    plans = _frame_plans(trace_key, trace, n_frames,
                         config.packet_bytes, config.generation_size)
    report = _Engine(config, seed, plans, n_frames, events_log).run()
    violation = check_conservation(report)
    if violation is not None:
        raise RuntimeError("conservation violated: " + violation)
    return report
