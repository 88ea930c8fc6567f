"""Event-driven streaming session: trace frames in, played frames out.

One run couples the layers end to end. Trace frames are cut into
generations at the sender (one NALU never shares a generation with
another), coded bursts ride the per-receiver radio links, and feedback
steers path choice and top-up rounds. A session runs one of two loops,
by whether it codes FEC. With FEC only the sender is evented, and only
where it touches a link: a FRAME sends each of a frame's generations its
initial burst, a CHECK sends a generation's top-up. At equal times a
FRAME runs first, and CHECKs run in generation order. Right after each
burst, the sender's next look at the plan (``_Engine._look``) is made,
its inputs all final: ``handle_feedback`` decides a look with a fresh
report, closing the plan or sizing the top-up whose CHECK the look
pushes. A blackout (no fresh report) walks the looks one interval apart
to the first fresh one, or fails the plan at the last before the display
deadline. Without FEC there is no plan, no look and no event: every
generation's one burst, its k source packets at its frame's arrival,
decides it and feeds no rank timeline, so ``_send_planless`` sends the
frames in order in one pass. With multi-connectivity disabled everything
rides mmWave. Everything is deterministic given (config, seed): every
random stream is split off the master seed with a distinct label.

Session state is columns indexed by generation id. A ``_Layout``, shared
by every receiver, numbers the generations in frame order and holds what
the trace fixes; each session holds what happened to them, such as
``complete_at`` (when the rank reached k). An FEC session alone builds
the sender's state: the ``GenerationPlan`` per generation, the flat rank
timeline its looks read, the rank stream and the heap of top-ups.

After the sends, ``_play`` plays the receiver back in a few array passes
over the frames in display order. Every input is final by then:
``complete_at`` and ``notice_at``, a failed plan heard one uplink delay
later or, without FEC, the give-up timer, set once the planless sends are
done since a generation's one burst fixes it. One rule decides: a generation counts
for display instant D only if ``complete_at < D``. A frame whose base
generations all count is taken once the last completed, but not before
the consumer moved past the frame before it; any other frame is lost, and
the consumer moves past it at D or at its first notice, if earlier. A
taken frame plays if its ready instant, the latest base completion over
it and every frame it references (``video.structure.ready_times``), is
before D; a NALU is lost if any of its generations does not count. At
most ``playout_buffer_frames`` frames are ever taken but undisplayed:
nothing is taken before it arrives, and nothing arrives earlier than one
buffer depth before its display instant.

Scale choices, made so a 60 s five-receiver session stays under a second
of wall clock without changing observable behavior:

- Fading is presampled. Each mmWave link draws its whole trajectory on
  the channel step grid up front (``LinkModel.presample``), and
  transmissions, feedback survival and path reports look the state up by
  timestamp.
- Transmissions are presimulated at dispatch. The FIFO link yields each
  packet's delivery time immediately, so a burst's effect on the decoder
  rank timeline is known when the burst is sent; rank queries and the
  playback pass read that timeline instead of per-packet events. A
  retried packet can overlap a later burst by a few milliseconds; the
  timeline clamps such arrivals to keep rank monotone in time.
- The send path stays per packet, with the counting and the rate done
  in bulk. Each packet of a burst still goes through
  ``LinkModel.transmit`` on its own, but a burst adds its counts to its
  path's entry of ``UEMetrics.packets`` once, and each link computes
  its rate once per channel step. ``_send_burst`` serves the FEC plans:
  a burst's survivors are sorted by arrival and feed the rank timeline
  in one pass that stops at full rank. A planless generation's burst
  (no FEC) skips the timeline: it completes at its latest arrival iff
  all k source packets arrive, and ``_send_planless`` keeps just that
  maximum and the counts. Each call's ``TxOutcome`` is a lean tuple
  subclass that the loops unpack.
- Feedback is one per-slot timeline, pulled, not evented. Receiver
  reports live on a fixed grid and ride one feedback link: LTE with multi
  connectivity, else the mmWave uplink. That link presamples per-report
  survival (``LinkModel.control_survival``). At time t the newest report
  slot that can have arrived is g = ``_Engine._slot(t)``, and a surviving
  report j is fresh while g - j < W, the
  ``SimConfig.fresh_slots()`` window, ceil(staleness / interval). "What
  does the sender know at t" is one index into a per-receiver ``newest``
  table, built at init, that holds each slot's newest fresh report or
  none. The same lookup serves the plan looks, the blackout walk and
  path choice. With multi connectivity a second table holds the path in
  force after each slot: ``PathSelector`` judges the mmWave SNR of the
  slot's fresh report for outage and hysteresis once per slot, and a
  slot with none means LTE. Path choice at t is one index into it.
- Decoding is rank-sampled. Payloads are never materialized here, and the
  transmit side is systematic: a generation's first k emissions are its
  source packets, with unit coefficient vectors, so each of them that
  arrives adds one rank. Later emissions are uniform nonzero vectors, and
  by uniformity against any fixed span such an arrival is dependent with
  probability (q^rank - 1)/(q^k - 1); the engine samples that Bernoulli
  from the receiver's own rank stream instead of eliminating coefficient
  vectors. (A source packet landing after tail packets already raised the
  rank could in truth be dependent, at odds ~q^(rank-k); the shortcut
  ignores that.)
  Byte counts use the padded wire size, and the codec's real elimination
  path has its own tests.
- Receiver-major. Receivers share no simulated state, so each one's
  session runs alone, to its end, one after another: its own columns,
  random streams and, with FEC, heap. Frame arrivals are fixed at
  ``stream_start + f / fps``, so they never enter the heap: the FEC loop
  walks the frames in order and, before each, dispatches the CHECKs due
  strictly earlier, then sends the frame's bursts in place, with the
  display deadlines computed once per session. The heap holds top-ups
  only.
- Per generation a session makes only FEC plans and heap tuples, and
  nothing points back at them: reference counting frees a session as it
  ends, so the cyclic collector is held off around the sends and
  playback (and restored, even when a handler raises).
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
import random
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..channel import LOS, LTE, MMWAVE, NLOS, LinkModel
from ..distribution import (GenerationPlan, PathSelector, handle_feedback,
                            initial_burst_size)
from ..gf import FieldSpec
from ..rlnc import split_counts, wire_size
from ..seeding import derive_seed
from ..video.structure import ready_times
from ..video.playout import PlayoutBuffer
from ..video.trace import VideoTrace, load_trace
from ..video.tracegen import synthesize_trace
from .config import MAX_GRID_STATES, SimConfig
from .metrics import MetricsReport, UEMetrics, check_conservation, left_sum


class TraceError(RuntimeError):
    """Raised when the video trace cannot be obtained or is too short."""


# flat serialization/processing allowance for control packets (reports and
# failure notices); their payloads are too small for FIFO treatment to matter
_CTRL_PROC_S = 0.0005


class _Layout:
    """The generations of a plan list, numbered in frame order and shared
    by every receiver: frame f owns generation ids ``first[f]`` to
    ``first[f + 1] - 1``, and generation g's rank timeline takes the k
    slots from ``off[g]`` of its session's flat timeline.

    Built from ``frames``: per frame, its NALUs as (is_base, generation
    sizes) pairs in order, then its PSNR received and lost.
    """

    __slots__ = ("first", "k", "off", "n_packets", "n_gens", "n_nalus", "is_base",
                 "frame_of", "frame_starts", "nalu_starts", "psnr_recv", "psnr_lost")

    def __init__(self, frames: Iterable[Tuple[Iterable[Tuple[bool, List[int]]], float, float]]):
        first, ks, is_base, nalu_starts, psnr = array("l", [0]), [], [], array("l"), []
        for nalus, recv, lost in frames:
            for base, sizes in nalus:
                nalu_starts.append(len(ks))
                ks += sizes
                is_base += [base] * len(sizes)
            first.append(len(ks))
            psnr.append((recv, lost))
        self.first = first
        self.k = ks
        self.off = array("l", accumulate(ks, initial=0))
        self.n_packets = self.off.pop()
        self.n_gens = len(ks)
        self.n_nalus = len(nalu_starts)
        self.is_base = np.array(is_base, dtype=bool)
        # every frame has a base NALU, and every NALU a generation, so no
        # reduceat group below is empty
        self.frame_of = np.repeat(np.arange(len(psnr)), np.diff(first))
        self.frame_starts = np.array(first[:-1])
        self.nalu_starts = np.array(nalu_starts)
        self.psnr_recv, self.psnr_lost = np.array(psnr, dtype=float).T


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
                 packet_bytes: int, k_max: int) -> _Layout:
    # keyed on the trace object itself, which the trace caches share
    return _Layout(
        (((layer == 0, split_counts(-(-trace.nalus_by_id[nid].size_bytes // packet_bytes),
                                    k_max))
          for nid, layer in zip(rec.nalu_ids, rec.nalu_layers)),
         rec.psnr_received, rec.psnr_lost)
        for rec in trace.frames[:n_frames])


def _newest_reports(fb_ok, scan: int) -> np.ndarray:
    """``newest[g]``: the newest index j in (g - scan, g] with ``fb_ok[j]``,
    or -1 if there is none."""
    idx = np.arange(len(fb_ok))
    scan = min(scan, len(fb_ok) + 1)  # longer reaches back to index 0 all the same
    last_ok = np.maximum.accumulate(np.where(fb_ok, idx, -1))
    return np.where(last_ok > idx - scan, last_ok, -1)


class _Engine:
    """One receiver's session: its links, feedback, playout clock and events."""

    def __init__(self, cfg: SimConfig, seed: int, layout: _Layout,
                 log: Optional[List[str]], u: int):
        self.cfg = cfg
        self.layout = layout
        self.n_frames = len(layout.first) - 1
        self.log = log
        self.u = u

        self.field = FieldSpec(cfg.field_exponent)
        # per-k tables, indexed by generation size k in [0, generation_size]
        ks = range(cfg.generation_size + 1)
        self._wire = [wire_size(self.field, k, cfg.packet_bytes) for k in ks]

        self.t_end = cfg.session_end_s()
        n_steps = int(self.t_end * (1.0 / cfg.channel_step_s)) + 2
        self.fb_int = cfg.feedback_interval_s
        self.n_reports = int(self.t_end / self.fb_int) + 2
        self.window = cfg.fresh_slots()

        self.stream_start = u * cfg.stagger_step_s
        self.mm = LinkModel(cfg, MMWAVE, LOS if u < cfg.ues_los else NLOS,
                            random.Random(derive_seed(seed, "mmloss", u)))
        self.lte = LinkModel(cfg, LTE, LOS, random.Random(derive_seed(seed, "lteloss", u)))
        self.mm.presample(n_steps, cfg.channel_step_s,
                          np.random.default_rng(derive_seed(seed, "chan", u)))
        # feedback rides the fallback path when there is one, else the
        # mmWave uplink: its state decides which reports survive, and every
        # control packet (reports, abandon notices) takes its delay
        fb_link = self.lte if cfg.multi_connectivity else self.mm
        sent_at = np.arange(self.n_reports) * self.fb_int
        fb_ok = fb_link.control_survival(
            sent_at, np.random.default_rng(derive_seed(seed, "fb", u)))
        newest = _newest_reports(fb_ok, self.window)
        self.newest = newest.tolist()
        if cfg.multi_connectivity:
            # the path in force once the sender has seen each slot's fresh
            # report, from the mmWave SNR that report carries (NaN: none)
            selector = PathSelector(cfg.outage_threshold_db, cfg.hysteresis_db)
            self.on_mmwave = selector.on_mmwave(
                np.where(newest >= 0, self.mm.snr_at(sent_at)[newest], np.nan))
        self.backhaul = cfg.backhaul_delay_s
        self.ul_delay = self.backhaul + fb_link.base_delay_s + _CTRL_PROC_S
        self.metrics = UEMetrics(ue_id=u)
        self.metrics.feedback_sent = self.n_reports
        self.metrics.feedback_lost = int(np.count_nonzero(~fb_ok))
        self.arrival_at = self.stream_start + np.arange(self.n_frames) / cfg.fps
        self.buffer = PlayoutBuffer(
            self.stream_start + cfg.backhaul_delay_s + cfg.playout_buffer_frames / cfg.fps,
            fps=cfg.fps)
        self.deadlines = self.buffer.deadline(np.arange(self.n_frames))

        # the session's columns, indexed by generation id: when the rank
        # reached k, when a failure notice reached the receiver and the
        # latest arrival (-1: none)
        n_gens = layout.n_gens
        self.complete_at = array("d", [math.inf]) * n_gens
        self.notice_at = array("d", [math.inf]) * n_gens
        self.last_arrival = array("d", [-1.0]) * n_gens
        self._k = layout.k
        self.consumed_at = self.played = None  # per frame, set by _play
        if not cfg.nc_fec:
            return
        # the sender's state, FEC only: per generation the rank and its
        # plan; ts[off[g] + i] is when g's rank reached i + 1
        self.rank = [0] * n_gens
        self.plans: List[Optional[GenerationPlan]] = [None] * n_gens
        self.ts = array("d", bytes(8 * layout.n_packets))
        self._off = layout.off
        self._n_initial = {path: [initial_burst_size(k, path, True) for k in ks]
                           for path in (MMWAVE, LTE)}
        self._dep: Dict[int, List[float]] = {}
        self._rank_rng = random.Random(derive_seed(seed, "rank", u))
        # pending top-ups, (t, gen_id, plan, packets), at most one per
        # generation; frames arrive on their own clock instead
        self._heap = []

    # --------------------------------------------------------- event loop

    def run(self) -> UEMetrics:
        # the objects a session makes hold nothing that points back at
        # them, so reference counting frees everything it drops and the
        # cyclic collector has nothing to find; hold it off instead of
        # letting it rescan the live plans
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            if self.cfg.nc_fec:
                self._run_plans()
            else:
                self._send_planless()
            self._play()
        finally:
            if gc_was_on:
                gc.enable()
        return self.metrics

    def _run_plans(self):
        """The FEC event loop: each frame's initial bursts at its arrival,
        the top-ups in between, and a look right after each burst."""
        heap = self._heap
        heappop = heapq.heappop
        log = self.log
        u = self.u
        on_check = self._on_check
        send_burst = self._send_burst
        look = self._look
        current_path = self._current_path
        n_initial = self._n_initial
        ks = self._k
        first = self.layout.first
        plans = self.plans
        ul_delay = self.ul_delay
        guard = self.cfg.plan_check_guard_s
        deadlines = self.deadlines.tolist()
        # a generation has at most one top-up pending, so the heap's
        # tuples order on (t, gen_id): equal times run in generation order
        arrivals = self.arrival_at.tolist()
        arrivals.append(math.inf)  # the end, after the last frame, drains the CHECKs left
        for f, t_f in enumerate(arrivals):
            while heap and heap[0][0] < t_f:  # a FRAME wins a tie
                t, gen_id, g, count = heappop(heap)
                if log is not None:
                    log.append(f"{t:.9f} check ue={u} arg=gen{gen_id}")
                on_check(g, count, t)
            if f == self.n_frames:
                break
            if log is not None:
                log.append(f"{t_f:.9f} frame ue={u} arg={f}")
            path = current_path(t_f)
            sizes = n_initial[path]
            deadline = deadlines[f]
            for gen_id in range(first[f], first[f + 1]):
                k = ks[gen_id]
                g = plans[gen_id] = GenerationPlan(gen_id, k, sizes[k], deadline)
                settle = send_burst(gen_id, g.n_initial, k, path, t_f)
                # look once the burst has settled and the report showing it
                # can have arrived; settle >= t_f and ul_delay > 0, so after t_f
                look(g, settle + ul_delay + guard)

    # ----------------------------------------------------------- feedback

    def _slot(self, t: float) -> int:
        """The newest report slot that can have arrived by t, negative
        before the first. The quotient is a float that floors, so t exactly
        one uplink delay after a report can read the slot before it."""
        return math.floor((t - self.ul_delay) / self.fb_int)

    def _latest_report(self, now: float) -> int:
        """The newest surviving report fresh at now, or -1: fresh means
        fewer than ``window`` slots older than the newest report slot that
        can have arrived by now."""
        g = self._slot(now)
        if g < 0:
            return -1
        if g < self.n_reports:
            return self.newest[g]
        rep = self.newest[-1]  # past the report grid, no later report exists
        return rep if g - rep < self.window else -1

    def _current_path(self, now: float) -> str:
        # paths are chosen before the session's end, inside the report grid
        if not self.cfg.multi_connectivity:
            return MMWAVE
        g = self._slot(now)
        return MMWAVE if g >= 0 and self.on_mmwave[g] else LTE

    # -------------------------------------------------------- transmission

    def _dep_probs(self, k: int) -> List[float]:
        """P(arrival is linearly dependent | receiver rank r), r in [0, k)."""
        probs = self._dep.get(k)
        if probs is None:
            q = float(self.field.order)
            den = q ** k - 1.0  # fits float64 for every configured (q, k)
            probs = [(q ** r - 1.0) / den for r in range(k)]
            self._dep[k] = probs
        return probs

    def _send_burst(self, gen_id: int, n: int, sources: int, path: str, now: float) -> float:
        """Send n packets of FEC generation gen_id on path, the first
        ``sources`` of them source packets (k in an initial burst, none in a
        top-up) and the rest tail packets; returns when the burst settled.

        Each surviving packet feeds the receiver's rank timeline in arrival
        order, until the rank reaches k. A source packet adds one rank; a
        tail packet adds one unless the Bernoulli draw says it is dependent.
        An arrival that lands before an earlier burst last raised the rank
        is clamped to that time, so the timeline stays monotone.
        """
        k = self._k[gen_id]
        nbytes = self._wire[k]
        backhaul = self.backhaul
        link = self.mm if path == MMWAVE else self.lte
        transmit = link.transmit
        survivors = []
        outage = exhausted = 0
        for i in range(n):
            delivered, deliver_at, attempts, _ = transmit(nbytes, now)
            if delivered:
                survivors.append((deliver_at + backhaul, i))
            elif attempts:
                exhausted += 1  # every attempt the retry ladder allows was lost
            else:
                outage += 1  # dropped unsent: the link is in outage
        counts = self.metrics.packets[path]
        counts[0] += n
        counts[1] += len(survivors)
        counts[2] += outage
        counts[3] += exhausted
        est = link.busy_until + link.base_delay_s + backhaul
        if now > est:
            est = now
        if not survivors:
            return est
        survivors.sort()
        last = survivors[-1][0]  # no clamped arrival is later
        if last > est:
            est = last
        if last > self.last_arrival[gen_id]:
            self.last_arrival[gen_id] = last
        rank = self.rank[gen_id]
        if rank == k:
            return est
        ts = self.ts
        off = self._off[gen_id]
        floor = ts[off + rank - 1] if rank else -math.inf
        probs = None
        for arrival, i in survivors:
            if i >= sources:  # a tail packet; a source packet is independent
                if probs is None:
                    probs = self._dep_probs(k)
                p = probs[rank]
                if p != 0.0 and self._rank_rng.random() < p:
                    continue
            step = ts[off + rank] = arrival if arrival > floor else floor
            rank += 1
            if rank == k:
                self.complete_at[gen_id] = step
                break
        self.rank[gen_id] = rank
        return est

    def _fail_plan(self, g: GenerationPlan, now: float):
        # the sender gives up; the receiver hears of it one uplink delay
        # later, which can only lose the frame if this base generation
        # does not count for its display instant
        g.failed = True
        self.metrics.fec_rounds_hist[g.attempts_used] += 1
        gen_id = g.gen_id
        if self.layout.is_base[gen_id] and not self.complete_at[gen_id] < g.deadline:
            self.notice_at[gen_id] = now + self.ul_delay

    def _look(self, g: GenerationPlan, t: float):
        """Make the sender's look at plan g at t, right after the round's
        burst; only g's own bursts extend its rank timeline, so the inputs
        are final. ``handle_feedback`` decides a look with a fresh report.
        A blackout holds the plan rather than topping it up blind: the
        looks one report interval apart are walked to the first with a
        fresh report, or the plan fails at the last the deadline allows."""
        rep = self._latest_report(t)
        while rep < 0:
            nxt = t + self.fb_int
            if nxt > g.deadline:
                self._fail_plan(g, t)
                return
            t = nxt
            rep = self._latest_report(t)
        # the rank as the newest fresh report shows it
        gen_id = g.gen_id
        off = self._off[gen_id]
        rank = bisect_right(self.ts, rep * self.fb_int, off, off + self.rank[gen_id]) - off
        count = handle_feedback(g, rank, t, self.cfg.retx_overshoot)
        if count:
            heapq.heappush(self._heap, (t, gen_id, g, count))
        elif g.failed:
            self._fail_plan(g, t)
        else:
            self.metrics.fec_rounds_hist[g.attempts_used] += 1

    # ------------------------------------------------------------ handlers

    def _send_planless(self):
        """Send every frame's generations without FEC, in frame order.

        There is no plan, so no look reads a rank timeline: a generation's
        one burst, its k source packets at its frame's arrival, completes
        it at the latest arrival iff all k arrive. Losses resolve through
        the receiver's give-up timer or the display clock.
        """
        log = self.log
        u = self.u
        current_path = self._current_path
        transmits = {MMWAVE: self.mm.transmit, LTE: self.lte.transmit}
        packets = self.metrics.packets
        backhaul = self.backhaul
        wire = self._wire
        ks = self._k
        first = self.layout.first
        last_arrival, complete_at = self.last_arrival, self.complete_at
        for f, now in enumerate(self.arrival_at.tolist()):
            if log is not None:
                log.append(f"{now:.9f} frame ue={u} arg={f}")
            path = current_path(now)
            transmit = transmits[path]
            counts = packets[path]
            for gen_id in range(first[f], first[f + 1]):
                k = ks[gen_id]
                nbytes = wire[k]
                got = unsent = 0
                last = -math.inf
                for _ in range(k):
                    delivered, deliver_at, attempts, _ = transmit(nbytes, now)
                    if delivered:
                        got += 1
                        if deliver_at > last:
                            last = deliver_at
                    elif not attempts:
                        unsent += 1  # the link is in outage
                counts[0] += k
                counts[1] += got
                counts[2] += unsent
                counts[3] += k - got - unsent
                if got:
                    # rounding is monotone, so this is the latest of the
                    # per-packet sums
                    arrived = last + backhaul
                    last_arrival[gen_id] = arrived
                    if got == k:
                        complete_at[gen_id] = arrived
        self._give_up_timers()

    def _give_up_timers(self):
        """Close every planless generation after its one burst: it counts
        as settled in its first round, and a base one still short of rank
        gets the receiver's give-up timer, planless operation's only
        notice. The burst went out at its frame's arrival and fixed the
        generation's last arrival and completion. An empty generation
        reads as link loss, not repairable noise, and gets the shorter
        patience. Only a base generation's notice loses a frame."""
        cfg = self.cfg
        lay = self.layout
        self.metrics.fec_rounds_hist[0] += lay.n_gens
        sent = self.arrival_at[lay.frame_of]
        last = np.frombuffer(self.last_arrival)
        late = lay.is_base & ~(np.frombuffer(self.complete_at) < math.inf)
        np.frombuffer(self.notice_at)[late] = np.where(
            last >= 0.0,
            np.maximum(last, sent) + cfg.receiver_giveup_s,
            sent + cfg.receiver_giveup_empty_s)[late]

    def _on_check(self, g: GenerationPlan, count: int, now: float):
        # send the top-up a look decided on, and look again once it settled
        settle = self._send_burst(g.gen_id, count, 0, self._current_path(now), now)
        self._look(g, settle + self.ul_delay + self.cfg.plan_check_guard_s)

    # ------------------------------------------------------------ playback

    def _play(self):
        """Decide every frame's fate, in display order, by the one rule: a
        generation counts for display instant D only if complete_at < D.
        Leaves ``consumed_at`` (NaN: lost) and ``played`` per frame."""
        lay = self.layout
        m = self.metrics
        n = self.n_frames
        complete = np.frombuffer(self.complete_at)
        notice = np.frombuffer(self.notice_at)
        arrival = self.arrival_at
        deadline = self.deadlines
        missed = ~(complete < deadline[lay.frame_of])
        m.nalus_lost += int(np.count_nonzero(np.logical_or.reduceat(missed, lay.nalu_starts)))
        # when each frame's base layer completed (inf if it never did), and
        # the latest over it and every frame it references: frame f is
        # decodable for D exactly when ready[f] < D
        base_done = np.maximum.reduceat(np.where(lay.is_base, complete, -math.inf),
                                        lay.frame_starts)
        ready = ready_times(base_done)
        taken = base_done < deadline
        # the in-order consumer moves past a taken frame once its base layer
        # completed, past a lost one at D or its first notice, if earlier,
        # and never back; only a base generation ever carries a notice
        past = np.maximum.accumulate(np.where(
            taken, base_done,
            np.minimum(deadline, np.minimum.reduceat(notice, lay.frame_starts))))
        played = taken & (ready < deadline)
        self.consumed_at = np.where(taken, past, math.nan)
        self.played = played
        m.frames_total += n
        m.nalus_total += lay.n_nalus
        m.generations_total += lay.n_gens
        m.frames_played += int(np.count_nonzero(played))
        m.psnr_sum_db += left_sum(np.where(played, lay.psnr_recv, lay.psnr_lost).tolist())
        m.latency_samples.frombytes((past - arrival)[played].tobytes())


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
    if config.trace_file:  # validate() bounds a synthetic trace's packets
        packets = config.n_ues * sum(-(-trace.nalus_by_id[i].size_bytes // config.packet_bytes)
                                     for rec in trace.frames[:n_frames] for i in rec.nalu_ids)
        if packets > MAX_GRID_STATES:
            raise TraceError(f"trace needs {packets} source packets, over {MAX_GRID_STATES}")
    layout = _frame_plans(trace, n_frames, config.packet_bytes, config.generation_size)
    # receivers share no simulated state, so each session runs alone, to
    # its end, and is freed before the next one starts
    report = MetricsReport(seed, config.duration_s, [
        _Engine(config, seed, layout, log=events_log, u=u).run()
        for u in range(config.n_ues)])
    violation = check_conservation(report)
    if violation is not None:
        raise RuntimeError("conservation violated: " + violation)
    return report
