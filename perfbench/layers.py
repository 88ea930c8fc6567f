"""Which entry point of each mcnc layer gets a span, and the per-layer
metrics computed from those spans.

Every workload installs the same spans, so a layer a workload does not
exercise reads zero calls: the simulator workloads record no ``rlnc``
encode or decode, and codec_roundtrip records no ``channel`` transmit.

Host-time metrics are per op (one engine run, or one codec trial of one
LC and one HC generation) unless the unit says otherwise.  Statistics
marked *sim* in README.md describe the simulation, not the host, and a
speed-only change must leave them identical.
"""

from __future__ import annotations

import gc
import statistics
from array import array
from typing import Dict, List

import numpy as np

from mcnc import channel, distribution, gf, rlnc
from mcnc.sim import engine, metrics, montecarlo, results
from mcnc.sim.montecarlo import report_samples
from mcnc.video import playout

import refclock
from tracer import Tracer, totals

EVENT_KINDS = ("frame", "check", "gen_done", "deadline", "abandon", "giveup")
PATHS = (channel.MMWAVE, channel.LTE)


class Observers:
    """Simulated per-call statistics read from traced calls' arguments and
    results, outside their timed interval."""

    def __init__(self):
        self.calls = dict.fromkeys(PATHS, 0)
        self.drops = dict.fromkeys(PATHS, 0)
        self.waits = {p: array("d") for p in PATHS}  # send_start - now, seconds
        self.attempts = 0
        self.aired = 0
        self.switches = 0
        self._last_path = {}

    def transmit(self, args, out) -> None:
        link, _, now = args
        kind = link.kind
        self.calls[kind] += 1
        if not out.delivered:
            self.drops[kind] += 1
        if out.attempts:  # an outage drop takes no airtime
            self.aired += 1
            self.attempts += out.attempts
            self.waits[kind].append(out.send_start - now)

    def select_path(self, args, path) -> None:
        selector = args[0]
        last = self._last_path.get(id(selector))
        if last is not None and last[0] is selector and last[1] != path:
            self.switches += 1
        # the selector is kept alive so its id cannot be reused
        self._last_path[id(selector)] = (selector, path)


def install(tracer: Tracer) -> Observers:
    obs = Observers()
    p = tracer.patch
    p(montecarlo, "run", "sim.engine.run", record=True)
    p(montecarlo, "run_grid", "sim.montecarlo.fanout", record=True)
    p(montecarlo, "monte_carlo", "sim.montecarlo.fanout", record=True)
    p(results, "emit_results", "sim.results.emit", record=True)
    p(channel.LinkModel, "transmit", "channel.transmit", observe=obs.transmit)
    p(metrics.UEMetrics, "count_packet", "sim.metrics.count_packet")
    p(distribution.PathSelector, "select_path", "distribution.select_path",
      observe=obs.select_path)
    p(distribution.PathSelector, "update", "distribution.update")
    p(engine, "handle_feedback", "distribution.handle_feedback")
    p(playout.PlayoutBuffer, "admit", "video.playout.admit")
    p(playout.PlayoutBuffer, "step", "video.playout.step")
    p(engine, "synthesize_trace", "video.synthesize_trace")
    p(rlnc.Encoder, "next_coeffs", "rlnc.next_coeffs")
    p(rlnc.Encoder, "next_packet", "rlnc.next_packet")
    p(rlnc.DecoderState, "consume", "rlnc.consume")
    p(rlnc.DecoderState, "extract", "rlnc.extract")
    p(rlnc, "serialize", "rlnc.serialize")
    p(rlnc, "deserialize", "rlnc.deserialize")
    p(gf.SymbolVector, "pack", "gf.pack")
    p(gf.SymbolVector, "unpack", "gf.unpack")
    # the benchmark's own calls between and after ops, kept out of the
    # self time of the spans around them
    p(gc, "collect", "py.gc.collect")
    p(refclock, "reference_s", "bench.reference")
    return obs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(setup_info: dict, setup_spans: List[dict], untraced: dict,
                  traced: dict, spans: List[dict], obs: Observers,
                  setup_scale: float, scale: float) -> Dict[str, float]:
    """Per-layer values; host times are multiplied by ``scale`` (by
    ``setup_scale`` for set-up) to read at the reference speed."""
    n = max(1, len(traced["op_s"]))
    agg = totals(spans)

    def count(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] * scale if name in agg else 0.0

    v: Dict[str, float] = {}

    # gf
    v["gf.table_build_s"] = setup_info["gf_tables_s"] * setup_scale
    v["gf.pack_s"] = total("gf.pack") / n
    v["gf.unpack_s"] = total("gf.unpack") / n
    codec = traced.get("codec", {})
    v["gf.computed_mb"] = sum(s["computed_bytes"] for s in codec.values()) / 1e6 / n

    # rlnc, split by profile through the generation span each call ran in
    for prof in ("lc", "hc"):
        a = totals(spans, "codec." + prof)

        def self_t(name):
            return a[name][2] * scale if name in a else 0.0

        v["rlnc.guard_s." + prof] = self_t("rlnc.next_coeffs") / n
        v["rlnc.combine_s." + prof] = self_t("rlnc.next_packet") / n
        v["rlnc.decode_s." + prof] = self_t("rlnc.consume") / n
        v["rlnc.extract_s." + prof] = self_t("rlnc.extract") / n
        v["rlnc.wire_s." + prof] = (self_t("rlnc.serialize") + self_t("rlnc.deserialize")) / n
        s = codec.get(prof)
        if s:
            v["rlnc.packets_per_gen." + prof] = s["packets"] / s["gens"]
            v["rlnc.innovative_ratio." + prof] = _ratio(s["innovative"], s["received"])
            v["rlnc.row_ops_per_gen." + prof] = s["row_ops"] / s["gens"]
    v["rlnc.encode_calls"] = count("rlnc.next_packet") / n
    v["rlnc.decode_calls"] = count("rlnc.consume") / n

    # channel
    for path in PATHS:
        v["channel.transmit_calls." + path] = obs.calls[path] / n
        v["channel.drop_ratio." + path] = _ratio(obs.drops[path], obs.calls[path])
        waits = obs.waits[path]
        if len(waits):
            p50, p99 = np.percentile(np.frombuffer(waits), (50.0, 99.0)) * 1e3
            v["channel.fifo_wait_ms_p50." + path] = float(p50)
            v["channel.fifo_wait_ms_p99." + path] = float(p99)
    v["channel.transmit_s"] = total("channel.transmit") / n
    v["channel.ns_per_transmit"] = _ratio(total("channel.transmit"), count("channel.transmit")) * 1e9
    v["channel.attempts_per_packet"] = _ratio(obs.attempts, obs.aired)

    # distribution
    reports = untraced.get("reports", [])
    v["distribution.select_calls"] = count("distribution.select_path") / n
    v["distribution.select_s"] = (total("distribution.select_path")
                                  + total("distribution.update")) / n
    v["distribution.feedback_calls"] = count("distribution.handle_feedback") / n
    v["distribution.feedback_s"] = total("distribution.handle_feedback") / n
    rounds = gens = 0
    sent = dict.fromkeys(PATHS, 0)
    for r in reports:
        for i, h in enumerate(r.fec_rounds_hist):
            rounds += i * h
            gens += h
        for path, c in r.packet_totals()["sent"].items():
            sent[path] += c
    v["distribution.topup_rounds_mean"] = _ratio(rounds, gens)
    v["distribution.lte_share"] = _ratio(sent[channel.LTE], sum(sent.values()))
    v["distribution.path_switches"] = obs.switches / n

    # video
    setup_agg = totals(setup_spans)
    if "video.synthesize_trace" in setup_agg:
        v["video.trace_s"] = setup_agg["video.synthesize_trace"][1] * setup_scale
    v["video.playout_s"] = (total("video.playout.admit") + total("video.playout.step")) / n
    samples = [report_samples(r) for r in reports]
    v["video.nalu_loss"] = _mean(s["nalu_loss"] for s in samples)
    v["video.latency_ms_mean"] = _mean(s["latency_ms_mean"] for s in samples)
    v["video.psnr_db"] = _mean(s["psnr_db"] for s in samples)

    # sim
    runs = [s for s in spans if s["name"] == "sim.engine.run"]
    v["sim.engine.self_s"] = _mean(s["self_s"] for s in runs) * scale
    per_run = traced.get("events") or []
    events = [sum(c.values()) for c in per_run]
    v["sim.events"] = sum(events) / n
    for kind in EVENT_KINDS:
        v["sim.events." + kind] = sum(c.get(kind, 0) for c in per_run) / n
    v["sim.packets_per_event"] = _ratio(sum(obs.calls.values()), sum(events))
    if events:
        v["sim.us_per_event"] = (statistics.median(untraced["op_s"])
                                 / statistics.median(events) * 1e6)
    v["sim.metrics.count_packet_s"] = total("sim.metrics.count_packet") / n
    v["sim.montecarlo.overhead_s"] = _mean(
        s["self_s"] for s in spans if s["name"] == "sim.montecarlo.fanout") * scale
    v["sim.results.emit_s"] = _mean(
        s["end"] - s["start"] for s in spans if s["name"] == "sim.results.emit") * scale
    v["py.gc_s"] = total("py.gc.collect") / n
    return v
