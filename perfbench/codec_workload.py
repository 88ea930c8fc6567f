"""codec_roundtrip: real payload coding, which the simulator never does.

The engine is rank-sampled and never touches payloads, so the ``gf`` and
``rlnc`` layers do all their work here and none in the simulator
workloads.  The codec is measured as a throughput kernel (source bytes
recovered bit-exact per host second), as in Heide et al., "On Code
Parameters and Coding Vector Representation for Practical RLNC" (ICC
2011).

One trial is one LC generation (k=40, GF(2^4)) plus one HC generation
(k=100, GF(2^8)) with 1000-byte packets.  Each generation: a random
block, a guarded ``Encoder``, ``serialize``, a per-trial Bernoulli
erasure of 0-30 %, ``deserialize``, ``DecoderState.consume`` until full
rank, ``extract`` and a byte compare.  Every input of a trial is drawn
from the seed and the trial index, so a trial timed again repeats
exactly.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext

from mcnc import rlnc
from mcnc.gf import FieldSpec
from mcnc.seeding import derive_seed

import refclock

PACKET_BYTES = 1000
#: profile -> (extension degree, generation size)
PROFILES = {"lc": (4, 40), "hc": (8, 100)}
#: nominal host seconds of one trial (LC + HC) at the baseline
TRIAL_OP_S = 0.21
#: trials below this leave too few samples beyond the tail percentile
MIN_TRIALS = 20
#: a decode that needs this many packets is counted as failed
MAX_PACKETS = 10_000
COUNTS = ("packets", "received", "innovative", "row_ops", "computed_bytes")


def size(name: str, seconds: float, smoke: bool) -> int:
    """Trials: the fewest whose nominal cost covers ``seconds``."""
    return 2 if smoke else max(MIN_TRIALS, math.ceil(seconds / TRIAL_OP_S))


def setup(name: str, smoke: bool) -> dict:
    t0 = time.perf_counter()
    for m, _ in PROFILES.values():
        FieldSpec(m)
    return {"gf_tables_s": time.perf_counter() - t0}


def _round_trip(field: FieldSpec, gen_id: int, data: bytes, enc_seed: int,
                rng: random.Random, loss: float) -> dict:
    gen = rlnc.Generation.from_block(gen_id, field, data, PACKET_BYTES)
    enc = rlnc.Encoder(gen, seed=enc_seed, mode="guarded")
    dec = rlnc.DecoderState(gen)
    sent = received = innovative = 0
    while not dec.delivered:
        if sent >= MAX_PACKETS:
            return {"ok": False}
        wire = rlnc.serialize(enc.next_packet(), field)
        sent += 1
        if rng.random() < loss:
            continue
        received += 1
        innovative += dec.consume(rlnc.deserialize(wire, field))
    return {
        "ok": b"".join(dec.extract()) == data,
        "packets": sent,
        "received": received,
        "innovative": innovative,
        "row_ops": dec.row_ops,
        "computed_bytes": dec.row_ops * (gen.k + gen.symbol_size),
    }


def _trial(fields: dict, seed: int, trial: int, tracer) -> dict:
    """profile -> (round-trip outcome, source bytes, raw host seconds)."""
    out = {}
    for p, (_, k) in PROFILES.items():
        rng = random.Random(derive_seed(seed, "codec", p, trial))
        data = rng.randbytes(k * PACKET_BYTES - rng.randrange(PACKET_BYTES))
        loss = rng.uniform(0.0, 0.3)
        enc_seed = derive_seed(seed, "encoder", p, trial)
        t0 = time.perf_counter()
        with tracer.span("codec." + p) if tracer else nullcontext():
            try:
                res = _round_trip(fields[p], trial, data, enc_seed, rng, loss)
            except Exception:
                traceback.print_exc()
                res = {"ok": False}
            gc.collect()
        out[p] = (res, len(data), time.perf_counter() - t0)
    return out


def batch(name: str, seed: int, count: int, smoke: bool, out_dir: str,
          clock: refclock.RefClock, tracer=None) -> dict:
    """``count`` trials, every generation checked bit-exact."""
    fields = {p: FieldSpec(m) for p, (m, _) in PROFILES.items()}
    stats = {p: dict.fromkeys(("bytes", "time_s", "gens") + COUNTS, 0) for p in PROFILES}
    op_s, op_raw_s = [], []
    failed = 0
    for trial in range(count):
        out, raw, scaled = clock.measure(_trial, fields, seed, trial, tracer)
        op_s.append(scaled)
        op_raw_s.append(raw)
        for p, (res, nbytes, gen_s) in out.items():
            if not res["ok"]:
                print("codec %s trial %d: round trip failed" % (p, trial), file=sys.stderr)
                failed += 1
            s = stats[p]
            s["bytes"] += nbytes
            s["time_s"] += gen_s * scaled / raw
            s["gens"] += 1
            for key in COUNTS:
                s[key] += res.get(key, 0)
    extra = {
        "codec_%s_mb_per_s" % p: {"value": s["bytes"] / 1e6 / s["time_s"], "unit": "MB/s"}
        for p, s in stats.items()
    }
    return {
        "attempted": count * len(PROFILES),
        "failed": failed,
        "op_s": op_s,
        "op_raw_s": op_raw_s,
        "scale": clock.factors,
        "source_bytes": sum(s["bytes"] for s in stats.values()),
        "digest": None,
        "codec": stats,
        "extra": extra,
    }
