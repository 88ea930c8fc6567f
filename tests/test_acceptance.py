"""Acceptance checks, one per shipped guarantee.

Each test prints a single ``criterion N (...): PASS|FAIL`` verdict line
before asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as
a checklist. Criterion 6 drives the full 16-cell evaluation grid at desk
scale (60 s of video, 20 runs per cell) and is the long pole; everything
else finishes in seconds.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from mcnc.channel import LTE, MMWAVE
from mcnc.distribution import (
    MAX_FEC_ATTEMPTS,
    GenerationPlan,
    dispatch_generation,
    handle_feedback,
    initial_burst_size,
)
from mcnc.gf import FieldSpec, gf_inv, gf_mul
from mcnc.rlnc import DecoderState, Encoder, Generation, full_rank_probability
from mcnc.sim.cli import main as cli_main
from mcnc.sim.config import SimConfig
from mcnc.sim.metrics import left_sum, psnr_frame
from mcnc.sim.montecarlo import report_samples, run_grid
from mcnc.video.structure import LAYER_POPULATIONS, packetize
from mcnc.video.tracegen import synthesize_trace

GRID_RUNS = 20
GRID_BUDGET_S = 300.0


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    line = "criterion %d (%s): %s" % (number, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line, flush=True)
    return ok


# -- 1: field axioms ------------------------------------------------------


def _check_axioms(spec, triples) -> bool:
    for a, b, c in triples:
        if gf_mul(spec, a, b) != gf_mul(spec, b, a):
            return False
        if gf_mul(spec, a, gf_mul(spec, b, c)) != gf_mul(spec, gf_mul(spec, a, b), c):
            return False
        if gf_mul(spec, a, b ^ c) != gf_mul(spec, a, b) ^ gf_mul(spec, a, c):
            return False
        if gf_mul(spec, a, 1) != a or gf_mul(spec, a, 0) != 0:
            return False
        if a and gf_mul(spec, a, gf_inv(spec, a)) != 1:
            return False
        if a ^ a != 0 or a ^ 0 != a or a ^ b != b ^ a:
            return False
    return True


def test_criterion_1_field_axioms():
    start = time.perf_counter()
    ok = True
    for m in (1, 4):
        spec = FieldSpec(m)
        q = spec.order
        ok = ok and _check_axioms(spec, itertools.product(range(q), repeat=3))
    spec = FieldSpec(8)
    rng = random.Random(10_001)
    triples = ((rng.randrange(256), rng.randrange(256), rng.randrange(256))
               for _ in range(100_000))
    ok = ok and _check_axioms(spec, triples)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _verdict(1, "field axioms", ok, "%.1f s" % elapsed)


# -- 2: codec round trip --------------------------------------------------


def _round_trip_trial(field, k, packet_bytes, seed) -> bool:
    rng = random.Random(seed)
    data = rng.randbytes(k * packet_bytes - rng.randrange(packet_bytes))
    gen = Generation.from_block(seed, field, data, packet_bytes)
    enc = Encoder(gen, seed=seed, mode="guarded")
    dec = DecoderState(gen)
    loss = rng.uniform(0.0, 0.3)
    innovative = 0
    while not dec.delivered:
        pkt = enc.next_packet()
        if rng.random() < loss:
            continue
        innovative += dec.consume(pkt)
    return innovative >= k and b"".join(dec.extract()) == data


def test_criterion_2_codec_round_trip():
    profiles = ((FieldSpec(4), 40), (FieldSpec(8), 100))
    failures = 0
    for field, k in profiles:
        for trial in range(1000):
            if not _round_trip_trial(field, k, 1000, trial):
                failures += 1
    ok = failures == 0
    assert _verdict(2, "codec round trip", ok,
                    "2x1000 trials, %d failures" % failures)


# -- 3: rank probability oracle -------------------------------------------


def _empirical_full_rank(k, m, n, trials, seed) -> float:
    field = FieldSpec(m)
    gen = Generation(0, field, k, 1)
    hits = 0
    for i in range(trials):
        enc = Encoder(gen, seed=seed + i, mode="unrestricted")
        dec = DecoderState(gen, track_payloads=False)
        for coeffs in enc.coeff_burst(n):
            dec.consume_coeffs(coeffs)
        hits += dec.delivered
    return hits / trials


def test_criterion_3_rank_probability_oracle():
    checks = []
    for k, q, m, n in ((4, 2, 1, 4), (4, 2, 1, 6), (8, 16, 4, 8)):
        p = full_rank_probability(k, q, n)
        emp = _empirical_full_rank(k, m, n, trials=10_000, seed=31_000 + n)
        se = math.sqrt(p * (1.0 - p) / 10_000)
        checks.append(abs(emp - p) <= 3.0 * se)
    # spot value by exhaustive enumeration: every ordered pair of vectors
    # from GF(2)^2, counted full rank iff both nonzero and distinct
    full = 0
    for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
        dec = DecoderState(Generation(0, FieldSpec(1), 2, 1), track_payloads=False)
        dec.consume_coeffs((a0, a1))
        dec.consume_coeffs((b0, b1))
        full += dec.delivered
    exact = full / 16.0
    checks.append(exact == 0.375)
    checks.append(full_rank_probability(2, 2, 2) == 0.375)
    ok = all(checks)
    assert _verdict(3, "rank probability oracle", ok,
                    "3 empirical within 3 SE, spot %.3f" % exact)


# -- 4: redundancy constants ----------------------------------------------


def test_criterion_4_redundancy_constants():
    gen_lc = Generation(0, FieldSpec(4), 40, 8)
    gen_hc = Generation(1, FieldSpec(8), 100, 8)
    _, burst_mm = dispatch_generation(
        gen_lc, MMWAVE, deadline=1.0, encoder=Encoder(gen_lc, seed=1))
    _, burst_lte = dispatch_generation(
        gen_hc, LTE, deadline=1.0, encoder=Encoder(gen_hc, seed=1))
    ok = len(burst_mm) == 48 and len(burst_lte) == 110
    ok = ok and initial_burst_size(40, MMWAVE, True) == 48
    ok = ok and initial_burst_size(100, LTE, True) == 110

    rng = random.Random(40_004)
    worst = 0
    for i in range(1_000_000):
        k = rng.randrange(1, 101)
        plan = GenerationPlan(gen_id=i, k=k,
                              n_initial=initial_burst_size(k, MMWAVE, True),
                              deadline=1e9)
        while not (plan.delivered or plan.failed):
            handle_feedback(plan, rng.randrange(0, k + 1), now=0.0)
        if plan.attempts_used > worst:
            worst = plan.attempts_used
    ok = ok and worst <= MAX_FEC_ATTEMPTS == 5
    assert _verdict(4, "redundancy constants", ok,
                    "bursts 48/110, max attempts %d" % worst)


# -- 5: PSNR unit ----------------------------------------------------------


def test_criterion_5_psnr_unit():
    frame = np.arange(10_000, dtype=np.uint8).reshape(100, 100)
    identical = psnr_frame(frame, frame)
    black = np.zeros((64, 64), dtype=np.uint8)
    white = np.full((64, 64), 255, dtype=np.uint8)
    maximal = psnr_frame(black, white)
    offset = psnr_frame(np.full((64, 64), 40, dtype=np.uint8),
                        np.full((64, 64), 56, dtype=np.uint8))
    ok = identical == 99.99
    ok = ok and maximal == pytest.approx(0.0, abs=1e-12)
    ok = ok and abs(offset - 24.05) <= 0.01
    assert _verdict(5, "PSNR unit", ok,
                    "cap %.2f, max-err %.2f, diff16 %.4f" % (identical, maximal, offset))


# -- 6: qualitative grid reproduction ---------------------------------------


@pytest.fixture(scope="module")
def desk_grid():
    start = time.perf_counter()
    results = run_grid(SimConfig(runs=GRID_RUNS), workers=1)
    elapsed = time.perf_counter() - start
    means = {
        key: {name: cell[0][name]["mean"] for name in cell[0]}
        for key, cell in results.items()
    }
    # the cells share run seeds, so two cells' i-th runs are a pair
    samples = {key: [report_samples(r) for r in cell[1]] for key, cell in results.items()}
    return means, samples, elapsed


def _paired_margin(xs, ys) -> str:
    """The paired mean of xs - ys, its standard error, the margin in
    standard errors and how many pairs are positive."""
    d = [x - y for x, y in zip(xs, ys)]
    n = len(d)
    mean = left_sum(d) / n
    se = math.sqrt(left_sum((x - mean) ** 2 for x in d) / (n - 1) / n)
    return "%+.3g SE %.2g (%.1f SE, %d/%d)" % (
        mean, se, mean / se if se else math.inf, sum(x > 0 for x in d), n)


def test_criterion_6_grid_qualitative(desk_grid):
    means, samples, elapsed = desk_grid
    controls = ("none", "ran_retx", "nc_fec", "ran_retx+nc_fec")
    checks = []
    details = []
    for profile in ("LC", "HC"):
        # (a) multi-connectivity cuts mean latency in every control cell
        gaps = [
            means[(ec, profile, "mmwave_only")]["latency_ms_mean"]
            - means[(ec, profile, "multi")]["latency_ms_mean"]
            for ec in controls
        ]
        checks.append(all(g > 0 for g in gaps))
        # (b) mmWave-only loss ladder: each mechanism helps, both help most
        losses = [means[(ec, profile, "mmwave_only")]["nalu_loss"] for ec in controls]
        checks.append(losses[0] > losses[1] > losses[2] > losses[3])
        # (c) everything on: loss below 1e-3
        best = means[("ran_retx+nc_fec", profile, "multi")]["nalu_loss"]
        checks.append(best < 1e-3)
        # (d) quality split between full error control and none
        protected = min(
            means[("ran_retx+nc_fec", profile, conn)]["psnr_db"]
            for conn in ("mmwave_only", "multi")
        )
        bare = means[("none", profile, "mmwave_only")]["psnr_db"]
        checks.append(protected > 90.0 and bare < 40.0)
        # the thin gates' paired margins: output only, not a check
        margin_a = _paired_margin(
            [r["latency_ms_mean"] for r in samples[("ran_retx", profile, "mmwave_only")]],
            [r["latency_ms_mean"] for r in samples[("ran_retx", profile, "multi")]])
        margin_b = _paired_margin(
            [r["nalu_loss"] for r in samples[("nc_fec", profile, "mmwave_only")]],
            [r["nalu_loss"] for r in samples[("ran_retx+nc_fec", profile, "mmwave_only")]])
        details.append(
            "%s: gaps %s loss %s best %.1e psnr %.1f/%.1f margins (a) %s ms (b) %s"
            % (profile,
               "/".join("%+.2f" % g for g in gaps),
               "/".join("%.3g" % x for x in losses),
               best, protected, bare, margin_a, margin_b)
        )
    checks.append(elapsed < GRID_BUDGET_S)
    ok = all(checks)
    assert _verdict(
        6, "grid qualitative reproduction", ok,
        "%s; wall %.0f s" % ("; ".join(details), elapsed))


# -- 7: determinism ----------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    ini = tmp_path / "det.ini"
    ini.write_text("[sim]\nduration_s = 1.5\nn_ues = 2\nruns = 2\n",
                   encoding="utf-8")
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "4")):
        out = tmp_path / tag
        rc = cli_main(["run", "--config", str(ini), "--out", str(out),
                       "--workers", workers])
        assert rc == 0
        blobs.append((out / "results.csv").read_bytes())
    ok = all(b == blobs[0] for b in blobs[1:]) and len(blobs[0]) > 0
    assert _verdict(7, "byte-identical results", ok,
                    "%d bytes x 2 executions x workers 1/2/4" % len(blobs[0]))


# -- 8: trace layer -----------------------------------------------------------


def test_criterion_8_trace_layer():
    ok = True
    for frames, seed, jitter, layers in (
        (16, 0, 0.0, 1), (48, 1, 0.3, 2), (160, 2, 0.5, 2), (3000, 3, 0.2, 1),
    ):
        trace = synthesize_trace(frames, seed=seed, jitter=jitter,
                                 spatial_layers=layers)
        for start in range(0, trace.n_frames, 16):
            pops = [0] * 5
            for f in trace.frames[start : start + 16]:
                pops[f.temporal_layer] += 1
            ok = ok and tuple(pops) == LAYER_POPULATIONS

    rng = random.Random(80_008)
    trials = 10_000
    for _ in range(trials):
        size = rng.randrange(1, 60_000)
        unit = rng.randrange(1, 4000)
        sizes = packetize(size, unit)
        blob = rng.randbytes(size)
        pieces = []
        offset = 0
        for s in sizes:
            pieces.append(blob[offset : offset + s])
            offset += s
        ok = ok and sum(sizes) == size
        ok = ok and all(0 < s <= unit for s in sizes)
        ok = ok and all(s == unit for s in sizes[:-1])
        ok = ok and b"".join(pieces) == blob and offset == size
    assert _verdict(8, "trace layer", ok,
                    "GOP populations + %d packetize round trips" % trials)
