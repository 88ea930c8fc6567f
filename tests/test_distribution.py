"""Sender policy: path hysteresis, burst sizing, feedback-driven repair."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from mcnc.channel import LTE, MMWAVE
from mcnc.distribution import (
    MAX_FEC_ATTEMPTS,
    GenerationPlan,
    PathSelector,
    dispatch_generation,
    handle_feedback,
    initial_burst_size,
)
from mcnc.gf import FieldSpec
from mcnc.rlnc import Encoder, Generation


# -- path selection ------------------------------------------------------


def _paths(snr_db, outage_threshold_db=-5.0, hysteresis_db=3.0):
    """The path after each report slot, given each slot's reported SNR
    (None: no fresh report), at the threshold and hysteresis the tests
    below are written for."""
    snr = np.array([math.nan if x is None else x for x in snr_db])
    selector = PathSelector(outage_threshold_db, hysteresis_db)
    return [MMWAVE if up else LTE for up in selector.on_mmwave(snr)]


def test_selector_stays_on_mmwave_while_healthy():
    assert _paths([15.0, 15.0, 15.0]) == [MMWAVE] * 3


def test_selector_falls_back_without_any_feedback():
    assert _paths([None, None]) == [LTE, LTE]
    assert _paths([]) == []


def test_selector_treats_stale_feedback_as_unknown():
    # a slot with no fresh report means the mmWave state is unknown, and
    # the next healthy report switches straight back
    assert _paths([15.0, None, 15.0]) == [MMWAVE, LTE, MMWAVE]


def test_selector_hysteresis_band():
    paths = _paths([-6.0, -4.0, -2.1, -2.0, -4.0, -5.0],
                   outage_threshold_db=-5.0, hysteresis_db=3.0)
    # below threshold: switch down; recovering into the band is not enough
    # to switch back; clearing threshold + hysteresis switches up; and the
    # band does not knock it back down
    assert paths == [LTE, LTE, LTE, MMWAVE, MMWAVE, MMWAVE]
    # before any slot decides, the band holds LTE
    assert _paths([-4.0, -2.0]) == [LTE, MMWAVE]


def test_selector_threshold_itself_keeps_mmwave():
    assert _paths([15.0, -5.0, math.nextafter(-5.0, -math.inf)],
                  outage_threshold_db=-5.0) == [MMWAVE, MMWAVE, LTE]


def _slot_by_slot(sel, snr_db):
    """The path rule one slot at a time, the reference for the table."""
    on_mmwave, table = False, []
    for x in snr_db:
        if math.isnan(x) or x < sel.outage_threshold_db:
            on_mmwave = False
        elif x >= sel.outage_threshold_db + sel.hysteresis_db:
            on_mmwave = True
        table.append(on_mmwave)
    return table


def test_path_table_matches_a_slot_by_slot_loop():
    rng = np.random.default_rng(23)
    for trial in range(300):
        thr = rng.uniform(-10.0, 10.0)
        hyst = 0.0 if trial % 4 == 0 else rng.uniform(0.0, 6.0)
        sel = PathSelector(outage_threshold_db=thr, hysteresis_db=hyst)
        n = int(rng.integers(0, 80))
        snr = rng.uniform(thr - 8.0, thr + hyst + 8.0, n)
        # values exactly on both boundaries, and slots with no report
        pick = rng.random(n)
        snr[pick < 0.15] = thr
        snr[(pick >= 0.15) & (pick < 0.3)] = thr + hyst
        snr[(pick >= 0.3) & (pick < 0.4)] = math.nan
        assert sel.on_mmwave(snr) == _slot_by_slot(sel, snr), trial


# -- burst sizing --------------------------------------------------------


def test_initial_burst_redundancy():
    assert initial_burst_size(40, MMWAVE, nc_fec=True) == 48
    assert initial_burst_size(100, LTE, nc_fec=True) == 110
    assert initial_burst_size(100, MMWAVE, nc_fec=True) == 120
    assert initial_burst_size(40, LTE, nc_fec=True) == 44
    # ceil, not round
    assert initial_burst_size(1, MMWAVE, nc_fec=True) == 2
    assert initial_burst_size(2, LTE, nc_fec=True) == 3
    assert initial_burst_size(40, MMWAVE, nc_fec=False) == 40


def test_dispatch_emits_initial_burst():
    gen = Generation(5, FieldSpec(4), 40, 8)
    enc = Encoder(gen, seed=9)
    plan, packets = dispatch_generation(gen, MMWAVE, deadline=1.0, encoder=enc)
    assert plan.gen_id == 5 and plan.k == 40
    assert plan.n_initial == 48 and len(packets) == 48
    assert all(p.attempt == 0 for p in packets)
    assert plan.attempts_used == 0 and not plan.delivered and not plan.failed


def test_dispatch_without_fec_sends_exactly_k():
    gen = Generation(6, FieldSpec(4), 7, 8)
    plan, packets = dispatch_generation(
        gen, LTE, deadline=1.0, encoder=Encoder(gen, seed=9), nc_fec=False
    )
    assert plan.n_initial == 7 and len(packets) == 7


# -- feedback handling ---------------------------------------------------


def _plan(k=4, deadline=10.0):
    gen = Generation(0, FieldSpec(4), k, 8)
    plan, _ = dispatch_generation(gen, MMWAVE, deadline, Encoder(gen, seed=1))
    return plan


def test_full_rank_report_delivers():
    plan = _plan(k=4)
    assert handle_feedback(plan, report_rank=4, now=0.1) == 0
    assert plan.delivered and not plan.failed


def test_shortfall_triggers_topup_sized_to_missing_rank():
    plan = _plan(k=4)
    assert handle_feedback(plan, report_rank=1, now=0.1) == 3
    assert plan.attempts_used == 1
    assert handle_feedback(plan, report_rank=3, now=0.2) == 1
    assert plan.attempts_used == 2


def test_overshoot_scales_topup():
    plan = _plan(k=10)
    assert handle_feedback(plan, report_rank=6, now=0.1, overshoot=1.5) == 6  # ceil(4 * 1.5)


def test_attempt_budget_exhaustion_fails_plan():
    plan = _plan(k=4)
    for i in range(MAX_FEC_ATTEMPTS):
        assert handle_feedback(plan, report_rank=0, now=0.1 * (i + 1)) == 4
    assert handle_feedback(plan, report_rank=0, now=9.0) == 0
    assert plan.failed and plan.attempts_used == MAX_FEC_ATTEMPTS


def test_deadline_passes_fail_immediately():
    plan = _plan(k=4, deadline=1.0)
    assert handle_feedback(plan, report_rank=2, now=1.0) == 0 and plan.failed


def test_attempts_never_exceed_budget_under_random_reports():
    rng = random.Random(67)
    for _ in range(5000):
        k = rng.randrange(1, 101)
        plan = GenerationPlan(gen_id=0, k=k,
                              n_initial=initial_burst_size(k, MMWAVE, True),
                              deadline=10.0)
        now = 0.0
        while not (plan.delivered or plan.failed):
            now += 0.01
            handle_feedback(plan, rng.randrange(0, k + 1), now)
        assert plan.attempts_used <= MAX_FEC_ATTEMPTS
