"""Sender policy: path hysteresis, burst sizing, feedback-driven repair."""

from __future__ import annotations

import math
import random

import pytest

from mcnc.channel import LTE, MMWAVE
from mcnc.distribution import (
    MAX_FEC_ATTEMPTS,
    GenerationPlan,
    PathSelector,
    RetxAction,
    dispatch_generation,
    handle_feedback,
    initial_burst_size,
)
from mcnc.gf import FieldSpec
from mcnc.rlnc import Encoder, Generation


# -- path selection ------------------------------------------------------


def test_selector_stays_on_mmwave_while_healthy():
    sel = PathSelector()
    sel.update(0.0, 15.0)
    assert sel.select_path(0.001) == MMWAVE


def test_selector_falls_back_without_any_feedback():
    assert PathSelector().select_path(0.0) == LTE


def test_selector_treats_stale_feedback_as_unknown():
    sel = PathSelector(staleness_s=0.020)
    sel.update(0.0, 15.0)
    assert sel.select_path(0.019) == MMWAVE
    assert sel.select_path(0.021) == LTE


def test_selector_hysteresis_band():
    sel = PathSelector(outage_threshold_db=-5.0, hysteresis_db=3.0)
    sel.update(0.0, -6.0)
    assert sel.select_path(0.0) == LTE  # below threshold: switch down
    # recovering into the hysteresis band is not enough to switch back
    sel.update(0.001, -4.0)
    assert sel.select_path(0.001) == LTE
    sel.update(0.002, -2.1)
    assert sel.select_path(0.002) == LTE
    # clearing threshold + hysteresis switches up
    sel.update(0.003, -2.0)
    assert sel.select_path(0.003) == MMWAVE
    # and the band does not knock it back down
    sel.update(0.004, -4.0)
    assert sel.select_path(0.004) == MMWAVE


def test_selector_threshold_itself_keeps_mmwave():
    sel = PathSelector(outage_threshold_db=-5.0)
    sel.update(0.0, 15.0)
    assert sel.select_path(0.0) == MMWAVE
    sel.update(0.001, -5.0)
    assert sel.select_path(0.001) == MMWAVE
    sel.update(0.002, math.nextafter(-5.0, -math.inf))
    assert sel.select_path(0.002) == LTE


def test_selector_ignores_out_of_order_reports():
    sel = PathSelector()
    sel.update(0.010, 15.0)
    sel.update(0.005, -20.0)  # older report must not win
    assert sel.select_path(0.012) == MMWAVE


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
    assert handle_feedback(plan, report_rank=4, now=0.1) == RetxAction("delivered")
    assert plan.delivered
    # terminal states are sticky
    assert handle_feedback(plan, report_rank=0, now=0.2).kind == "delivered"


def test_shortfall_triggers_topup_sized_to_missing_rank():
    plan = _plan(k=4)
    action = handle_feedback(plan, report_rank=1, now=0.1)
    assert action == RetxAction("retransmit", 3)
    assert plan.attempts_used == 1
    action = handle_feedback(plan, report_rank=3, now=0.2)
    assert action == RetxAction("retransmit", 1)
    assert plan.attempts_used == 2


def test_overshoot_scales_topup():
    plan = _plan(k=10)
    action = handle_feedback(plan, report_rank=6, now=0.1, overshoot=1.5)
    assert action.count == 6  # ceil(4 * 1.5)


def test_attempt_budget_exhaustion_fails_plan():
    plan = _plan(k=4)
    for i in range(MAX_FEC_ATTEMPTS):
        action = handle_feedback(plan, report_rank=0, now=0.1 * (i + 1))
        assert action.kind == "retransmit"
    action = handle_feedback(plan, report_rank=0, now=9.0)
    assert action == RetxAction("failed")
    assert plan.failed and plan.attempts_used == MAX_FEC_ATTEMPTS


def test_deadline_passes_fail_immediately():
    plan = _plan(k=4, deadline=1.0)
    action = handle_feedback(plan, report_rank=2, now=1.0)
    assert action.kind == "failed"


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
