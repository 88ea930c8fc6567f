"""Link model: presampled fading, outage gating, FIFO timing, retry ladder."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcnc.channel import LOS, LTE, MMWAVE, NLOS, LinkModel, TxOutcome
from mcnc.sim.config import SimConfig


def _link(kind=MMWAVE, initial_mode=LOS, rng=None, **fields):
    """A link of kind built from the default config with fields replaced."""
    cfg = dataclasses.replace(SimConfig(), **fields)
    return LinkModel(cfg, kind, initial_mode, rng or random.Random(1))


def _los_link(**kw):
    """A mmWave link that stays in its initial mode, without shadowing or
    loss unless kw says otherwise."""
    return _link(**{**dict(mmwave_sojourn_los_s=math.inf, mmwave_sojourn_nlos_s=math.inf,
                           mmwave_snr_sigma_db=0.0, mmwave_loss_los=0.0,
                           mmwave_loss_nlos=0.0), **kw})


def _presampled(link, n_steps, step_s=0.01, seed=0):
    link.presample(n_steps, step_s, np.random.default_rng(seed))
    return np.asarray(link.modes), np.asarray(link.snrs_db)


def _shannon(snr_db, bandwidth_hz=1e9, efficiency=0.6):
    return efficiency * bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


def _lag1(xs):
    d = xs - xs.mean()
    return float(np.dot(d[:-1], d[1:]) / np.dot(d, d))


# -- fading and outage ---------------------------------------------------


def test_los_without_shadowing_never_sees_outage():
    link = _los_link()
    modes, snrs = _presampled(link, 5000)
    assert (modes == LOS).all()
    assert (snrs == 20.0).all()
    for i in range(0, 5000, 50):
        assert link.transmit(1000, now=(i + 0.5) * 0.01).delivered


def test_deep_nlos_is_permanent_outage():
    link = _los_link(initial_mode=NLOS, mmwave_snr_nlos_db=-10.0)
    modes, snrs = _presampled(link, 1000)
    assert (modes == NLOS).all()
    assert (snrs < link.outage_threshold_db).all()
    for i in range(0, 1000, 10):
        out = link.transmit(1000, now=(i + 0.5) * 0.01)
        assert not out.delivered and out.attempts == 0
    assert link.busy_until == 0.0


def test_outage_threshold_is_a_strict_boundary():
    at = _los_link(mmwave_snr_los_db=-5.0, mmwave_snr_nlos_db=-5.0, outage_threshold_db=-5.0)
    assert at.transmit(1000, now=0.0).attempts == 1
    below = _los_link(mmwave_snr_los_db=-5.0000001, mmwave_snr_nlos_db=-5.0,
                      outage_threshold_db=-5.0)
    assert below.transmit(1000, now=0.0).attempts == 0


def test_shannon_rate_value():
    link = _los_link(mmwave_bandwidth_hz=1e9, efficiency=0.6, mmwave_base_delay_s=0.0)
    expected = 0.6 * 1e9 * math.log2(1.0 + 10.0 ** (20.0 / 10.0))
    out = link.transmit(1000, now=0.0)
    assert 8000.0 / out.deliver_at == pytest.approx(expected)
    assert 8000.0 / out.deliver_at == pytest.approx(3.995e9, rel=1e-3)


def test_mode_flips_follow_sojourn_times():
    link = _link(mmwave_sojourn_los_s=2.0, mmwave_sojourn_nlos_s=1.0,
                 mmwave_snr_sigma_db=0.0, mmwave_loss_los=0.0, mmwave_loss_nlos=0.0,
                 rng=random.Random(5))
    dt = 0.01
    modes, _ = _presampled(link, 400_000, dt, seed=5)
    assert modes[0] == LOS  # the trajectory starts in the initial mode
    flips = int(np.count_nonzero(np.diff(modes)))
    time_in = [np.count_nonzero(modes == LOS) * dt, np.count_nonzero(modes == NLOS) * dt]
    # long-run occupancy 2:1 and mean sojourns near the configured values
    assert time_in[LOS] / time_in[NLOS] == pytest.approx(2.0, rel=0.1)
    mean_sojourn = (time_in[LOS] + time_in[NLOS]) / flips
    assert mean_sojourn == pytest.approx(1.5, rel=0.1)


def test_shadowing_marginal_and_correlation():
    link = _los_link(mmwave_snr_sigma_db=4.0, mmwave_shadow_corr_s=0.05)
    dt = 0.01
    _, xs = _presampled(link, 40_000, dt, seed=3)
    assert xs.mean() == pytest.approx(20.0, abs=0.3)
    assert xs.std() == pytest.approx(4.0, abs=0.3)
    assert _lag1(xs) == pytest.approx(math.exp(-dt / 0.05), abs=0.03)


def test_zero_correlation_time_redraws_independently():
    link = _los_link(mmwave_snr_sigma_db=4.0, mmwave_shadow_corr_s=0.0)
    _, xs = _presampled(link, 20_000, seed=4)
    assert xs.std() == pytest.approx(4.0, abs=0.3)
    assert abs(_lag1(xs)) < 0.03


def test_mode_flip_redraws_shadowing_fresh():
    # equal mode means and a huge correlation time: within a sojourn the
    # AR step barely moves, so a jump at a flip can only be a fresh draw
    link = _link(mmwave_sojourn_los_s=0.05, mmwave_sojourn_nlos_s=0.05,
                 mmwave_snr_los_db=0.0, mmwave_snr_nlos_db=0.0, mmwave_snr_sigma_db=1.0,
                 mmwave_shadow_corr_s=1e9, mmwave_loss_los=0.0, mmwave_loss_nlos=0.0,
                 rng=random.Random(11))
    modes, snrs = _presampled(link, 2000, seed=11)
    flip = np.diff(modes) != 0
    jump = np.abs(np.diff(snrs))
    assert np.count_nonzero(flip) > 100
    assert (jump[~flip] < 1e-3).all()
    # two independent N(0, 1) draws differ by 2/sqrt(pi) on average
    assert jump[flip].mean() == pytest.approx(2.0 / math.sqrt(math.pi), rel=0.15)


# sha256 of the int8 modes then the float64 SNRs that presample wrote, pinned
# when scipy.signal.lfilter still ran the autoregression: its order-1
# direct form computes innov * x[i] + rho * y[i - 1], the same two
# products and one add as the in-house recurrence, so every bit must hold
_TRAJECTORIES = {
    # the default mmWave link over a 62 s session
    "default": (dict(), 6200, 0.01,
                "7d2ae25be74be7a464f0aafcf40f89058ef3e8b0d88a67aad00df0131f68f173"),
    "no_correlation": (dict(mmwave_shadow_corr_s=0.0), 2000, 0.01,
                       "bc41bc9679602924e21189d02ca8cef82b61a0c433b9aa67d9d371ca49e87cc9"),
    "no_shadowing": (dict(mmwave_snr_sigma_db=0.0), 2000, 0.01,
                     "c4ff168890789bb78afb4e387b680ad3e97f16cb7a13a76bbc1b16d11c403051"),
    # sojourns shorter than a step: every segment is one step long
    "sub_step_sojourns": (dict(mmwave_sojourn_los_s=0.004, mmwave_sojourn_nlos_s=0.003),
                          2000, 0.01,
                          "6d8e59c253d18a294f8c92a94d352195f999c3b2a412f1e59b92d7e97fd06ac7"),
    # sojourns of one or two steps: most segments are one step long
    "step_sojourns": (dict(mmwave_sojourn_los_s=0.02, mmwave_sojourn_nlos_s=0.01),
                      2000, 0.01,
                      "49ce710f255e543d60537dde67ff2698fdc5d0aa7a28ccd57423411f128907d1"),
    "rho_near_one": (dict(mmwave_shadow_corr_s=1e6), 2000, 0.001,
                     "dda63a5a1a70b1df5518c53c37da048da90e66493ae7bb3c580b5a4e877bf0c4"),
    "one_step": (dict(), 1, 0.01,
                 "674c13616d15949071999699fa2daaf52388ce770201be28648f878b4f2bc852"),
}


@pytest.mark.parametrize("case", sorted(_TRAJECTORIES))
def test_presampled_trajectory_is_pinned(case):
    kw, n_steps, step_s, digest = _TRAJECTORIES[case]
    # pinned with a 0.25 s correlation time where the case sets none
    link = _link(rng=random.Random(0), **{"mmwave_shadow_corr_s": 0.25, **kw})
    modes, snrs = _presampled(link, n_steps, step_s, seed=20)
    assert len(modes) == len(snrs) == n_steps
    h = hashlib.sha256(modes.astype(np.int8).tobytes())
    h.update(snrs.astype(np.float64).tobytes())
    assert h.hexdigest() == digest, h.hexdigest()


def test_the_simulator_never_imports_scipy():
    # importing scipy.signal costs a simulator process about 75 MB and a
    # second of start-up, more than a default run; a fresh interpreter
    # shows whether any module pulls it back in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import mcnc.sim, mcnc.sim.cli, mcnc.channel, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_transmit_reads_state_at_its_send_start():
    # LOS for 5 s, then outage; a packet queued behind a long one starts
    # after the boundary and meets the outage, however early it was handed in
    link = _los_link(mmwave_sojourn_los_s=5.0, mmwave_snr_nlos_db=-10.0,
                     mmwave_bandwidth_hz=1e3)
    modes, _ = _presampled(link, 10_000, step_s=0.01, seed=2)
    boundary = int(np.argmax(modes == NLOS)) * 0.01
    assert 0.1 < boundary < 100.0
    before = link.transmit(100, now=boundary - 0.05)
    assert before.delivered and link.busy_until > boundary
    queued = link.transmit(100, now=boundary - 0.04)
    assert not queued.delivered and queued.attempts == 0
    # past the trajectory's end the last state holds
    assert not link.transmit(100, now=1e6).delivered


def test_transmit_reads_the_step_that_steps_gives():
    # transmit spells steps() out for one time: the two agree at every
    # frame and report instant of a default session
    cfg = SimConfig()
    link = _los_link()  # never in outage, so every packet takes its step's rate
    t_end = cfg.session_end_s()
    _presampled(link, int(t_end * (1.0 / cfg.channel_step_s)) + 2, cfg.channel_step_s)
    frames = [u * cfg.stagger_step_s + np.arange(cfg.frame_count()) / cfg.fps
              for u in range(cfg.n_ues)]
    reports = np.arange(int(t_end / cfg.feedback_interval_s) + 2) * cfg.feedback_interval_s
    for times in frames + [reports]:
        read = []
        for t in times.tolist():
            link.busy_until = 0.0  # an empty FIFO: the packet starts at t
            link._rate_step = -1  # nothing cached: transmit finds its own step
            link.transmit(1000, t)
            read.append(link._rate_step)
        assert read == link.steps(times).tolist()
    # today's rule, which a boundary fix re-pins: every frame instant and
    # every second report instant lies on a step boundary, where the float
    # product can land just below it and read the step before
    assert frames[0][29] == 0.58 and link.steps(frames[0][29:30]).tolist() == [57]
    early = []
    for times in frames + [reports[::2]]:
        on_grid = np.rint(times * link.inv_step)
        assert np.abs(times * link.inv_step - on_grid).max() < 1e-6
        early.append(int(np.count_nonzero(link.steps(times) < on_grid)))
    assert early == [144, 219, 436, 312, 609, 89]


# -- transmission --------------------------------------------------------


def test_transmit_serializes_through_a_fifo():
    link = _los_link(mmwave_bandwidth_hz=1e9, mmwave_base_delay_s=0.0005)
    rate = _shannon(20.0)
    first = link.transmit(1000, now=0.0)
    second = link.transmit(1000, now=0.0)
    tx = 8000.0 / rate
    assert first.delivered and second.delivered
    assert first.send_start == 0.0
    assert second.send_start == pytest.approx(tx)
    assert first.deliver_at == pytest.approx(tx + 0.0005)
    assert second.deliver_at == pytest.approx(2 * tx + 0.0005)
    # after the queue drains, a later packet starts immediately
    third = link.transmit(1000, now=1.0)
    assert third.send_start == 1.0


def test_transmit_in_outage_drops_without_airtime():
    link = _los_link(initial_mode=NLOS, mmwave_snr_nlos_db=-10.0)
    out = link.transmit(1000, now=0.5)
    assert not out.delivered
    assert out.attempts == 0
    assert link.busy_until == 0.0


def test_retry_ladder_and_attempt_cap():
    rng = random.Random(23)
    link = _los_link(mmwave_loss_los=0.5, mmwave_loss_nlos=0.5, ran_retx=True,
                     ran_max_attempts=3, ran_retx_delay_s=0.004, rng=rng)
    outcomes = [link.transmit(1000, now=i * 1.0) for i in range(4000)]
    delivered = [o for o in outcomes if o.delivered]
    failed = [o for o in outcomes if not o.delivered]
    assert all(1 <= o.attempts <= 3 for o in delivered)
    assert all(o.attempts == 3 for o in failed)
    # three coin flips at 1/2: failure rate near 1/8
    assert len(failed) / len(outcomes) == pytest.approx(0.125, abs=0.02)
    for o in delivered:
        base = o.send_start + 8000.0 / _shannon(20.0) + link.base_delay_s
        assert o.deliver_at == pytest.approx(base + (o.attempts - 1) * 0.004)


def test_single_attempt_when_retx_disabled():
    rng = random.Random(29)
    link = _los_link(mmwave_loss_los=0.5, mmwave_loss_nlos=0.5, ran_retx=False, rng=rng)
    outcomes = [link.transmit(100, now=i * 1.0) for i in range(2000)]
    assert all(o.attempts == 1 for o in outcomes)
    rate = sum(o.delivered for o in outcomes) / len(outcomes)
    assert rate == pytest.approx(0.5, abs=0.03)


def test_loss_probability_tracks_mode():
    # both modes stay out of outage; only the loss regime changes
    link = _los_link(mmwave_sojourn_los_s=0.5, mmwave_sojourn_nlos_s=0.5,
                     mmwave_snr_los_db=20.0, mmwave_snr_nlos_db=20.0, mmwave_loss_los=0.0,
                     mmwave_loss_nlos=1.0, ran_retx=False, rng=random.Random(31))
    modes, _ = _presampled(link, 2000, seed=31)
    assert 0 < np.count_nonzero(modes == NLOS) < 2000
    for i in range(0, 2000, 7):
        out = link.transmit(100, now=(i + 0.5) * 0.01)
        assert out.delivered == (modes[i] == LOS)


def test_every_transmit_branch_returns_a_txoutcome():
    # the engine unpacks an outcome like the plain 4-tuple, and the
    # benchmark's traced runs read it by name: every branch must serve both
    link = _los_link(mmwave_loss_los=0.5, mmwave_loss_nlos=0.5, ran_retx=True,
                     ran_max_attempts=3, rng=random.Random(5))
    outage = _los_link(initial_mode=NLOS, mmwave_snr_nlos_db=-10.0)
    branches = {"outage": [outage.transmit(1000, now=0.5)]}
    for i in range(200):
        out = link.transmit(1000, now=i * 1.0)
        if not out.delivered:
            branch = "exhausted"
        else:
            branch = "first attempt" if out.attempts == 1 else "retried"
        branches.setdefault(branch, []).append(out)
    assert sorted(branches) == ["exhausted", "first attempt", "outage", "retried"]
    names = ("delivered", "deliver_at", "attempts", "send_start")
    for branch, outs in branches.items():
        for out in outs:
            assert type(out) is TxOutcome, branch
            plain = tuple(out)
            assert len(plain) == 4 and out == plain and plain == out, branch
            assert [getattr(out, name) for name in names] == list(plain), branch
            delivered, deliver_at, attempts, send_start = out
            assert (delivered, deliver_at, attempts, send_start) == plain, branch


def _reference_transmit(link, size_bytes, now):
    """``LinkModel.transmit`` as it was before the per-step rate cache."""
    send_start = now if now > link.busy_until else link.busy_until
    snrs = link.snrs_db
    i = int(send_start * link.inv_step)
    if i >= len(snrs):
        i = len(snrs) - 1
    snr = snrs[i]
    if snr < link.outage_threshold_db:
        return TxOutcome((False, 0.0, 0, now))
    rate = link.efficiency * link.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr / 10.0))
    serialization = size_bytes * 8.0 / rate
    link.busy_until = send_start + serialization
    p = link.loss_prob[link.modes[i]]
    attempts = 0
    rng = link.rng
    while attempts < link.attempts_allowed:
        attempts += 1
        if p == 0.0 or rng.random() >= p:
            deliver_at = (
                send_start
                + serialization
                + link.base_delay_s
                + (attempts - 1) * link.retx_delay_s
            )
            return TxOutcome((True, deliver_at, attempts, send_start))
    return TxOutcome((False, 0.0, attempts, send_start))


def _bursts(seed, start, end):
    """(size, now) calls: bursts of a few packets, enough for a 2 MHz link
    that most of them queue across a step boundary."""
    rng = random.Random(seed)
    calls = []
    t = start
    while t < end:
        calls += [(rng.choice((200, 1000, 3000)), t) for _ in range(rng.randint(1, 6))]
        t += rng.uniform(0.002, 0.015)
    return calls


_SHADOWED = dict(mmwave_bandwidth_hz=2e6, mmwave_sojourn_los_s=0.3, mmwave_sojourn_nlos_s=0.2,
                 mmwave_snr_los_db=20.0, mmwave_snr_nlos_db=-2.0, mmwave_snr_sigma_db=4.0,
                 mmwave_shadow_corr_s=0.05, mmwave_loss_los=0.1, mmwave_loss_nlos=0.5)

# never in outage, with short sojourns and far-apart loss probabilities: the
# mode flips while bursts queue, and a stale per-step loss shows at once
_FLIPPING = dict(mmwave_bandwidth_hz=4e6, mmwave_sojourn_los_s=0.04, mmwave_sojourn_nlos_s=0.04,
                 mmwave_snr_los_db=20.0, mmwave_snr_nlos_db=6.0, mmwave_snr_sigma_db=1.0,
                 mmwave_shadow_corr_s=0.05, mmwave_loss_los=0.05, mmwave_loss_nlos=0.6)


def _mode_at(link, t):
    return link.modes[min(int(t * link.inv_step), len(link.modes) - 1)]


@pytest.mark.parametrize("kind,fields", [
    (MMWAVE, _SHADOWED),
    (LTE, dict(lte_bandwidth_hz=2e6, n_ues=1, lte_snr_db=10.0, lte_loss=0.2)),
    (MMWAVE, {**_SHADOWED, "mmwave_loss_los": 0.0, "mmwave_loss_nlos": 0.0}),
    (MMWAVE, {**_SHADOWED, "ran_retx": False}),
    (MMWAVE, _FLIPPING),
], ids=["mmwave", "lte", "lossless", "no_retx", "flipping"])
def test_transmit_matches_the_reference(kind, fields):
    link = _link(kind, rng=random.Random(41), **fields)
    ref = _link(kind, rng=random.Random(41), **fields)
    # round one on a 3 s trajectory, ending with a lone packet at 2.9 s;
    # round two re-presamples a 6 s trajectory and opens with a burst in
    # that same step, so a cache the re-presample failed to reset would
    # serve it, then runs a packet past the trajectory's end
    rounds = [(300, 5, _bursts(43, 0.0, 2.5) + [(1000, 2.9)]),
              (600, 6, [(1000, 2.9)] * 4 + _bursts(47, 2.9, 5.4) + [(1000, 8.0)])]
    outage = flips = 0
    reused_mode = []
    for n_steps, seed, calls in rounds:
        for each in (link, ref):
            each.presample(n_steps, 0.01, np.random.default_rng(seed))
        reused_mode.append(_mode_at(ref, 2.9))
        for size, now in calls:
            got = link.transmit(size, now)
            want = _reference_transmit(ref, size, now)
            assert tuple(got) == tuple(want), (size, now)
            assert link.busy_until == ref.busy_until
            assert link.rng.getstate() == ref.rng.getstate()
            outage += want.attempts == 0
            # a packet queued into a step of the other mode
            flips += bool(want.attempts) and _mode_at(ref, want.send_start) != _mode_at(ref, now)
    if fields is _FLIPPING:
        assert flips > 0, "the mode must flip under queued packets"
        assert reused_mode[0] != reused_mode[1], "the reused step must change mode"
    elif link.kind == MMWAVE:
        assert outage > 0, "the mmWave rounds must meet outage"


def test_lte_link_is_static():
    lte = _link(LTE, lte_bandwidth_hz=20e6, n_ues=1, lte_snr_db=18.0, lte_loss=1e-3,
                rng=random.Random(3))
    assert lte.kind == LTE
    out = lte.transmit(1000, now=0.0)
    assert 8000.0 / (lte.busy_until - out.send_start) == pytest.approx(
        0.6 * 20e6 * math.log2(1.0 + 10.0 ** 1.8)
    )
    modes, snrs = _presampled(lte, 200, seed=3)
    assert (modes == LOS).all() and (snrs == 18.0).all()
    # never in outage: every packet takes airtime
    assert all(lte.transmit(1000, now=i * 0.01).attempts >= 1 for i in range(200))


def test_lte_rate_at_20db_is_80mbps():
    # 0.6 * 20e6 * log2(1 + 100) = 79.90 Mb/s
    lte = _link(LTE, lte_bandwidth_hz=20e6, n_ues=1, lte_snr_db=20.0, lte_loss=0.0,
                rng=random.Random(0))
    lte.transmit(1000, now=0.0)
    rate = 8000.0 / lte.busy_until
    assert rate == pytest.approx(0.6 * 20e6 * math.log2(101.0))
    assert abs(rate - 79.9e6) < 0.1e6


#: every field a link reads, each with a value no other field has
_DISTINCT = dict(
    efficiency=0.55, outage_threshold_db=-6.5, ran_retx=True, ran_max_attempts=4,
    ran_retx_delay_s=0.0065, mmwave_bandwidth_hz=1.5e9, mmwave_base_delay_s=0.0007,
    mmwave_snr_los_db=21.0, mmwave_snr_nlos_db=-3.0, mmwave_snr_sigma_db=3.5,
    mmwave_shadow_corr_s=0.45, mmwave_sojourn_los_s=2.5, mmwave_sojourn_nlos_s=1.25,
    mmwave_loss_los=0.11, mmwave_loss_nlos=0.17, lte_bandwidth_hz=30e6, n_ues=6,
    lte_base_delay_s=0.0011, lte_snr_db=16.0, lte_loss=0.002)


def test_links_read_their_own_fields():
    cfg = dataclasses.replace(SimConfig(), **_DISTINCT)
    assert len(set(_DISTINCT.values())) == len(_DISTINCT)
    mm = LinkModel(cfg, MMWAVE, NLOS, random.Random(1))
    lte = LinkModel(cfg, LTE, LOS, random.Random(1))
    for link in (mm, lte):
        assert (link.efficiency, link.outage_threshold_db, link.attempts_allowed,
                link.retx_delay_s) == (0.55, -6.5, 4, 0.0065)
    assert mm.kind == MMWAVE and mm.modes == [NLOS]
    assert (mm.bandwidth_hz, mm.base_delay_s) == (1.5e9, 0.0007)
    assert mm.sojourn_s == (2.5, 1.25)
    assert mm.snr_mean_db == (21.0, -3.0)
    assert (mm.snr_sigma_db, mm.shadow_corr_s) == (3.5, 0.45)
    assert mm.loss_prob == (0.11, 0.17)
    # the cell bandwidth split evenly among the receivers
    assert lte.kind == LTE and lte.modes == [LOS]
    assert (lte.bandwidth_hz, lte.base_delay_s) == (5e6, 0.0011)
    assert lte.sojourn_s == (math.inf, math.inf)
    assert lte.snr_mean_db == (16.0, 16.0) and lte.snrs_db == [16.0]
    assert (lte.snr_sigma_db, lte.loss_prob) == (0.0, (0.002, 0.002))
    # without RAN retransmissions both links make one attempt
    off = dataclasses.replace(cfg, ran_retx=False)
    for kind in (MMWAVE, LTE):
        assert LinkModel(off, kind, LOS, random.Random(1)).attempts_allowed == 1


# -- control packets -----------------------------------------------------


def _report_times(n, interval=0.005):
    # a quarter interval off the 10 ms step boundaries, so rounding cannot
    # move a report into the neighbouring state
    return (np.arange(n) + 0.25) * interval


def test_snr_at_reads_the_state_in_force():
    link = _los_link(mmwave_sojourn_los_s=0.5, mmwave_sojourn_nlos_s=0.5,
                     mmwave_snr_sigma_db=4.0, mmwave_shadow_corr_s=0.25)
    _, snrs = _presampled(link, 300, step_s=0.01, seed=7)
    times = [0.0, 0.004, 0.01, 1.2345, 2.99]
    # past the trajectory's end the last state holds
    assert link.snr_at(np.array(times + [1e6])).tolist() == [
        snrs[int(t / 0.01)] for t in times] + [snrs[-1]]
    # a link never presampled holds its initial state at every time
    lte = _link(LTE, lte_snr_db=12.0)
    assert lte.snr_at(np.array([0.0, 1e6])).tolist() == [12.0, 12.0]


def test_control_survival_without_loss_keeps_every_report():
    link = _los_link()
    _presampled(link, 500)
    ok = link.control_survival(_report_times(1000), np.random.default_rng(1))
    assert ok.dtype == bool and ok.shape == (1000,) and ok.all()
    lte = _link(LTE, lte_snr_db=18.0, lte_loss=0.0)
    assert lte.control_survival(_report_times(1000), np.random.default_rng(1)).all()


def test_control_survival_in_outage_loses_every_report():
    # no loss setting can save a report sent in outage: LTE below its
    # threshold and a deep-NLOS mmWave link lose them all
    lte = _link(LTE, lte_snr_db=-10.0, lte_loss=0.0)
    assert not lte.control_survival(_report_times(1000), np.random.default_rng(2)).any()
    mm = _los_link(initial_mode=NLOS, mmwave_snr_nlos_db=-10.0)
    _presampled(mm, 500)
    assert not mm.control_survival(_report_times(1000), np.random.default_rng(2)).any()
    # a report is lost exactly where the state it was sent in is in outage
    flip = _los_link(mmwave_sojourn_los_s=0.5, mmwave_sojourn_nlos_s=0.5,
                     mmwave_snr_nlos_db=-10.0)
    modes, _ = _presampled(flip, 500, seed=3)
    times = _report_times(1000)
    ok = flip.control_survival(times, np.random.default_rng(3))
    assert 0 < np.count_nonzero(ok) < 1000
    np.testing.assert_array_equal(ok, modes[(times / 0.01).astype(int)] == LOS)


@pytest.mark.parametrize("ran_retx,attempts", [(True, 3), (False, 1)])
def test_control_survival_loss_follows_every_allowed_attempt(ran_retx, attempts):
    # one uniform per report against the mode's loss to the power of the
    # attempts the link allows
    link = _los_link(mmwave_sojourn_los_s=0.5, mmwave_sojourn_nlos_s=0.5,
                     mmwave_snr_los_db=20.0, mmwave_snr_nlos_db=20.0, mmwave_loss_los=0.5,
                     mmwave_loss_nlos=0.8, ran_retx=ran_retx, ran_max_attempts=3)
    modes, _ = _presampled(link, 500, seed=4)
    times = _report_times(1000)
    ok = link.control_survival(times, np.random.default_rng(4))
    draws = np.random.default_rng(4).random(1000)
    p = np.where(modes[(times / 0.01).astype(int)] == LOS, 0.5, 0.8)
    np.testing.assert_array_equal(ok, draws >= p ** attempts)
    assert np.mean(ok) == pytest.approx(1.0 - np.mean(p ** attempts), abs=0.05)
