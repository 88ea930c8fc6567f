"""Property tests: what ``validate()`` accepts runs, what it rejects exits 2.

Hypothesis draws whole scenarios from bounded ranges (at most 1 s, 3
receivers, packets of at least 250 bytes), so no example asks for a large
allocation or a long run. Each one that passes ``validate()`` must run to
completion in this process, keep the report's bookkeeping identities,
admit frames the way a bounded playout buffer would, and give the cyclic
collector back in the state it found it. Each scenario
broken on purpose, written out as an INI file, must make ``mcnc-sim run``
exit 2 with a config error and no traceback.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import gc
import io
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mcnc.sim import engine
from mcnc.sim.cli import main
from mcnc.sim.config import _SECTIONS, PROFILES, ConfigError, SimConfig
from mcnc.sim.engine import run
from mcnc.sim.metrics import check_conservation


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    n_ues = draw(st.integers(1, 3))
    feedback_interval_s = draw(st.sampled_from((0.001, 0.0025, 0.005, 0.01)))
    return SimConfig(
        duration_s=draw(_floats(0.02, 1.0)),
        n_ues=n_ues,
        backhaul_delay_s=draw(_floats(0.0, 0.05)),
        stagger_step_s=draw(_floats(0.0, 0.1)),
        playout_buffer_frames=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2**32 - 1)),
        runs=1,
        fps=draw(_floats(1.0, 60.0)),
        packet_bytes=draw(st.integers(250, 2000)),
        trace_seed=draw(st.integers(0, 3)),
        base_nalu_bytes=draw(st.integers(1, 4000)),
        enh_nalu_bytes=draw(st.integers(1, 4000)),
        size_jitter=draw(_floats(0.0, 0.9)),
        psnr_lost_db=draw(_floats(0.0, 99.99)),
        spatial_layers=draw(st.sampled_from((1, 2))),
        coding_profile=draw(st.sampled_from(sorted(PROFILES))),
        nc_fec=draw(st.booleans()),
        multi_connectivity=draw(st.booleans()),
        hysteresis_db=draw(_floats(0.0, 10.0)),
        feedback_staleness_s=draw(st.floats(0.0, 0.1, exclude_min=True)),
        feedback_interval_s=feedback_interval_s,
        retx_overshoot=draw(_floats(1.0, 3.0)),
        plan_check_guard_s=draw(_floats(0.0, 0.05)),
        receiver_giveup_s=draw(_floats(0.0, 0.2)),
        receiver_giveup_empty_s=draw(_floats(0.0, 0.1)),
        ran_retx=draw(st.booleans()),
        ran_max_attempts=draw(st.integers(1, 5)),
        ran_retx_delay_s=draw(_floats(0.0, 0.02)),
        efficiency=draw(_floats(0.05, 1.0)),
        outage_threshold_db=draw(_floats(-20.0, 20.0)),
        channel_step_s=feedback_interval_s * draw(st.integers(1, 10)),
        mmwave_bandwidth_hz=draw(_floats(1e7, 2e9)),
        mmwave_base_delay_s=draw(_floats(0.0, 0.005)),
        mmwave_snr_los_db=draw(_floats(-20.0, 40.0)),
        mmwave_snr_nlos_db=draw(_floats(-20.0, 40.0)),
        mmwave_snr_sigma_db=draw(_floats(0.0, 10.0)),
        mmwave_shadow_corr_s=draw(_floats(0.0, 2.0)),
        mmwave_sojourn_los_s=draw(_floats(0.05, 5.0)),
        mmwave_sojourn_nlos_s=draw(_floats(0.05, 5.0)),
        mmwave_loss_los=draw(_floats(0.0, 1.0)),
        mmwave_loss_nlos=draw(_floats(0.0, 1.0)),
        ues_los=draw(st.integers(0, n_ues)),
        lte_bandwidth_hz=draw(_floats(1e6, 1e8)),
        lte_base_delay_s=draw(_floats(0.0, 0.005)),
        # the LTE link is in outage below outage_threshold_db: every report it
        # carries is lost
        lte_snr_db=draw(_floats(-20.0, 30.0)),
        lte_loss=draw(_floats(0.0, 1.0)),
    )


def _run_keeping_receivers(cfg):
    """Run cfg through ``run`` and return its report and every receiver's
    session."""
    sessions = []
    engine_run = engine._Engine.run

    def keep(self):
        sessions.append(self)
        return engine_run(self)

    with mock.patch.object(engine._Engine, "run", keep):
        report = run(cfg)
    return report, sessions


def _frames(ue):
    """Per frame of a receiver's session: its display deadline, when the
    consumer took it (None: lost) and when each of its base generations
    completed."""
    first, is_base = ue.layout.first, ue.layout.is_base
    for f, c in enumerate(ue.consumed_at.tolist()):
        base = [ue.complete_at[g] for g in range(first[f], first[f + 1]) if is_base[g]]
        yield ue.buffer.deadline(f), None if math.isnan(c) else c, base


def _peak_occupancy(ues) -> int:
    """Most frames admitted but not yet displayed at any admission instant.

    Asserts on the way that each receiver admits frames in display order
    and none past its deadline. A frame is buffered from its admission
    until its display deadline, when it leaves.
    """
    peak = 0
    for ue in ues:
        admitted = [(d, c) for d, c, _ in _frames(ue) if c is not None]
        consumed = [c for _, c in admitted]
        deadlines = [d for d, _ in admitted]
        assert consumed == sorted(consumed), "admission out of display order"
        assert all(c <= d for c, d in zip(consumed, deadlines)), "admitted past deadline"
        for t in consumed:
            held = bisect.bisect_right(consumed, t) - bisect.bisect_right(deadlines, t)
            peak = max(peak, held)
    return peak


def _assert_fates_settled(ues):
    """After a run a frame is taken (``consumed_at`` set) exactly when all its
    base generations completed before its display instant, and not before
    the last of them completed; any other frame is lost."""
    for ue in ues:
        for deadline, consumed, base in _frames(ue):
            base_done = max(base)
            if consumed is None:
                assert base_done >= deadline, "a frame complete in time was lost"
            else:
                assert base_done <= consumed, "frame taken before its base layer"


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_valid_config_runs_to_completion(cfg):
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    was_on = gc.isenabled()
    report, ues = _run_keeping_receivers(cfg)
    assert gc.isenabled() == was_on
    assert check_conservation(report) is None
    assert report.frames_total == cfg.n_ues * cfg.frame_count()
    assert _peak_occupancy(ues) <= cfg.playout_buffer_frames
    _assert_fates_settled(ues)


def test_default_cell_fills_the_playout_buffer_exactly():
    # the bound is tight: a cell with good links keeps the buffer full
    cfg = SimConfig(duration_s=3.0)
    _, ues = _run_keeping_receivers(cfg)
    assert _peak_occupancy(ues) == cfg.playout_buffer_frames
    _assert_fates_settled(ues)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_lost_frames_still_count_late_base_completions(profile):
    # in this cell some frames are lost at their deadline while a base
    # generation is still in flight; it completes later, and the frame's
    # fate must still follow the display rule
    cfg = SimConfig(duration_s=10.0, seed=11, coding_profile=profile,
                    multi_connectivity=False, ran_retx=False, nc_fec=True)
    _, ues = _run_keeping_receivers(cfg)
    late = [f for ue in ues for f, (_, consumed, base) in enumerate(_frames(ue))
            if consumed is None and any(c < math.inf for c in base)]
    assert late, "the cell must lose a frame whose base layer completes later"
    _assert_fates_settled(ues)


def _negative():
    return _floats(-10.0, -1e-9)


def _set(name, values):
    return values.map(lambda v: {name: v})


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type == "float"]

#: each strategy draws field settings that ``validate()`` must reject
_BREAKS = st.one_of(
    _set("duration_s", _floats(-10.0, 0.0)),
    _set("runs", st.integers(-3, 0)),
    _set("n_ues", st.integers(-3, 0)),
    _set("ues_los", st.integers(-3, -1) | st.integers(4, 9)),  # n_ues <= 3
    _set("fps", _floats(-60.0, 0.0)),
    _set("packet_bytes", st.integers(-3, 0)),
    st.sampled_from(("base_nalu_bytes", "enh_nalu_bytes")).flatmap(
        lambda name: _set(name, st.integers(-3, 0))),
    _set("coding_profile", st.sampled_from(("", "lc", "MC", "XL"))),
    _set("size_jitter", _negative() | _floats(1.0, 5.0)),
    _set("spatial_layers", st.sampled_from((-1, 0, 3))),
    _set("psnr_lost_db", _negative() | _floats(100.0, 1e3)),
    _set("playout_buffer_frames", st.integers(-3, 0)),
    _set("feedback_interval_s", _floats(-1.0, 0.0) | st.just(math.inf)),
    _set("channel_step_s", _floats(-1.0, 0.0)),
    st.just({"feedback_interval_s": 0.004, "channel_step_s": 0.010}),
    _set("ran_max_attempts", st.integers(-3, 0) | st.integers(17, 10**9)),
    _set("retx_overshoot", _floats(-1.0, 0.999) | _floats(10.001, 1e300)
         | st.just(math.inf)),
    _set("efficiency", _floats(-1.0, 0.0) | _floats(1.001, 10.0)),
    st.sampled_from((
        "backhaul_delay_s", "stagger_step_s", "mmwave_base_delay_s",
        "lte_base_delay_s", "ran_retx_delay_s", "receiver_giveup_s",
        "receiver_giveup_empty_s", "plan_check_guard_s", "mmwave_shadow_corr_s",
        "feedback_staleness_s", "hysteresis_db")).flatmap(
        lambda name: _set(name, _negative())),
    st.sampled_from(("ran_retx_delay_s", "mmwave_base_delay_s", "lte_base_delay_s",
                     "plan_check_guard_s", "feedback_staleness_s")).map(
        lambda name: {name: math.inf}),
    st.sampled_from(("mmwave_loss_los", "mmwave_loss_nlos", "lte_loss")).flatmap(
        lambda name: _set(name, _negative() | _floats(1.001, 10.0))),
    st.sampled_from(("mmwave_bandwidth_hz", "lte_bandwidth_hz", "mmwave_sojourn_los_s",
                     "mmwave_sojourn_nlos_s")).flatmap(
        lambda name: _set(name, _floats(-1e9, 0.0))),
    # SNRs whose link rate would overflow, or round to zero above the threshold
    st.sampled_from(("mmwave_snr_los_db", "mmwave_snr_nlos_db", "lte_snr_db",
                     "outage_threshold_db")).flatmap(
        lambda name: _set(name, _floats(-1e300, -150.001) | _floats(150.001, 1e300))),
    _set("mmwave_snr_sigma_db", _negative() | _floats(50.001, 1e300)),
    # a link rate under a bit per second, subnormal ones among them
    st.sampled_from((("mmwave_bandwidth_hz", 1e-2), ("lte_bandwidth_hz", 1e-1),
                     ("efficiency", 1e-10))).flatmap(
        lambda nv: _set(nv[0], st.floats(0.0, nv[1], exclude_min=True))),
    st.just({"trace_file": "/no/such.trace"}),
    st.sampled_from(_FLOAT_FIELDS).map(lambda name: {name: math.nan}),
    # more frames, or more presampled states, than a run may hold
    _set("duration_s", _floats(2e5, 1e300)).map(lambda d: {**d, "fps": 60.0}),
    st.just({"feedback_interval_s": 1e-9, "channel_step_s": 1e-9}),
    _set("n_ues", st.integers(10**5, 10**6)).map(lambda d: {**d, "stagger_step_s": 0.0}),
    # more source packets than a run may send
    st.just({"base_nalu_bytes": 10**12, "enh_nalu_bytes": 10**12, "packet_bytes": 1}),
)


def _ini(cfg: SimConfig) -> str:
    """An INI file that sets every field of ``cfg`` under its own key."""
    lines = []
    for section, names in _SECTIONS.items():
        prefix = section.partition(".")[2] + "_"
        lines.append("[%s]" % section)
        for name in names:
            value = getattr(cfg, name)
            if isinstance(value, bool):
                value = "yes" if value else "no"
            lines.append("%s = %s" % (name.removeprefix(prefix), value))
    return "\n".join(lines) + "\n"


@st.composite
def rejected_inis(draw):
    cfg = dataclasses.replace(draw(configs()), **draw(_BREAKS))
    with pytest.raises(ConfigError):
        cfg.validate()
    return _ini(cfg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rejected_inis())
@example("[coding]\nuncoded = no\n")  # the key of a removed setting
def test_every_rejected_config_exits_2(ini):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rejected.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ini)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
        assert rc == 2
        assert err.getvalue().startswith("config error: ")
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(os.path.join(tmp, "out"))
