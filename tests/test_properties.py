"""Property test: every small configuration ``validate()`` accepts runs.

Hypothesis draws whole scenarios from bounded ranges (at most 1 s, 3
receivers, packets of at least 250 bytes), so no example asks for a large
allocation or a long run. Each one that passes ``validate()`` must run to
completion in this process, keep the report's bookkeeping identities and
give the cyclic collector back in the state it found it.
"""

from __future__ import annotations

import gc

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mcnc.sim.config import PROFILES, ConfigError, SimConfig
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
        uncoded=draw(st.booleans()),
        multi_connectivity=draw(st.booleans()),
        hysteresis_db=draw(_floats(0.0, 10.0)),
        feedback_staleness_s=draw(_floats(0.0, 0.1)),
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
        lte_snr_db=draw(_floats(-10.0, 30.0)),
        lte_loss=draw(_floats(0.0, 1.0)),
    )


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_valid_config_runs_to_completion(cfg):
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    was_on = gc.isenabled()
    report = run(cfg)
    assert gc.isenabled() == was_on
    assert check_conservation(report) is None
    assert report.frames_total == cfg.n_ues * cfg.frame_count()
