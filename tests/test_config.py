"""Configuration defaults, INI parsing, validation, grid expansion."""

from __future__ import annotations

import dataclasses
import math

import pytest

from mcnc.sim.config import (
    CONNECTIVITY_LABELS,
    ERROR_CONTROL_LABELS,
    MAX_GRID_STATES,
    PROFILES,
    ConfigError,
    SimConfig,
    cell_key,
    grid_cells,
    load_config,
)


def test_defaults_validate():
    SimConfig().validate()


def test_profile_lookup():
    lc = SimConfig(coding_profile="LC")
    hc = SimConfig(coding_profile="HC")
    assert (lc.generation_size, lc.field_exponent) == (40, 4)
    assert (hc.generation_size, hc.field_exponent) == (100, 8)
    assert PROFILES == {"LC": (40, 4), "HC": (100, 8)}


def test_labels():
    cfg = SimConfig()
    assert cfg.error_control_label == "ran_retx+nc_fec"
    assert dataclasses.replace(cfg, nc_fec=False).error_control_label == "ran_retx"
    assert dataclasses.replace(cfg, ran_retx=False).error_control_label == "nc_fec"
    assert dataclasses.replace(
        cfg, ran_retx=False, nc_fec=False
    ).error_control_label == "none"
    assert cfg.connectivity_label == "multi"
    assert dataclasses.replace(
        cfg, multi_connectivity=False
    ).connectivity_label == "mmwave_only"


@pytest.mark.parametrize(
    "field,value",
    [
        ("duration_s", 0.0),
        ("runs", 0),
        ("n_ues", 0),
        ("ues_los", 9),
        ("fps", -1.0),
        ("packet_bytes", 0),
        ("coding_profile", "XL"),
        ("size_jitter", 1.0),
        ("spatial_layers", 3),
        ("psnr_lost_db", 100.0),
        ("playout_buffer_frames", 0),
        ("feedback_interval_s", 0.0),
        ("ran_max_attempts", 0),
        ("retx_overshoot", 0.5),
        ("backhaul_delay_s", -0.001),
        ("receiver_giveup_s", -1.0),
        ("receiver_giveup_empty_s", -1.0),
        ("mmwave_shadow_corr_s", -0.1),
        ("mmwave_loss_los", 1.5),
        ("lte_loss", -0.1),
        ("mmwave_bandwidth_hz", 0.0),
        ("mmwave_sojourn_los_s", 0.0),
        ("efficiency", 0.0),
        ("efficiency", -0.5),
        ("efficiency", 1.5),
        ("feedback_staleness_s", -0.001),
        ("hysteresis_db", -1.0),
        ("trace_file", "/definitely/not/a/file"),
        ("duration_s", math.nan),
        ("fps", math.nan),
        ("channel_step_s", math.nan),
        ("feedback_staleness_s", math.nan),
        ("backhaul_delay_s", math.nan),
        ("hysteresis_db", math.nan),
        ("mmwave_snr_los_db", math.nan),
        ("retx_overshoot", math.nan),
        ("feedback_interval_s", 1e-9),
        ("feedback_interval_s", math.inf),
        ("duration_s", 1e6),
        ("duration_s", math.inf),
        ("stagger_step_s", math.inf),
    ],
)
def test_validation_rejects(field, value):
    cfg = dataclasses.replace(SimConfig(), **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_step_grid_is_capped_per_receiver():
    # 1 ns steps over a 60 s session would presample ~6e10 states per receiver
    with pytest.raises(ConfigError, match="states per receiver"):
        SimConfig(channel_step_s=1e-9, feedback_interval_s=1e-9).validate()
    # an endless session over an endless channel step is inf / inf states
    with pytest.raises(ConfigError, match="states per receiver"):
        SimConfig(stagger_step_s=math.inf, channel_step_s=math.inf).validate()
    end_s = SimConfig().session_end_s()
    for states, ok in ((MAX_GRID_STATES - 1, True), (MAX_GRID_STATES + 1, False)):
        step = end_s / (states - 2)
        cfg = SimConfig(channel_step_s=step, feedback_interval_s=step)
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="states per receiver"):
                cfg.validate()


def test_uncoded_excludes_fec():
    with pytest.raises(ConfigError):
        SimConfig(uncoded=True, nc_fec=True).validate()
    SimConfig(uncoded=True, nc_fec=False).validate()


def test_channel_step_must_align_with_feedback_interval():
    SimConfig(channel_step_s=0.010, feedback_interval_s=0.005).validate()
    with pytest.raises(ConfigError):
        SimConfig(channel_step_s=0.010, feedback_interval_s=0.004).validate()


FULL_INI = """
[sim]
duration_s = 12.5
n_ues = 3
seed = 9
runs = 4

[video]
fps = 25
packet_bytes = 500
base_nalu_bytes = 1500
size_jitter = 0.2

[coding]
coding_profile = HC
nc_fec = off
uncoded = no

[distribution]
multi_connectivity = yes
hysteresis_db = 2.5
receiver_giveup_s = 0.04

[channel]
ran_retx = false
efficiency = 0.5  ; inline comment

[channel.mmwave]
snr_los_db = 18
shadow_corr_s = 0.3
ues_los = 1

[channel.lte]
bandwidth_hz = 2e7
loss = 1e-4
"""


def test_ini_round_trip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(FULL_INI, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.duration_s == 12.5
    assert cfg.n_ues == 3 and cfg.seed == 9 and cfg.runs == 4
    assert cfg.fps == 25.0 and cfg.packet_bytes == 500
    assert cfg.base_nalu_bytes == 1500 and cfg.size_jitter == 0.2
    assert cfg.coding_profile == "HC"
    assert cfg.nc_fec is False and cfg.uncoded is False
    assert cfg.multi_connectivity is True
    assert cfg.hysteresis_db == 2.5 and cfg.receiver_giveup_s == 0.04
    assert cfg.ran_retx is False and cfg.efficiency == 0.5
    assert cfg.mmwave_snr_los_db == 18.0 and cfg.mmwave_shadow_corr_s == 0.3
    assert cfg.ues_los == 1
    assert cfg.lte_bandwidth_hz == 2e7 and cfg.lte_loss == 1e-4
    # untouched keys keep their defaults
    assert cfg.playout_buffer_frames == SimConfig().playout_buffer_frames


def test_ini_rejects_unknown_names(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nonsense]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[sim]\nwarp_factor = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad_key))


def test_ini_rejects_bad_values(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[sim]\nduration_s = sixty\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[coding]\nnc_fec = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[sim]\nduration_s = -5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[distribution]\nhysteresis_db = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_ini_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/scenario.ini")


def test_ini_malformed(tmp_path):
    path = tmp_path / "d.ini"
    path.write_text("duration_s = 5\n", encoding="utf-8")  # key before any section
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_grid_is_sixteen_distinct_cells():
    cells = grid_cells(SimConfig())
    assert len(cells) == 16
    keys = [cell_key(c) for c in cells]
    assert len(set(keys)) == 16
    for ec, profile, conn in keys:
        assert ec in ERROR_CONTROL_LABELS
        assert profile in PROFILES
        assert conn in CONNECTIVITY_LABELS
    # expansion order is stable: profile, then connectivity, then mechanism
    assert keys[0] == ("none", "HC", "mmwave_only")
    assert keys[-1] == ("ran_retx+nc_fec", "LC", "multi")


def test_grid_inherits_base_settings():
    base = dataclasses.replace(SimConfig(), duration_s=7.0, seed=5)
    for cell in grid_cells(base):
        assert cell.duration_s == 7.0 and cell.seed == 5
        assert cell.uncoded is False
