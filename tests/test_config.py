"""Configuration defaults, INI parsing, validation, grid expansion."""

from __future__ import annotations

import configparser
import dataclasses
import math
import pathlib
import re

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
        ("base_nalu_bytes", 0),
        ("base_nalu_bytes", -5),
        ("enh_nalu_bytes", 0),
        ("enh_nalu_bytes", -5),
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
        ("ran_retx_delay_s", -1.0),
        ("ran_retx_delay_s", math.inf),
        ("mmwave_base_delay_s", math.inf),
        ("lte_base_delay_s", math.inf),
        ("plan_check_guard_s", math.inf),
        ("feedback_staleness_s", math.inf),
        ("mmwave_shadow_corr_s", -0.1),
        ("mmwave_loss_los", 1.5),
        ("lte_loss", -0.1),
        ("mmwave_bandwidth_hz", 0.0),
        ("mmwave_sojourn_los_s", 0.0),
        ("efficiency", 0.0),
        ("efficiency", -0.5),
        ("efficiency", 1.5),
        ("feedback_staleness_s", -0.001),
        # a report stays fresh for ceil(staleness / interval) slots: 0 is none
        ("feedback_staleness_s", 0.0),
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
        ("fps", 1e9),
        # the link rate log2(1 + 10**(snr/10)) overflows, or rounds to zero
        ("mmwave_snr_los_db", 4000.0),
        ("mmwave_snr_nlos_db", -math.inf),
        ("lte_snr_db", 4000.0),
        ("lte_snr_db", -400.0),
        ("outage_threshold_db", -1000.0),
        ("mmwave_snr_sigma_db", 1e300),
        ("mmwave_snr_sigma_db", -1.0),
        # a subnormal link rate serializes a packet for an infinite time
        ("mmwave_bandwidth_hz", 1e-320),
        ("lte_bandwidth_hz", 1e-320),
        ("efficiency", 1e-320),
        ("efficiency", 1e-9),
        # retry multipliers that never finish
        ("retx_overshoot", math.inf),
        ("retx_overshoot", 1e300),
        ("retx_overshoot", 10.5),
        ("ran_max_attempts", 10**9),
        ("ran_max_attempts", 17),
        # presampled state for the whole run, not one receiver
        ("n_ues", 1000),
        # source packets: 10**12-byte NALUs, or one byte a packet
        ("base_nalu_bytes", 10**12),
        ("enh_nalu_bytes", 10**12),
        ("packet_bytes", 1),
        # integers past float range, which a float product would overflow
        ("base_nalu_bytes", 10**400),
        ("n_ues", 10**400),
        ("playout_buffer_frames", 10**400),
    ],
)
def test_validation_rejects(field, value):
    cfg = dataclasses.replace(SimConfig(), **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_step_grid_is_capped_per_receiver():
    # the cap is on the whole run: every receiver's channel steps, feedback
    # reports and frames together. 1 ns steps over a 60 s session would
    # presample ~6e10 states for one receiver alone
    with pytest.raises(ConfigError, match="presampled states"):
        SimConfig(channel_step_s=1e-9, feedback_interval_s=1e-9).validate()
    # an endless session over an endless channel step is inf / inf states
    with pytest.raises(ConfigError, match="presampled states"):
        SimConfig(stagger_step_s=math.inf, channel_step_s=math.inf).validate()
    base = SimConfig(n_ues=1, ues_los=1)
    end_s = base.session_end_s()
    for states, ok in ((MAX_GRID_STATES - 10, True), (MAX_GRID_STATES + 10, False)):
        # channel steps and feedback reports on one grid: two states a step
        step = end_s / ((states - base.frame_count()) / 2 - 2)
        cfg = dataclasses.replace(base, channel_step_s=step, feedback_interval_s=step)
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="presampled states"):
                cfg.validate()
    # at the defaults 100 receivers fit; 1000 are in test_validation_rejects
    SimConfig(n_ues=100).validate()


def test_source_packets_are_capped(tmp_path):
    # every receiver gets every source packet of every frame: at the
    # defaults a NALU is at most round(2000 x 2.5 x 1.3) = 6500 bytes, 7
    # packets, so a receiver takes 3000 frames x 2 NALUs x 7 = 42,000
    with pytest.raises(ConfigError, match="source packets"):
        SimConfig(base_nalu_bytes=10**12, enh_nalu_bytes=10**12, packet_bytes=1).validate()
    assert MAX_GRID_STATES // 42_000 == 238
    SimConfig(n_ues=238).validate()
    with pytest.raises(ConfigError, match="source packets"):
        SimConfig(n_ues=239).validate()
    # only the layers in use count, and a trace file's sizes replace the
    # synthetic ones
    SimConfig(spatial_layers=1, enh_nalu_bytes=10**12).validate()
    trace = tmp_path / "any.trace"
    trace.write_text("", encoding="utf-8")  # validate() only checks it exists
    SimConfig(base_nalu_bytes=10**12, trace_file=str(trace)).validate()


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
    assert cfg.nc_fec is False
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


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn_ues = 3\n",  # alone it used to load n_ues = 5 in silence
    "[DEFAULT]\nn_ues = 3\n[video]\nfps = 25\n",
    "[sim]\nruns = 2\n[DEFAULT]\nseed = 4\n",
])
def test_ini_rejects_default_section_keys(tmp_path, text):
    path = tmp_path / "defaults.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(str(path))


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
    # an integer key takes no fraction and no value beyond the float range
    for raw in ("2.5", "1e400", "inf", "nan"):
        path.write_text("[sim]\nn_ues = %s\n" % raw, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"\[sim\] n_ues"):
            load_config(str(path))


def test_ini_integers_accept_integral_float_forms(tmp_path):
    path = tmp_path / "e.ini"
    path.write_text("[sim]\nruns = 1e3\nn_ues = 4.0\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.runs == 1000 and isinstance(cfg.runs, int)
    assert cfg.n_ues == 4 and isinstance(cfg.n_ues, int)


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


# -- the README configuration reference ---------------------------------------

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_ini() -> str:
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def _readme_keys():
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(_readme_ini())
    return [(s, k) for s in parser.sections() for k in parser[s]]


def _field_of(section: str, key: str) -> str:
    # keys in the per-link sections drop their link's prefix; ues_los has none
    if section in ("channel.mmwave", "channel.lte") and key != "ues_los":
        return section.split(".")[1] + "_" + key
    return key


def test_readme_reference_loads_to_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(_readme_ini(), encoding="utf-8")
    assert load_config(str(path)) == SimConfig()


def test_readme_reference_names_every_field_once():
    fields = [_field_of(s, k) for s, k in _readme_keys()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(SimConfig))


@pytest.mark.parametrize("section,key", _readme_keys())
def test_each_readme_key_sets_its_own_field(section, key, tmp_path, monkeypatch):
    # this pins which field a key writes, so a non-default value need not
    # make a consistent scenario on its own (feedback_interval_s + 1 no
    # longer divides channel_step_s)
    monkeypatch.setattr(SimConfig, "validate", lambda self: None)
    name = _field_of(section, key)
    default = getattr(SimConfig(), name)
    if isinstance(default, bool):
        value, raw = not default, "no" if default else "yes"
    elif isinstance(default, (int, float)):
        value = default + 1
        raw = repr(value)
    else:
        value = raw = default + "_other"
    path = tmp_path / "one.ini"
    path.write_text("[%s]\n%s = %s\n" % (section, key, raw), encoding="utf-8")
    cfg = load_config(str(path))
    changed = {f.name for f in dataclasses.fields(SimConfig)
               if getattr(cfg, f.name) != getattr(SimConfig(), f.name)}
    assert changed == {name}
    assert getattr(cfg, name) == value and type(getattr(cfg, name)) is type(default)
