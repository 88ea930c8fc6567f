"""Scenario configuration: defaults, INI parsing, and the evaluation grid.

A configuration fully determines one simulated cell: which coding profile
runs, which error-control mechanisms are on, and every channel and timing
constant.  The evaluation grid is the cross product of the two coding
profiles, the two connectivity modes, and the four error-control settings
(16 cells).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple


class ConfigError(ValueError):
    """Raised for unknown keys, unparseable values, or inconsistent settings."""


#: coding profile -> (generation size cap, field exponent)
PROFILES: Dict[str, Tuple[int, int]] = {
    "LC": (40, 4),
    "HC": (100, 8),
}

#: most channel or feedback states the engine may presample per receiver
MAX_GRID_STATES = 10**7

ERROR_CONTROL_LABELS = ("none", "ran_retx", "nc_fec", "ran_retx+nc_fec")
CONNECTIVITY_LABELS = ("mmwave_only", "multi")


@dataclass
class SimConfig:
    # --- sim ---
    duration_s: float = 60.0
    n_ues: int = 5
    backhaul_delay_s: float = 0.010
    stagger_step_s: float = 0.020
    playout_buffer_frames: int = 25
    seed: int = 0
    runs: int = 90

    # --- video ---
    fps: float = 50.0
    packet_bytes: int = 1000
    trace_file: str = ""
    trace_seed: int = 1
    base_nalu_bytes: int = 2000
    enh_nalu_bytes: int = 2000
    size_jitter: float = 0.3
    psnr_lost_db: float = 8.0
    spatial_layers: int = 2

    # --- coding ---
    coding_profile: str = "LC"
    nc_fec: bool = True
    uncoded: bool = False

    # --- distribution ---
    multi_connectivity: bool = True
    hysteresis_db: float = 3.0
    feedback_staleness_s: float = 0.020
    feedback_interval_s: float = 0.005
    retx_overshoot: float = 1.0
    plan_check_guard_s: float = 0.010
    receiver_giveup_s: float = 0.050
    receiver_giveup_empty_s: float = 0.025

    # --- channel (shared) ---
    ran_retx: bool = True
    ran_max_attempts: int = 3
    ran_retx_delay_s: float = 0.008
    efficiency: float = 0.6
    outage_threshold_db: float = -5.0
    channel_step_s: float = 0.010

    # --- channel.mmwave ---
    mmwave_bandwidth_hz: float = 1e9
    mmwave_base_delay_s: float = 0.0005
    mmwave_snr_los_db: float = 20.0
    mmwave_snr_nlos_db: float = -2.0
    mmwave_snr_sigma_db: float = 4.0
    mmwave_shadow_corr_s: float = 0.5
    mmwave_sojourn_los_s: float = 2.0
    mmwave_sojourn_nlos_s: float = 1.0
    mmwave_loss_los: float = 0.13
    mmwave_loss_nlos: float = 0.16
    ues_los: int = 2

    # --- channel.lte ---
    lte_bandwidth_hz: float = 20e6
    lte_base_delay_s: float = 0.0005
    lte_snr_db: float = 18.0
    lte_loss: float = 1e-3

    @property
    def generation_size(self) -> int:
        return PROFILES[self.coding_profile][0]

    @property
    def field_exponent(self) -> int:
        return PROFILES[self.coding_profile][1]

    @property
    def error_control_label(self) -> str:
        if self.ran_retx and self.nc_fec:
            return "ran_retx+nc_fec"
        if self.ran_retx:
            return "ran_retx"
        if self.nc_fec:
            return "nc_fec"
        return "none"

    @property
    def connectivity_label(self) -> str:
        return "multi" if self.multi_connectivity else "mmwave_only"

    def frame_count(self) -> int:
        """Frames one receiver plays: ``duration_s * fps``, at least one."""
        return max(1, int(round(self.duration_s * self.fps)))

    def session_end_s(self) -> float:
        """Simulated time by which every receiver is done: the last stream
        start, its last frame, the backhaul delay, the playout buffer depth
        and one second of slack. The engine presamples channel and feedback
        state up to here."""
        return ((self.n_ues - 1) * self.stagger_step_s
                + (self.frame_count() - 1) / self.fps
                + self.backhaul_delay_s + self.playout_buffer_frames / self.fps + 1.0)

    def validate(self) -> None:
        # every range check below is a comparison, and NaN fails none of them
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError("%s must be a number, got nan" % f.name)
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.n_ues < 1:
            raise ConfigError("n_ues must be at least 1")
        if not 0 <= self.ues_los <= self.n_ues:
            raise ConfigError("ues_los must lie in [0, n_ues]")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.packet_bytes < 1:
            raise ConfigError("packet_bytes must be at least 1")
        if self.coding_profile not in PROFILES:
            raise ConfigError(
                "coding_profile must be one of %s, got %r"
                % (sorted(PROFILES), self.coding_profile)
            )
        if self.uncoded and self.nc_fec:
            raise ConfigError("uncoded transport cannot run with nc_fec enabled")
        if not 0.0 <= self.size_jitter < 1.0:
            raise ConfigError("size_jitter must lie in [0, 1)")
        if self.spatial_layers not in (1, 2):
            raise ConfigError("spatial_layers must be 1 or 2")
        if not 0.0 <= self.psnr_lost_db <= 99.99:
            raise ConfigError("psnr_lost_db must lie in [0, 99.99]")
        if self.playout_buffer_frames < 1:
            raise ConfigError("playout_buffer_frames must be at least 1")
        if self.feedback_interval_s <= 0 or self.channel_step_s <= 0:
            raise ConfigError("feedback_interval_s and channel_step_s must be positive")
        if math.isinf(self.feedback_interval_s):
            # report instants are multiples of the interval: 0 * inf is NaN
            raise ConfigError("feedback_interval_s must be finite")
        if self.channel_step_s % self.feedback_interval_s > 1e-12:
            # report instants must land on channel-state boundaries
            ratio = self.channel_step_s / self.feedback_interval_s
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    "channel_step_s must be an integer multiple of feedback_interval_s"
                )
        if self.ran_max_attempts < 1:
            raise ConfigError("ran_max_attempts must be at least 1")
        if self.retx_overshoot < 1.0:
            raise ConfigError("retx_overshoot must be at least 1.0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError("efficiency must lie in (0, 1]")
        for name in (
            "backhaul_delay_s",
            "stagger_step_s",
            "mmwave_base_delay_s",
            "lte_base_delay_s",
            "receiver_giveup_s",
            "receiver_giveup_empty_s",
            "plan_check_guard_s",
            "mmwave_shadow_corr_s",
            "feedback_staleness_s",
            "hysteresis_db",
        ):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be non-negative" % name)
        for name in ("mmwave_loss_los", "mmwave_loss_nlos", "lte_loss"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError("%s must be a probability" % name)
        if self.mmwave_bandwidth_hz <= 0 or self.lte_bandwidth_hz <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.mmwave_sojourn_los_s <= 0 or self.mmwave_sojourn_nlos_s <= 0:
            raise ConfigError("sojourn times must be positive")
        if self.trace_file and not os.path.isfile(self.trace_file):
            raise ConfigError("trace_file does not exist: %r" % self.trace_file)
        if not math.isfinite(self.duration_s * self.fps):
            raise ConfigError("duration_s * fps must be finite")
        end_s = self.session_end_s()
        for name in ("channel_step_s", "feedback_interval_s"):
            states = end_s / getattr(self, name) + 2
            if not states <= MAX_GRID_STATES:
                raise ConfigError(
                    "%s=%g over a %g s session needs %.3g presampled states per "
                    "receiver, more than %d" % (name, getattr(self, name), end_s,
                                                 states, MAX_GRID_STATES)
                )


# (section, key) -> (attribute, parser tag)
_SCHEMA: Dict[str, Dict[str, Tuple[str, str]]] = {
    "sim": {
        "duration_s": ("duration_s", "float"),
        "n_ues": ("n_ues", "int"),
        "backhaul_delay_s": ("backhaul_delay_s", "float"),
        "stagger_step_s": ("stagger_step_s", "float"),
        "playout_buffer_frames": ("playout_buffer_frames", "int"),
        "seed": ("seed", "int"),
        "runs": ("runs", "int"),
    },
    "video": {
        "fps": ("fps", "float"),
        "packet_bytes": ("packet_bytes", "int"),
        "trace_file": ("trace_file", "str"),
        "trace_seed": ("trace_seed", "int"),
        "base_nalu_bytes": ("base_nalu_bytes", "int"),
        "enh_nalu_bytes": ("enh_nalu_bytes", "int"),
        "size_jitter": ("size_jitter", "float"),
        "psnr_lost_db": ("psnr_lost_db", "float"),
        "spatial_layers": ("spatial_layers", "int"),
    },
    "coding": {
        "coding_profile": ("coding_profile", "str"),
        "nc_fec": ("nc_fec", "bool"),
        "uncoded": ("uncoded", "bool"),
    },
    "distribution": {
        "multi_connectivity": ("multi_connectivity", "bool"),
        "hysteresis_db": ("hysteresis_db", "float"),
        "feedback_staleness_s": ("feedback_staleness_s", "float"),
        "feedback_interval_s": ("feedback_interval_s", "float"),
        "retx_overshoot": ("retx_overshoot", "float"),
        "plan_check_guard_s": ("plan_check_guard_s", "float"),
        "receiver_giveup_s": ("receiver_giveup_s", "float"),
        "receiver_giveup_empty_s": ("receiver_giveup_empty_s", "float"),
    },
    "channel": {
        "ran_retx": ("ran_retx", "bool"),
        "ran_max_attempts": ("ran_max_attempts", "int"),
        "ran_retx_delay_s": ("ran_retx_delay_s", "float"),
        "efficiency": ("efficiency", "float"),
        "outage_threshold_db": ("outage_threshold_db", "float"),
        "channel_step_s": ("channel_step_s", "float"),
    },
    "channel.mmwave": {
        "bandwidth_hz": ("mmwave_bandwidth_hz", "float"),
        "base_delay_s": ("mmwave_base_delay_s", "float"),
        "snr_los_db": ("mmwave_snr_los_db", "float"),
        "snr_nlos_db": ("mmwave_snr_nlos_db", "float"),
        "snr_sigma_db": ("mmwave_snr_sigma_db", "float"),
        "shadow_corr_s": ("mmwave_shadow_corr_s", "float"),
        "sojourn_los_s": ("mmwave_sojourn_los_s", "float"),
        "sojourn_nlos_s": ("mmwave_sojourn_nlos_s", "float"),
        "loss_los": ("mmwave_loss_los", "float"),
        "loss_nlos": ("mmwave_loss_nlos", "float"),
        "ues_los": ("ues_los", "int"),
    },
    "channel.lte": {
        "bandwidth_hz": ("lte_bandwidth_hz", "float"),
        "base_delay_s": ("lte_base_delay_s", "float"),
        "snr_db": ("lte_snr_db", "float"),
        "loss": ("lte_loss", "float"),
    },
}

_BOOL_STATES = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


def _parse_value(raw: str, tag: str, where: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(float(raw)) if ("e" in raw.lower() or "." in raw) else int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            key = raw.lower()
            if key not in _BOOL_STATES:
                raise ValueError("not a boolean")
            return _BOOL_STATES[key]
        return raw
    except ValueError as exc:
        raise ConfigError("bad value for %s: %r (%s)" % (where, raw, exc)) from None


def load_config(path: str) -> SimConfig:
    """Parse an INI scenario file into a validated SimConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file %r: %s" % (path, exc)) from None
    except configparser.Error as exc:
        raise ConfigError("malformed config file %r: %s" % (path, exc)) from None

    cfg = SimConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section [%s]" % section)
        table = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in table:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))
            attr, tag = table[key]
            setattr(cfg, attr, _parse_value(raw, tag, "[%s] %s" % (section, key)))
    cfg.validate()
    return cfg


def grid_cells(base: SimConfig) -> List[SimConfig]:
    """Expand a base configuration into the 16-cell evaluation grid.

    Order is deterministic: profile, then connectivity, then error control.
    Per-cell fields are overridden; everything else is inherited from base.
    """
    cells = []
    for profile in sorted(PROFILES):
        for connectivity in CONNECTIVITY_LABELS:
            for retx, fec in ((False, False), (True, False), (False, True), (True, True)):
                cells.append(
                    dataclasses.replace(
                        base,
                        coding_profile=profile,
                        multi_connectivity=(connectivity == "multi"),
                        ran_retx=retx,
                        nc_fec=fec,
                        uncoded=False,
                    )
                )
    return cells


def cell_key(cfg: SimConfig) -> Tuple[str, str, str]:
    """Stable identity of a grid cell: (error control, profile, connectivity)."""
    return (cfg.error_control_label, cfg.coding_profile, cfg.connectivity_label)
