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
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..video.trace import LAYER_SIZE_FACTORS, PSNR_CAP


class ConfigError(ValueError):
    """Raised for unknown keys, unparseable values, or inconsistent settings."""


#: coding profile -> (generation size cap, field exponent)
PROFILES: Dict[str, Tuple[int, int]] = {
    "LC": (40, 4),
    "HC": (100, 8),
}

#: most frames, channel states and feedback states the engine may build,
#: summed over every receiver of a run; also the most source packets a run
#: may send
MAX_GRID_STATES = 10**7

#: widest SNR mean or outage threshold, and widest shadowing spread, in dB.
#: The link rate takes log2(1 + 10**(snr/10)): that overflows float64 above
#: about 3083 dB and rounds to zero below about -156 dB, where no packet
#: could be serialized. A link computes a rate only at or above the outage
#: threshold, and a shadowing draw would have to lie 58 spreads off its
#: mean to reach the overflow, so within these bounds every rate is
#: positive and finite.
SNR_LIMIT_DB = 150.0
SNR_SIGMA_LIMIT_DB = 50.0

#: slowest link rate a run may meet, in bit/s: efficiency x bandwidth x
#: log2(1 + 10**(outage_threshold_db/10)), the LTE bandwidth being split
#: among receivers. A link's busy time sums every serialization it makes.
#: At a bit per second or more that sum, in seconds, stays below the bits
#: a run sends; a subnormal rate makes even one packet's time infinite.
MIN_LINK_RATE_BPS = 1.0

#: most top-up packets per missing degree of freedom, and most link-layer
#: attempts per packet: they scale the packets a top-up round sends and the
#: loss draws a packet may take, so an unbounded value never finishes
MAX_RETX_OVERSHOOT = 10.0
MAX_RAN_ATTEMPTS = 16

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

    def fresh_slots(self) -> int:
        """Report slots a report stays fresh: ceil(staleness / interval), at
        least one. A whole multiple of the interval gives exactly that many
        despite float rounding (0.035 / 0.005 reads 7.000000000000001)."""
        return max(1, math.ceil(self.feedback_staleness_s / self.feedback_interval_s - 1e-9))

    def validate(self) -> None:
        # every range check below is a comparison, and NaN fails none of
        # them; an integer past float range overflows the first float product
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError("%s must be a number, got nan" % f.name)
            if isinstance(value, int) and not abs(value) <= sys.float_info.max:
                raise ConfigError("%s must lie within float range" % f.name)
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
        if self.base_nalu_bytes < 1 or self.enh_nalu_bytes < 1:
            raise ConfigError("base_nalu_bytes and enh_nalu_bytes must be at least 1")
        if self.coding_profile not in PROFILES:
            raise ConfigError(
                "coding_profile must be one of %s, got %r"
                % (sorted(PROFILES), self.coding_profile)
            )
        if not 0.0 <= self.size_jitter < 1.0:
            raise ConfigError("size_jitter must lie in [0, 1)")
        if self.spatial_layers not in (1, 2):
            raise ConfigError("spatial_layers must be 1 or 2")
        if not 0.0 <= self.psnr_lost_db <= PSNR_CAP:
            raise ConfigError(f"psnr_lost_db must lie in [0, {PSNR_CAP}]")
        if self.playout_buffer_frames < 1:
            raise ConfigError("playout_buffer_frames must be at least 1")
        if self.feedback_interval_s <= 0 or self.channel_step_s <= 0:
            raise ConfigError("feedback_interval_s and channel_step_s must be positive")
        if math.isinf(self.feedback_interval_s):
            # report instants are multiples of the interval: 0 * inf is NaN
            raise ConfigError("feedback_interval_s must be finite")
        if self.feedback_staleness_s <= 0:
            # a report stays fresh for ceil(staleness / interval) slots
            raise ConfigError("feedback_staleness_s must be positive")
        if self.channel_step_s % self.feedback_interval_s > 1e-12:
            # report instants must land on channel-state boundaries
            ratio = self.channel_step_s / self.feedback_interval_s
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    "channel_step_s must be an integer multiple of feedback_interval_s"
                )
        if not 1 <= self.ran_max_attempts <= MAX_RAN_ATTEMPTS:
            raise ConfigError("ran_max_attempts must lie in [1, %d]" % MAX_RAN_ATTEMPTS)
        if not 1.0 <= self.retx_overshoot <= MAX_RETX_OVERSHOOT:
            raise ConfigError("retx_overshoot must lie in [1, %g]" % MAX_RETX_OVERSHOOT)
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError("efficiency must lie in (0, 1]")
        for name in ("mmwave_snr_los_db", "mmwave_snr_nlos_db", "lte_snr_db",
                     "outage_threshold_db"):
            if not abs(getattr(self, name)) <= SNR_LIMIT_DB:
                raise ConfigError("%s must lie in [-%g, %g] dB"
                                  % (name, SNR_LIMIT_DB, SNR_LIMIT_DB))
        if not 0.0 <= self.mmwave_snr_sigma_db <= SNR_SIGMA_LIMIT_DB:
            raise ConfigError("mmwave_snr_sigma_db must lie in [0, %g] dB"
                              % SNR_SIGMA_LIMIT_DB)
        for name in (
            "backhaul_delay_s",
            "stagger_step_s",
            "mmwave_base_delay_s",
            "lte_base_delay_s",
            "ran_retx_delay_s",
            "receiver_giveup_s",
            "receiver_giveup_empty_s",
            "plan_check_guard_s",
            "mmwave_shadow_corr_s",
            "hysteresis_db",
        ):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be non-negative" % name)
        # each of these ends up as an integer index on the feedback grid
        for name in ("ran_retx_delay_s", "mmwave_base_delay_s", "lte_base_delay_s",
                     "plan_check_guard_s", "feedback_staleness_s"):
            if math.isinf(getattr(self, name)):
                raise ConfigError("%s must be finite" % name)
        for name in ("mmwave_loss_los", "mmwave_loss_nlos", "lte_loss"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError("%s must be a probability" % name)
        if self.mmwave_bandwidth_hz <= 0 or self.lte_bandwidth_hz <= 0:
            raise ConfigError("bandwidths must be positive")
        slowest = (self.efficiency * min(self.mmwave_bandwidth_hz,
                                         self.lte_bandwidth_hz / self.n_ues)
                   * math.log2(1.0 + 10.0 ** (self.outage_threshold_db / 10.0)))
        if not slowest >= MIN_LINK_RATE_BPS:
            raise ConfigError(
                "slowest link rate efficiency x bandwidth x log2(1 + 10^(outage_"
                "threshold_db/10)) is %.3g bit/s, below %g bit/s"
                % (slowest, MIN_LINK_RATE_BPS))
        if self.mmwave_sojourn_los_s <= 0 or self.mmwave_sojourn_nlos_s <= 0:
            raise ConfigError("sojourn times must be positive")
        if self.trace_file and not os.path.isfile(self.trace_file):
            raise ConfigError("trace_file does not exist: %r" % self.trace_file)
        if not math.isfinite(self.duration_s * self.fps):
            raise ConfigError("duration_s * fps must be finite")
        end_s = self.session_end_s()
        # the engine builds end_s / step + 2 states on each grid, per receiver
        per_ue = (end_s / self.channel_step_s + end_s / self.feedback_interval_s + 4
                  + self.frame_count())
        if not self.n_ues * per_ue <= MAX_GRID_STATES:
            raise ConfigError(
                "%d receivers x (channel steps + feedback reports + frames) over a "
                "%g s session need %.3g presampled states, more than %d"
                % (self.n_ues, end_s, self.n_ues * per_ue, MAX_GRID_STATES))
        # each receiver gets every packet of every synthetic NALU, none above
        # key-frame factor x (1 + jitter) x its mean; run() checks trace files
        largest = round(max((self.base_nalu_bytes, self.enh_nalu_bytes)[:self.spatial_layers])
                        * max(LAYER_SIZE_FACTORS) * (1.0 + self.size_jitter))
        packets = (self.n_ues * self.frame_count() * self.spatial_layers
                   * -(-largest // self.packet_bytes))
        if not self.trace_file and packets > MAX_GRID_STATES:
            raise ConfigError("receivers x frames x NALUs of up to %d bytes need %d source "
                              "packets, more than %d" % (largest, packets, MAX_GRID_STATES))


#: INI section -> the SimConfig fields it holds. A field's key is its name,
#: less the ``mmwave_`` / ``lte_`` prefix inside ``[channel.mmwave]`` /
#: ``[channel.lte]``; its annotation picks the parser.
_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "sim": ("duration_s", "n_ues", "backhaul_delay_s", "stagger_step_s",
            "playout_buffer_frames", "seed", "runs"),
    "video": ("fps", "packet_bytes", "trace_file", "trace_seed", "base_nalu_bytes",
              "enh_nalu_bytes", "size_jitter", "psnr_lost_db", "spatial_layers"),
    "coding": ("coding_profile", "nc_fec"),
    "distribution": ("multi_connectivity", "hysteresis_db", "feedback_staleness_s",
                     "feedback_interval_s", "retx_overshoot", "plan_check_guard_s",
                     "receiver_giveup_s", "receiver_giveup_empty_s"),
    "channel": ("ran_retx", "ran_max_attempts", "ran_retx_delay_s", "efficiency",
                "outage_threshold_db", "channel_step_s"),
    "channel.mmwave": ("mmwave_bandwidth_hz", "mmwave_base_delay_s", "mmwave_snr_los_db",
                       "mmwave_snr_nlos_db", "mmwave_snr_sigma_db", "mmwave_shadow_corr_s",
                       "mmwave_sojourn_los_s", "mmwave_sojourn_nlos_s", "mmwave_loss_los",
                       "mmwave_loss_nlos", "ues_los"),
    "channel.lte": ("lte_bandwidth_hz", "lte_base_delay_s", "lte_snr_db", "lte_loss"),
}


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            try:
                return int(raw)
            except ValueError:
                value = float(raw)  # "1e3" and "5.0" are integers too
                if not value.is_integer():
                    raise ValueError("not an integer")
                return int(value)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            states = configparser.ConfigParser.BOOLEAN_STATES
            if raw.lower() not in states:
                raise ValueError("not a boolean")
            return states[raw.lower()]
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

    if parser.defaults():
        # configparser keeps [DEFAULT] out of sections() and copies its keys
        # into every other section; it is no section of ours
        raise ConfigError("unknown section [%s]" % parser.default_section)
    cfg = SimConfig()
    kinds = {f.name: f.type for f in dataclasses.fields(SimConfig)}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError("unknown section [%s]" % section)
        # [channel.mmwave] strips "mmwave_"; an undotted section strips nothing
        prefix = section.partition(".")[2] + "_"
        names = {name.removeprefix(prefix): name for name in _SECTIONS[section]}
        for key, raw in parser.items(section):
            if key not in names:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))
            name = names[key]
            setattr(cfg, name, _parse_value(raw, kinds[name], "[%s] %s" % (section, key)))
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
                    )
                )
    return cells


def cell_key(cfg: SimConfig) -> Tuple[str, str, str]:
    """Stable identity of a grid cell: (error control, profile, connectivity)."""
    return (cfg.error_control_label, cfg.coding_profile, cfg.connectivity_label)
