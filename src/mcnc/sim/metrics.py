"""Quality metrics: frame PSNR and per-run transport/application summaries."""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..distribution import MAX_FEC_ATTEMPTS
from ..video.trace import PSNR_CAP as PSNR_CAP_DB

#: Peak sample value for 8-bit video.
_PEAK = 255.0


class DimensionMismatchError(ValueError):
    """Raised when two frames cannot be compared pixel by pixel."""


def psnr_frame(reference, received) -> float:
    """Peak signal-to-noise ratio between two 8-bit grayscale frames, in dB.

    Identical frames report the 99.99 dB cap instead of infinity, and any
    computed value is clamped to that cap.
    """
    ref = np.asarray(reference)
    got = np.asarray(received)
    if ref.ndim != 2 or got.ndim != 2:
        raise DimensionMismatchError(
            "frames must be 2-D, got %d-D and %d-D" % (ref.ndim, got.ndim)
        )
    if ref.shape != got.shape:
        raise DimensionMismatchError(
            "frame shapes differ: %s vs %s" % (ref.shape, got.shape)
        )
    if ref.size == 0:
        raise DimensionMismatchError("frames must be non-empty")
    diff = ref.astype(np.float64) - got.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    value = 10.0 * math.log10(_PEAK * _PEAK / mse)
    return min(value, PSNR_CAP_DB)


def left_sum(xs) -> float:
    """xs added left to right, as ``sum`` did before Python 3.12 made it
    compensated: no output may depend on the interpreter."""
    return functools.reduce(operator.add, xs, 0.0)


def latency_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Mean and tail percentiles of a latency sample set, in seconds.

    ``samples`` is any 1-D sequence of floats: a list, an ``array('d')``
    or an ndarray.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "min": 0.0, "max": 0.0}
    p50, p95, p99 = np.percentile(arr, (50.0, 95.0, 99.0))
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


@dataclass
class UEMetrics:
    """Per-receiver accounting for one run.

    ``packets`` maps each path to ``[sent, delivered, outage, exhausted]``:
    packets handed to the link, delivered through it, dropped unsent with
    the link in outage, and lost on every attempt the retry ladder allows.
    The engine adds to it as it sends.
    """

    ue_id: int
    frames_total: int = 0
    frames_played: int = 0
    nalus_total: int = 0
    nalus_lost: int = 0
    psnr_sum_db: float = 0.0
    # one float64 per played frame: 8 bytes each, not a boxed float's 32
    latency_samples: array = field(default_factory=lambda: array("d"))
    # index = extra FEC rounds spent on a generation (0 = initial burst only)
    fec_rounds_hist: List[int] = field(default_factory=lambda: [0] * (MAX_FEC_ATTEMPTS + 1))
    packets: Dict[str, List[int]] = field(default_factory=dict)
    generations_total: int = 0
    feedback_sent: int = 0
    feedback_lost: int = 0

    @property
    def nalu_loss_ratio(self) -> float:
        if self.nalus_total == 0:
            return 0.0
        return self.nalus_lost / self.nalus_total

    @property
    def avg_psnr_db(self) -> float:
        if self.frames_total == 0:
            return 0.0
        # accumulation noise must not push the mean past the sentinel cap
        return min(self.psnr_sum_db / self.frames_total, PSNR_CAP_DB)


@dataclass
class MetricsReport:
    """Aggregate result of one simulation run."""

    seed: int
    duration_s: float
    per_ue: List[UEMetrics]

    @property
    def frames_total(self) -> int:
        return sum(u.frames_total for u in self.per_ue)

    @property
    def frames_played(self) -> int:
        return sum(u.frames_played for u in self.per_ue)

    @property
    def nalus_total(self) -> int:
        return sum(u.nalus_total for u in self.per_ue)

    @property
    def nalus_lost(self) -> int:
        return sum(u.nalus_lost for u in self.per_ue)

    @property
    def nalu_loss_ratio(self) -> float:
        total = self.nalus_total
        if total == 0:
            return 0.0
        return self.nalus_lost / total

    @property
    def avg_psnr_db(self) -> float:
        total = self.frames_total
        if total == 0:
            return 0.0
        return min(left_sum(u.psnr_sum_db for u in self.per_ue) / total, PSNR_CAP_DB)

    @property
    def latency(self) -> Dict[str, float]:
        # receiver order, as played; the empty head keeps a report with no
        # receivers valid input to concatenate
        return latency_stats(np.concatenate(
            [np.empty(0)] + [np.asarray(u.latency_samples, dtype=np.float64)
                             for u in self.per_ue]))

    @property
    def fec_rounds_hist(self) -> List[int]:
        width = max((len(u.fec_rounds_hist) for u in self.per_ue), default=0)
        out = [0] * width
        for u in self.per_ue:
            for i, n in enumerate(u.fec_rounds_hist):
                out[i] += n
        return out

    def packet_totals(self) -> Dict[str, Dict[str, int]]:
        """Packets sent, delivered and dropped per path, over all receivers;
        both drop causes pool into "dropped". A path enters a total only
        with a nonzero count: the totals reach ``to_dict``, so a zero entry
        would change the report."""
        out: Dict[str, Dict[str, int]] = {"sent": {}, "delivered": {}, "dropped": {}}
        for u in self.per_ue:
            for path, (sent, delivered, outage, exhausted) in u.packets.items():
                for name, n in (("sent", sent), ("delivered", delivered),
                                ("dropped", outage + exhausted)):
                    if n:
                        out[name][path] = out[name].get(path, 0) + n
        return out

    def to_dict(self) -> dict:
        lat = self.latency
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "frames_total": self.frames_total,
            "frames_played": self.frames_played,
            "nalus_total": self.nalus_total,
            "nalus_lost": self.nalus_lost,
            "nalu_loss_ratio": self.nalu_loss_ratio,
            "avg_psnr_db": self.avg_psnr_db,
            "latency_ms_mean": lat["mean"] * 1e3,
            "latency_ms_p95": lat["p95"] * 1e3,
            "packets": self.packet_totals(),
            "fec_rounds_hist": self.fec_rounds_hist,
        }


def check_conservation(report: MetricsReport) -> Optional[str]:
    """Return a description of the first violated bookkeeping identity, or None."""
    totals = report.packet_totals()
    for path in sorted(set().union(*totals.values())):
        sent = totals["sent"].get(path, 0)
        got = totals["delivered"].get(path, 0) + totals["dropped"].get(path, 0)
        if got != sent:
            return "path %s: sent %d != delivered+outage+exhausted %d" % (path, sent, got)
    for u in report.per_ue:
        closed = sum(u.fec_rounds_hist)
        if closed != u.generations_total:
            return "ue %d: %d plans closed for %d generations" % (
                u.ue_id, closed, u.generations_total)
        if u.nalus_lost > u.nalus_total:
            return "ue %d: more NALUs lost than sent" % u.ue_id
        if u.frames_played > u.frames_total:
            return "ue %d: more frames played than generated" % u.ue_id
        if not 0.0 <= u.nalu_loss_ratio <= 1.0:
            return "ue %d: loss ratio out of range" % u.ue_id
    return None
