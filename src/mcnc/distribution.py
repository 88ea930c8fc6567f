"""Sender-side packet distribution over the two radio paths.

Each NALU's generations are dispatched on the path chosen from the latest
link feedback: mmWave whenever it is confirmed usable, LTE as fallback.
Switching up to mmWave requires the reported SNR to clear the outage
threshold by a hysteresis margin; switching down happens as soon as it
falls below the threshold, or when no report is at hand.

When network-coded FEC is enabled the initial burst carries fixed
redundancy (20% on mmWave, 10% on LTE, rounded up). ``handle_feedback``
decides the plan on each fresh rank report from the receiver: delivered,
failed, or a top-up burst sized to the missing degrees of freedom, at
most MAX_FEC_ATTEMPTS rounds per generation. Without FEC the burst is
exactly k packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .channel import LTE, MMWAVE
from .rlnc import Encoder, Generation

#: Initial-burst redundancy per path, as an exact ratio (numerator, denominator)
#: so that ceil(k * redundancy) never suffers float round-off (1.1 * 100 is not 110.0).
REDUNDANCY = {MMWAVE: (6, 5), LTE: (11, 10)}

#: Feedback-triggered repair rounds allowed per generation.
MAX_FEC_ATTEMPTS = 5


@dataclass(slots=True)
class GenerationPlan:
    gen_id: int
    k: int
    n_initial: int
    deadline: float
    attempts_used: int = 0
    delivered: bool = False
    failed: bool = False


class PathSelector:
    """Hysteresis path chooser that judges the raw mmWave SNR of receiver
    reports: below the outage threshold the link is unusable."""

    __slots__ = ("outage_threshold_db", "hysteresis_db")

    def __init__(self, outage_threshold_db: float, hysteresis_db: float):
        self.outage_threshold_db = outage_threshold_db
        self.hysteresis_db = hysteresis_db

    def on_mmwave(self, snr_db: np.ndarray) -> List[bool]:
        """The path after each report slot, True for mmWave, given the SNR
        of each slot's report (NaN: none). No report or an SNR below the
        threshold means LTE, threshold + hysteresis or more means mmWave,
        and in between the path holds: LTE before any slot decides."""
        up = snr_db >= self.outage_threshold_db + self.hysteresis_db
        decided = up | ~(snr_db >= self.outage_threshold_db)
        idx = np.arange(len(snr_db))
        last = np.maximum.accumulate(np.where(decided, idx, -1))
        return (up[last] & (last >= 0)).tolist()


def initial_burst_size(k: int, path: str, nc_fec: bool) -> int:
    """Packets in the first burst: k alone, or k plus path redundancy."""
    if not nc_fec:
        return k
    num, den = REDUNDANCY[path]
    return -(-k * num // den)


def dispatch_generation(
    gen: Generation,
    path: str,
    deadline: float,
    encoder: Encoder,
    nc_fec: bool = True,
) -> Tuple[GenerationPlan, list]:
    """Plan a generation and emit its initial burst (attempt 0)."""
    plan = GenerationPlan(gen.gen_id, gen.k, initial_burst_size(gen.k, path, nc_fec), deadline)
    return plan, encoder.burst(plan.n_initial, attempt=0)


def handle_feedback(
    plan: GenerationPlan,
    report_rank: int,
    now: float,
    overshoot: float = 1.0,
) -> int:
    """Decide an open plan on the freshest known decoder rank.

    Returns the top-up packet count (missing degrees of freedom times
    overshoot, at least one), already charged to the plan as an attempt,
    or 0 once the plan has closed: ``plan.delivered`` if the rank is full,
    else ``plan.failed`` when the attempts or the deadline ran out.
    """
    if report_rank >= plan.k:
        plan.delivered = True
    elif plan.attempts_used >= MAX_FEC_ATTEMPTS or now >= plan.deadline:
        plan.failed = True
    else:
        plan.attempts_used += 1
        return math.ceil((plan.k - report_rank) * overshoot)
    return 0
