"""Abstract per-UE radio links.

A link alternates between line-of-sight and non-line-of-sight according to
a two-state Markov chain with exponential sojourn times; each state change
redraws a Gaussian shadowing term around the mode's mean SNR. Between
changes the shadowing evolves as a first-order autoregression with
correlation time ``shadow_corr_s``, so deep fades persist for hundreds of
milliseconds instead of decorrelating at the stepping interval; the
stationary distribution stays Gaussian around the mode mean. The link is
in OUTAGE whenever the instantaneous SNR falls below the outage threshold:
its rate is then zero and packets handed to it are dropped on the spot,
modeling an air interface that cannot even complete link-layer signaling.

Otherwise the spectral-efficiency model is a fraction of Shannon capacity,
``rate = efficiency * bandwidth * log2(1 + snr_linear)``, and packets leave
through a FIFO: serialization at the current rate, a fixed stack delay, and
an optional retransmission ladder (per-attempt Bernoulli loss, a fixed
extra delay per repeat) standing in for HARQ and RLC recovery.

The fading trajectory is presampled on a fixed step grid (``presample``):
sojourn lengths are drawn exponentially and quantized onto the grid, and
the autoregression runs vectorized over each sojourn segment. Sampling the
sojourn directly is the continuous-time form of stepping the chain with
per-step flip probability 1 - exp(-dt/sojourn). Each transmission looks
the state up at its own send start; a link never presampled holds its
initial state at every time.

The LTE link reuses the same machinery in degenerate form: transition
rates zero, no shadowing, a fixed SNR, and a small constant loss
probability. It is in outage throughout when that SNR lies below its
threshold, and never otherwise.

Receiver reports are too small to queue behind data: ``control_survival``
decides each one's fate from the state at its send time, by the same
outage rule and retry ladder.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

MMWAVE = "mmwave"
LTE = "lte"

LOS = 0
NLOS = 1


class TxOutcome(NamedTuple):
    delivered: bool
    deliver_at: float  # meaningless when not delivered
    attempts: int
    send_start: float


class LinkModel:
    """One directed radio link with its own fading trajectory and FIFO."""

    __slots__ = (
        "kind", "bandwidth_hz", "efficiency", "base_delay_s",
        "sojourn_s", "snr_mean_db", "snr_sigma_db", "shadow_corr_s",
        "loss_prob", "outage_threshold_db", "ran_retx", "max_attempts",
        "retx_delay_s", "modes", "snrs_db", "inv_step", "busy_until", "rng",
    )

    def __init__(
        self,
        kind: str = MMWAVE,
        bandwidth_hz: float = 1e9,
        efficiency: float = 0.6,
        base_delay_s: float = 0.0005,
        sojourn_s=(2.0, 1.0),
        snr_mean_db=(20.0, -2.0),
        snr_sigma_db: float = 4.0,
        shadow_corr_s: float = 0.25,
        loss_prob=(0.01, 0.5),
        outage_threshold_db: float = -5.0,
        ran_retx: bool = True,
        max_attempts: int = 3,
        retx_delay_s: float = 0.004,
        initial_mode: int = LOS,
        rng: random.Random | None = None,
    ):
        if sojourn_s[0] <= 0 or sojourn_s[1] <= 0:
            raise ValueError("sojourn times must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.kind = kind
        self.bandwidth_hz = bandwidth_hz
        self.efficiency = efficiency
        self.base_delay_s = base_delay_s
        self.sojourn_s = tuple(sojourn_s)
        self.snr_mean_db = tuple(snr_mean_db)
        self.snr_sigma_db = snr_sigma_db
        self.shadow_corr_s = shadow_corr_s
        self.loss_prob = tuple(loss_prob)
        self.outage_threshold_db = outage_threshold_db
        self.ran_retx = ran_retx
        self.max_attempts = max_attempts
        self.retx_delay_s = retx_delay_s
        self.rng = rng if rng is not None else random.Random()
        # drawn even where presample replaces it: later loss draws follow it on rng
        snr = self.snr_mean_db[initial_mode]
        if snr_sigma_db != 0.0:
            snr = self.rng.gauss(snr, snr_sigma_db)
        # a one-step trajectory (inv_step 0 maps every time onto it)
        self.modes = [initial_mode]
        self.snrs_db = [snr]
        self.inv_step = 0.0
        self.busy_until = 0.0

    @classmethod
    def lte(
        cls,
        bandwidth_hz: float = 20e6,
        snr_db: float = -3.0,
        loss_prob: float = 1e-3,
        base_delay_s: float = 0.0015,
        ran_retx: bool = True,
        max_attempts: int = 3,
        retx_delay_s: float = 0.004,
        efficiency: float = 0.6,
        outage_threshold_db: float = -5.0,
        rng: random.Random | None = None,
    ) -> "LinkModel":
        """Always-on cellular fallback; the degenerate LOS-like state."""
        return cls(
            kind=LTE,
            bandwidth_hz=bandwidth_hz,
            efficiency=efficiency,
            base_delay_s=base_delay_s,
            sojourn_s=(math.inf, math.inf),
            snr_mean_db=(snr_db, snr_db),
            snr_sigma_db=0.0,
            loss_prob=(loss_prob, loss_prob),
            outage_threshold_db=outage_threshold_db,
            ran_retx=ran_retx,
            max_attempts=max_attempts,
            retx_delay_s=retx_delay_s,
            initial_mode=LOS,
            rng=rng,
        )

    # -- fading --------------------------------------------------------

    def presample(self, n_steps: int, step_s: float, rng: np.random.Generator) -> None:
        """Replace the trajectory by ``n_steps`` states ``step_s`` apart.

        Starts in the initial mode and draws from ``rng`` the sojourn
        lengths first, then one standard normal per step. Each sojourn
        opens with a fresh shadowing draw; within it the term makes AR(1)
        moves, which keep the N(mean, sigma^2) marginal while correlating
        successive steps over shadow_corr_s. A non-positive correlation
        time degenerates to an independent redraw every step. Times past
        the last step read the last state.
        """
        mode = np.empty(n_steps, dtype=np.int8)
        m = self.modes[0]
        t = 0.0
        i = 0
        while i < n_steps:
            t += rng.exponential(self.sojourn_s[m])
            j = max(i + 1, math.ceil(min(t / step_s, n_steps)))
            mode[i:j] = m
            i = j
            m ^= 1
        means = np.where(mode == LOS, self.snr_mean_db[LOS], self.snr_mean_db[NLOS])
        x = rng.standard_normal(n_steps)
        corr = self.shadow_corr_s
        if self.snr_sigma_db != 0.0 and corr > 0.0:
            rho = math.exp(-step_s / corr)
            innov = math.sqrt(1.0 - rho * rho)
            bounds = np.concatenate(([0], np.flatnonzero(np.diff(mode)) + 1, [n_steps]))
            for a, b in zip(bounds[:-1], bounds[1:]):
                # x[a] keeps its fresh draw; the rest of the sojourn follows it
                if b - a > 1:
                    seg, _ = lfilter([innov], [1.0, -rho], x[a + 1:b],
                                     zi=np.asarray([rho * x[a]]))
                    x[a + 1:b] = seg
        self.modes = mode.tolist()
        self.snrs_db = (means + self.snr_sigma_db * x).tolist()
        self.inv_step = 1.0 / step_s

    # -- state lookup --------------------------------------------------

    def snr_at(self, t: float) -> float:
        """SNR of the trajectory state in force at time ``t``."""
        snrs = self.snrs_db
        i = int(t * self.inv_step)
        return snrs[i] if i < len(snrs) else snrs[-1]

    def control_survival(self, send_times: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Which control packets sent at ``send_times`` get through.

        Each packet reads the state at its send time. In outage it is
        lost; otherwise it is lost only if every allowed attempt fails at
        the mode's loss probability. One uniform per packet comes from
        ``rng``.
        """
        draws = rng.random(len(send_times))
        snrs = np.asarray(self.snrs_db)
        idx = np.minimum((send_times * self.inv_step).astype(np.int64), len(snrs) - 1)
        attempts = self.max_attempts if self.ran_retx else 1
        ok = draws >= np.asarray(self.loss_prob)[np.asarray(self.modes)[idx]] ** attempts
        ok[snrs[idx] < self.outage_threshold_db] = False
        return ok

    # -- data path -----------------------------------------------------

    def transmit(self, size_bytes: int, now: float) -> TxOutcome:
        """Push one packet through the FIFO.

        The channel state is the trajectory's at the send start. Loss is
        sampled per attempt; with RAN retransmissions off a single attempt
        is made. Each repeat adds retx_delay_s to the delivery time but
        does not re-occupy the FIFO (the recovery round trip is
        abstracted, not re-serialized). In outage the packet is dropped
        without consuming airtime.
        """
        send_start = now if now > self.busy_until else self.busy_until
        snrs = self.snrs_db
        i = int(send_start * self.inv_step)
        if i >= len(snrs):
            i = len(snrs) - 1
        snr = snrs[i]
        if snr < self.outage_threshold_db:
            return TxOutcome(False, 0.0, 0, now)
        rate = self.efficiency * self.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr / 10.0))
        serialization = size_bytes * 8.0 / rate
        self.busy_until = send_start + serialization
        attempts_allowed = self.max_attempts if self.ran_retx else 1
        p = self.loss_prob[self.modes[i]]
        attempts = 0
        rng = self.rng
        while attempts < attempts_allowed:
            attempts += 1
            if p == 0.0 or rng.random() >= p:
                deliver_at = (
                    send_start
                    + serialization
                    + self.base_delay_s
                    + (attempts - 1) * self.retx_delay_s
                )
                return TxOutcome(True, deliver_at, attempts, send_start)
        return TxOutcome(False, 0.0, attempts, send_start)
