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
the autoregression runs as one pass over Python floats that restarts at
each sojourn. Sampling the sojourn directly is the continuous-time form
of stepping the chain with per-step flip probability 1 - exp(-dt/sojourn).
Each transmission looks the state up at its own send start, on the step
``steps`` gives; a link never presampled holds its initial state at every
time.

A link reads every parameter from the run's ``SimConfig``: the shared
channel fields, and the ``mmwave_*`` or the ``lte_*`` ones by its kind.
The LTE link reuses the same machinery in degenerate form: transition
rates zero, no shadowing, a fixed SNR, one loss probability in both
modes, and an even share of the cell bandwidth per receiver. It is in
outage throughout when that SNR lies below its threshold, and never
otherwise.

Receiver reports are too small to queue behind data: ``control_survival``
decides each one's fate from the state at its send time, by the same
outage rule and retry ladder.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sim.config import SimConfig

MMWAVE = "mmwave"
LTE = "lte"

LOS = 0
NLOS = 1


class TxOutcome(tuple):
    """One packet's fate: the 4-tuple (delivered, deliver_at, attempts,
    send_start), built as ``TxOutcome((...))``.

    It equals and unpacks like that plain tuple, which is how the engine
    reads it; the names serve callers that read one field. With no
    ``__new__`` of its own it is built by tuple's constructor directly,
    at less cost per packet than a ``NamedTuple``.
    """

    __slots__ = ()

    delivered = property(itemgetter(0), doc="whether the packet got through")
    deliver_at = property(itemgetter(1), doc="when it arrived; 0.0 when not delivered")
    attempts = property(itemgetter(2), doc="attempts made; 0 for an outage drop")
    send_start = property(itemgetter(3), doc="when it began to air; now for an outage drop")


class LinkModel:
    """One directed radio link with its own fading trajectory and FIFO.

    ``kind`` picks the ``cfg`` fields it reads, ``initial_mode`` is the mode
    it starts in, and ``rng`` draws its initial shadowing and its losses.
    """

    __slots__ = (
        "kind", "bandwidth_hz", "efficiency", "base_delay_s",
        "sojourn_s", "snr_mean_db", "snr_sigma_db", "shadow_corr_s",
        "loss_prob", "outage_threshold_db", "attempts_allowed",
        "retx_delay_s", "modes", "snrs_db", "inv_step", "busy_until", "rng",
        "_rate_step", "_rate", "_loss",
    )

    def __init__(self, cfg: SimConfig, kind: str, initial_mode: int,
                 rng: random.Random):
        self.kind = kind
        self.efficiency = cfg.efficiency
        self.outage_threshold_db = cfg.outage_threshold_db
        # the retry ladder: ran_max_attempts tries with RAN retransmissions, else one
        self.attempts_allowed = cfg.ran_max_attempts if cfg.ran_retx else 1
        self.retx_delay_s = cfg.ran_retx_delay_s
        if kind == MMWAVE:
            self.bandwidth_hz = cfg.mmwave_bandwidth_hz
            self.base_delay_s = cfg.mmwave_base_delay_s
            self.sojourn_s = (cfg.mmwave_sojourn_los_s, cfg.mmwave_sojourn_nlos_s)
            self.snr_mean_db = (cfg.mmwave_snr_los_db, cfg.mmwave_snr_nlos_db)
            self.snr_sigma_db = cfg.mmwave_snr_sigma_db
            self.shadow_corr_s = cfg.mmwave_shadow_corr_s
            self.loss_prob = (cfg.mmwave_loss_los, cfg.mmwave_loss_nlos)
        else:
            # one state that never changes; the cell rate is shared evenly
            # among receivers by static split
            self.bandwidth_hz = cfg.lte_bandwidth_hz / cfg.n_ues
            self.base_delay_s = cfg.lte_base_delay_s
            self.sojourn_s = (math.inf, math.inf)
            self.snr_mean_db = (cfg.lte_snr_db, cfg.lte_snr_db)
            self.snr_sigma_db = 0.0
            self.shadow_corr_s = 0.0
            self.loss_prob = (cfg.lte_loss, cfg.lte_loss)
        self.rng = rng
        # drawn even where presample replaces it: later loss draws follow it on rng
        snr = self.snr_mean_db[initial_mode]
        if self.snr_sigma_db != 0.0:
            snr = rng.gauss(snr, self.snr_sigma_db)
        # a one-step trajectory (inv_step 0 maps every time onto it)
        self.modes = [initial_mode]
        self.snrs_db = [snr]
        self.inv_step = 0.0
        self.busy_until = 0.0
        # the Shannon rate and the loss probability of the step last
        # transmitted on, and that step
        self._rate_step = -1
        self._rate = 0.0
        self._loss = 0.0

    # -- fading --------------------------------------------------------

    def presample(self, n_steps: int, step_s: float, rng: np.random.Generator) -> None:
        """Replace the trajectory by ``n_steps`` states ``step_s`` apart.

        Starts in the initial mode and draws from ``rng`` the sojourn
        lengths first, then one standard normal per step. Each sojourn
        opens with a fresh shadowing draw; within it the term makes AR(1)
        moves, ``y[i] = innov * x[i] + rho * y[i-1]`` with
        ``rho = exp(-step_s / shadow_corr_s)`` and
        ``innov = sqrt(1 - rho^2)``, which keep the N(mean, sigma^2)
        marginal while correlating successive steps over shadow_corr_s
        (Gudmundson's exponential autocorrelation). A non-positive
        correlation time degenerates to an independent redraw every step.
        Times past the last step read the last state.
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
        modes = mode.tolist()
        corr = self.shadow_corr_s
        if self.snr_sigma_db != 0.0 and corr > 0.0:
            rho = math.exp(-step_s / corr)
            innov = math.sqrt(1.0 - rho * rho)
            ys = []
            y = 0.0
            prev = -1
            for m, xi in zip(modes, x.tolist()):
                if m == prev:
                    y = innov * xi + rho * y
                else:  # a sojourn's first step keeps its fresh draw
                    y = xi
                    prev = m
                ys.append(y)
            x = np.array(ys)
        self.modes = modes
        self.snrs_db = (means + self.snr_sigma_db * x).tolist()
        self.inv_step = 1.0 / step_s
        self._rate_step = -1

    # -- state lookup --------------------------------------------------

    def steps(self, times: np.ndarray) -> np.ndarray:
        """The trajectory step in force at each of ``times``: ``int(t *
        inv_step)``, clamped to the last step.

        The product is a float that truncates, so an instant on a step
        boundary can read the step before it: 0.29 * 100 is
        28.999999999999996, which reads step 28.
        """
        return np.minimum((times * self.inv_step).astype(np.int64), len(self.modes) - 1)

    def snr_at(self, times: np.ndarray) -> np.ndarray:
        """SNR of the trajectory state in force at each of ``times``."""
        return np.asarray(self.snrs_db)[self.steps(times)]

    def control_survival(self, send_times: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        """Which control packets sent at ``send_times`` get through.

        Each packet reads the state at its send time. In outage it is
        lost; otherwise it is lost only if every allowed attempt fails at
        the mode's loss probability. One uniform per packet comes from
        ``rng``.
        """
        draws = rng.random(len(send_times))
        idx = self.steps(send_times)
        loss = np.asarray(self.loss_prob)[np.asarray(self.modes)[idx]]
        ok = draws >= loss ** self.attempts_allowed
        ok[np.asarray(self.snrs_db)[idx] < self.outage_threshold_db] = False
        return ok

    # -- data path -----------------------------------------------------

    def transmit(self, size_bytes: int, now: float) -> TxOutcome:
        """Push one packet through the FIFO.

        The channel state is the trajectory's at the send start. Loss is
        sampled per attempt; with RAN retransmissions off a single attempt
        is made. Each repeat adds retx_delay_s to the delivery time but
        does not re-occupy the FIFO (the recovery round trip is
        abstracted, not re-serialized). In outage the packet is dropped
        without consuming airtime. A first attempt that gets through costs
        one loss draw (none on a lossless state) and returns at once; only
        a lost one enters the retry ladder, which draws once per repeat.

        Returns the packet's ``TxOutcome``: an outage drop is ``(False,
        0.0, 0, now)``, a delivery ``(True, deliver_at, attempts,
        send_start)`` and a packet whose every allowed attempt was lost
        ``(False, 0.0, attempts, send_start)``.
        """
        busy = self.busy_until
        send_start = now if now > busy else busy
        i = int(send_start * self.inv_step)  # the rule steps() defines, inlined per packet
        # a state holds for a whole step, and so do its rate and loss: the
        # cached step is one a packet last went out on, so it is not in outage
        if i == self._rate_step:
            rate = self._rate
            p = self._loss
        else:
            snrs = self.snrs_db
            if i >= len(snrs):
                i = len(snrs) - 1
            snr = snrs[i]
            if snr < self.outage_threshold_db:
                return TxOutcome((False, 0.0, 0, now))
            rate = self.efficiency * self.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr / 10.0))
            p = self.loss_prob[self.modes[i]]
            self._rate_step = i
            self._rate = rate
            self._loss = p
        busy = send_start + size_bytes * 8.0 / rate
        self.busy_until = busy
        if p == 0.0 or self.rng.random() >= p:
            return TxOutcome((True, busy + self.base_delay_s, 1, send_start))
        draw = self.rng.random
        allowed = self.attempts_allowed
        attempts = 1
        while attempts < allowed:
            attempts += 1
            if draw() >= p:
                deliver_at = busy + self.base_delay_s + (attempts - 1) * self.retx_delay_s
                return TxOutcome((True, deliver_at, attempts, send_start))
        return TxOutcome((False, 0.0, attempts, send_start))
