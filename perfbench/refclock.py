"""Host time at a fixed reference speed.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent over seconds to minutes, as neighbours come and go.  An op's raw
host time therefore says as much about the neighbours as about mcnc.  A
fixed pure-Python kernel, which no change to mcnc can touch, is timed
between ops; it slows and speeds up with the host, and mcnc's
interpreter-bound ops track it closely.  Each op's time is scaled by
``REF_NOMINAL_S`` over the mean of the reference times on either side of
it, which reads as host seconds on the host at its nominal speed.  An op
during which the host changed speed is timed again (see
:class:`RefClock`).  Raw times are kept next to the scaled ones in the
report.

Each op is also timed together with a full collection of the cyclic
garbage it leaves (the heap built during set-up is frozen first), so a
collection is charged to the op that made the garbage, not to whichever
later op happened to cross a collector threshold.
"""

from __future__ import annotations

import gc
import heapq
import time

#: reference kernel time on the baseline host at its nominal speed
REF_NOMINAL_S = 0.010
#: references either side of an op further apart than this share mean the
#: host changed speed during the op (its two speeds differ by about 2x)
MAX_DRIFT = 0.25
#: extra timings allowed for such an op in an untraced run
RETRIES = 2


def _kernel() -> float:
    table = {}
    heap = []
    acc = 0.0
    for i in range(30_000):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5 if i & 1 else key * 1.5
        if not i & 7:
            heapq.heappush(heap, (acc % 97.0, i))
    while heap:
        acc -= heapq.heappop(heap)[0]
    return acc


def reference_s() -> float:
    """Host seconds of one pass of the reference kernel, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Times a sequence of ops, with one reference between ops.

    The host can change speed in the middle of an op, and then the
    references on either side of it disagree and the scaled time is off.
    Such an op is timed again, up to ``retries`` times, and the last
    timing counts; each op must therefore give the same result every time
    it runs.
    """

    def __init__(self, retries: int = 0):
        self.retries = retries
        self.factors = []
        self.retried = 0
        self._last = None

    def measure(self, fn, *args, **kwargs):
        """(result, raw host seconds, scaled host seconds) of ``fn`` plus
        the collection of the garbage it left."""
        if self._last is None:
            self._last = reference_s()
        for attempt in range(self.retries + 1):
            before = self._last
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            gc.collect()
            raw = time.perf_counter() - t0
            self._last = reference_s()
            if abs(self._last - before) <= MAX_DRIFT * min(self._last, before):
                break
            if attempt < self.retries:
                self.retried += 1
        factor = 2.0 * REF_NOMINAL_S / (before + self._last)
        self.factors.append(factor)
        return result, raw, raw * factor
