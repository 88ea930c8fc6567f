"""In-memory spans around the layer entry points of mcnc.

The tracer patches attributes (class methods such as
``LinkModel.transmit`` and the names a module imported into its own
namespace, such as ``mcnc.sim.engine.handle_feedback``) with a timing
wrapper, and :meth:`Tracer.restore` puts the originals back.  Nothing
under ``src/`` changes.

Two kinds of span:

- A *recorded* span (engine runs, fan-out calls, result emission, one
  codec generation) keeps name, start, end, parent id and self time.
- An *aggregated* span is for entry points called 10^5 to 10^6 times per
  engine run (transmit, packet counting, path selection, ...).  Keeping
  each of those would cost more memory than the run itself, so each call
  adds to a (count, total, self) triple under its name in the innermost
  open recorded span.  An aggregated span nested in another aggregated
  span (a coefficient draw inside ``next_packet``) is folded into the same
  recorded span when the outer one closes.

Self time is a span's duration minus the part covered by wrapped calls
inside it.  Spans stay in memory until :meth:`Tracer.drain` hands them
over, and :func:`dump` writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def _merge(into: Dict[str, list], other: Dict[str, list]) -> None:
    for name, (count, total, self_t) in other.items():
        agg = into.get(name)
        if agg is None:
            into[name] = [count, total, self_t]
        else:
            agg[0] += count
            agg[1] += total
            agg[2] += self_t


class Tracer:
    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: List[dict] = []
        # frame: [time covered by wrapped children, child aggregates, span id]
        self._stack: List[list] = [[0.0, None, 0]]
        self._next_id = 1
        self._patches: list = []
        self.missing: List[str] = []

    # ------------------------------------------------------------ spans

    def _open(self) -> list:
        frame = [0.0, None, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        d = t1 - t0
        stack[-1][0] += d
        parent = next(f[2] for f in reversed(stack) if f[2] is not None)
        self.spans.append({
            "id": frame[2],
            "name": name,
            "start": t0 - self.epoch,
            "end": t1 - self.epoch,
            "parent": parent,
            "self_s": d - frame[0],
            "children": frame[1] or {},
        })

    @contextmanager
    def span(self, name: str):
        """A recorded span around the benchmark's own code."""
        frame = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, t0, time.perf_counter())

    def _wrap(self, fn: Callable, name: str, record: bool,
              observe: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if record:
                frame = self._open()
            else:
                frame = [0.0, None, None]
                stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if record:
                    self._close(frame, name, t0, t1)
                else:
                    stack.pop()
                    d = t1 - t0
                    parent = stack[-1]
                    parent[0] += d
                    kids = parent[1]
                    if kids is None:
                        kids = parent[1] = {}
                    agg = kids.get(name)
                    if agg is None:
                        kids[name] = [1, d, d - frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += d
                        agg[2] += d - frame[0]
                    if frame[1]:
                        _merge(kids, frame[1])
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str, record: bool = False,
              observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``observe(args, result)`` runs after the timed interval, so what it
        costs lands in the caller's self time, not the wrapped call's.
        """
        try:
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            # the entry point is gone; its layer metrics read zero calls
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, record, observe))
        else:
            wrapped = self._wrap(original, name, record, observe)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- results

    def drain(self) -> List[dict]:
        """Return the recorded spans, plus a root span for aggregates
        outside any recorded span, and start afresh."""
        root = self._stack[0]
        spans = self.spans
        if root[1]:
            spans.append({"id": 0, "name": "root", "start": 0.0,
                          "end": time.perf_counter() - self.epoch,
                          "parent": None, "self_s": 0.0, "children": root[1]})
        self.spans = []
        self._stack[:] = [[0.0, None, 0]]
        return spans


def totals(spans: List[dict], under: Optional[str] = None) -> Dict[str, list]:
    """(count, total, self) per aggregated name, over recorded spans named
    ``under`` (every span when None)."""
    out: Dict[str, list] = {}
    for s in spans:
        if under is None or s["name"] == under:
            _merge(out, s["children"])
    return out


def dump(path: str, phases: Dict[str, List[dict]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(phases, fh)
        fh.write("\n")
