"""Receiver-side playout with a bounded frame buffer and hard deadlines.

Playout is paced by the display clock: frame i must be on hand at
``start_time + i / fps``. A frame that is complete, decodable and in order
is admitted to the buffer when the receiver consumes it; at its deadline it
is either played (if admitted in time) or skipped for good. Skipped frames
are losses, there is no rebuffering. The buffer never holds more than
``capacity`` admitted-but-undisplayed frames; the admission clock sits one
buffer depth behind the display clock, so a well-behaved feed rides just
under the cap.
"""

from __future__ import annotations


class PlayoutBuffer:
    __slots__ = ("start_time", "fps", "capacity", "_pending", "_next_display",
                 "_last_admitted")

    def __init__(self, start_time: float, fps: float = 50.0, capacity: int = 25):
        self.start_time = start_time
        self.fps = fps
        self.capacity = capacity
        self._pending = set()  # admitted, not yet displayed
        self._next_display = 0
        self._last_admitted = -1

    def deadline(self, frame_idx: int) -> float:
        return self.start_time + frame_idx / self.fps

    @property
    def occupancy(self) -> int:
        return len(self._pending)

    def admit(self, frame_idx: int, t: float) -> None:
        """Hand a consumed frame to the buffer. Display order, pre-deadline."""
        if frame_idx <= self._last_admitted or frame_idx < self._next_display:
            raise ValueError(f"admission out of display order: frame {frame_idx}")
        if t > self.deadline(frame_idx):
            raise ValueError(f"frame {frame_idx} admitted past its deadline")
        if len(self._pending) >= self.capacity:
            raise OverflowError(f"playout buffer full ({self.capacity} frames)")
        self._pending.add(frame_idx)
        self._last_admitted = frame_idx

    def step(self, now: float) -> None:
        """Advance the display clock past every due frame, freeing its slot."""
        while self.deadline(self._next_display) <= now:
            self._pending.discard(self._next_display)
            self._next_display += 1
