"""Receiver-side display clock for hard-deadline playout.

Frame i is displayed at ``start_time + i / fps``; a frame not on hand by
then is skipped for good, there is no rebuffering. The engine's in-order
consumer decides admissions and losses against these deadlines.
"""

from __future__ import annotations


class PlayoutBuffer:
    __slots__ = ("start_time", "fps")

    def __init__(self, start_time: float, fps: float):
        self.start_time = start_time
        self.fps = fps

    def deadline(self, frame_idx: int) -> float:
        return self.start_time + frame_idx / self.fps
