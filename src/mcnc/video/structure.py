"""Hierarchical GOP structure, packetization and decodability.

Frames form 16-frame groups with five dyadic temporal layers. Within a
group, position 0 is the key frame (layer 0), position 8 sits on layer 1,
positions 4 and 12 on layer 2, the remaining even positions on layer 3 and
the odd positions on layer 4, which gives layer populations (1, 1, 2, 4, 8).

A non-key frame bisects the interval between its two reference frames, so
its parents are frame_id +/- lowest_set_bit(gop_index); both sit on strictly
lower temporal layers, and the right parent of position 8..15 is the next
group's key frame. A frame is decodable only if all of its base spatial
layer NALUs arrived and every parent inside the stream is decodable, so
it becomes decodable at its ready instant: the latest base-layer arrival
over itself and every frame it references, directly or not.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

GOP_SIZE = 16
N_TEMPORAL_LAYERS = 5
LAYER_POPULATIONS = (1, 1, 2, 4, 8)

#: (position, distance to both parents) for every non-key GOP position,
#: each after its parents: by temporal layer, then left to right
_VISIT = tuple((pos, pos & -pos) for pos in (8, 4, 12, 2, 6, 10, 14,
                                              1, 3, 5, 7, 9, 11, 13, 15))


class OutOfRangeError(ValueError):
    """Raised for a GOP position outside [0, GOP_SIZE)."""


def temporal_layer_of(gop_index: int) -> int:
    if not 0 <= gop_index < GOP_SIZE:
        raise OutOfRangeError(f"gop_index {gop_index} outside [0, {GOP_SIZE})")
    if gop_index == 0:
        return 0
    low = gop_index & -gop_index
    return 4 - low.bit_length() + 1


def dyadic_parents(frame_id: int, n_frames: int | None = None) -> Tuple[int, ...]:
    """Reference frames of a frame, by absolute id.

    Key frames have none. For the rest the parents bracket the frame at
    distance lowest_set_bit(position); a right parent beyond the end of the
    stream is dropped.
    """
    pos = frame_id % GOP_SIZE
    if pos == 0:
        return ()
    step = pos & -pos
    parents = [frame_id - step]
    right = frame_id + step
    if n_frames is None or right < n_frames:
        parents.append(right)
    return tuple(parents)


def packetize(size_bytes: int, packet_bytes: int) -> List[int]:
    """Packet sizes for one NALU; the tail packet carries the remainder."""
    if size_bytes < 1:
        raise ValueError("NALU size must be at least one byte")
    if packet_bytes < 1:
        raise ValueError("packet size must be at least one byte")
    full, tail = divmod(size_bytes, packet_bytes)
    sizes = [packet_bytes] * full
    if tail:
        sizes.append(tail)
    return sizes


def ready_times(base_times: Sequence[float]) -> List[float]:
    """``ready[f]``: the latest of ``base_times`` over frame f and every
    frame it references, directly or not, in a stream of
    ``len(base_times)`` frames.

    ``base_times[f]`` is when frame f's base spatial layer arrived (``inf``
    if it never did), so frame f is decodable at instant D exactly when
    ``ready[f] < D``. One pass per GOP: a key frame has no parents, and
    every other position is visited after both of its parents.
    """
    ready = list(base_times)
    n = len(ready)
    for start in range(0, n, GOP_SIZE):
        for pos, step in _VISIT:
            f = start + pos
            if f >= n:
                continue
            r = ready[f]
            left = ready[f - step]
            if left > r:
                r = left
            right = f + step
            if right < n and ready[right] > r:
                r = ready[right]
            ready[f] = r
    return ready


def compute_decodable(frames: Sequence, delivered_nalus: Set[int]) -> Set[int]:
    """The decodable frames of a whole stream, given the NALUs delivered.

    ``frames`` are the stream's frames, ids 0 to ``len(frames) - 1``;
    enhancement-layer NALUs do not gate decodability.
    """
    base_times = [math.inf] * len(frames)
    for frame in frames:
        if all(nalu_id in delivered_nalus
               for nalu_id, slayer in zip(frame.nalu_ids, frame.nalu_layers)
               if slayer == 0):
            base_times[frame.frame_id] = 0.0
    ready = ready_times(base_times)
    return {f for f, r in enumerate(ready) if r < math.inf}
