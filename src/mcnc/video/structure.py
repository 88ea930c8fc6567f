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
over itself and every frame it references, directly or not. Since every
parent sits on a lower layer, ``ready_times`` settles the ready instants
one temporal layer at a time, each layer in one array pass over all GOPs.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

GOP_SIZE = 16
N_TEMPORAL_LAYERS = 5
LAYER_POPULATIONS = (1, 1, 2, 4, 8)


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


def ready_times(base_times: np.ndarray) -> np.ndarray:
    """``ready[f]``: the latest of ``base_times`` over frame f and every
    frame it references, directly or not, in a stream of
    ``len(base_times)`` frames.

    ``base_times[f]`` is when frame f's base spatial layer arrived (``inf``
    if it never did), so frame f is decodable at instant D exactly when
    ``ready[f] < D``. The frames are laid out one GOP per row, with the
    next GOP's key frame as a 17th column; frames past the end of the
    stream read -inf, which no maximum picks. Layer by layer, the
    positions ``step::2 * step`` (``step = GOP_SIZE >> layer``) then take
    the maximum of themselves and of the positions ``step`` to their left
    and right, their parents, whose ready instants are already final.
    """
    n = len(base_times)
    grid = np.full((-(-n // GOP_SIZE), GOP_SIZE + 1), -math.inf)
    grid[:, :GOP_SIZE].flat[:n] = base_times
    grid[:-1, GOP_SIZE] = grid[1:, 0]
    for layer in range(1, N_TEMPORAL_LAYERS):
        step = GOP_SIZE >> layer
        mid = grid[:, step::2 * step]
        np.maximum(mid, grid[:, :-step:2 * step], out=mid)
        np.maximum(mid, grid[:, 2 * step::2 * step], out=mid)
    return grid[:, :GOP_SIZE].ravel()[:n]
