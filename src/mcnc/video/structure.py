"""Hierarchical GOP structure, packetization and decodability.

Frames form 16-frame groups with five dyadic temporal layers. Within a
group, position 0 is the key frame (layer 0), position 8 sits on layer 1,
positions 4 and 12 on layer 2, the remaining even positions on layer 3 and
the odd positions on layer 4, which gives layer populations (1, 1, 2, 4, 8).

A non-key frame bisects the interval between its two reference frames, so
its parents are frame_id +/- lowest_set_bit(gop_index); both sit on strictly
lower temporal layers, and the right parent of position 8..15 is the next
group's key frame. A frame is decodable only if all of its base spatial
layer NALUs arrived and every parent inside the stream is decodable.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Set, Tuple

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


def decodable(
    frame_id: int,
    n_frames: int,
    base_arrived: Callable[[int], bool],
    memo: Set[int],
) -> bool:
    """Whether a frame can be reconstructed: ``base_arrived(frame_id)``
    holds and every parent inside the stream is decodable.

    ``base_arrived`` says whether all of a frame's base spatial layer NALUs
    arrived; enhancement-layer NALUs do not gate decodability. ``memo``
    caches the frames found decodable, so reuse it across calls only while
    ``base_arrived`` never turns back to false.
    """
    if frame_id in memo:
        return True
    if not base_arrived(frame_id):
        return False
    for parent in dyadic_parents(frame_id, n_frames):
        if not decodable(parent, n_frames, base_arrived, memo):
            return False
    memo.add(frame_id)
    return True


def compute_decodable(frames: Sequence, delivered_nalus: Set[int]) -> Set[int]:
    """Decodable closure over a whole stream."""
    by_id = {frame.frame_id: frame for frame in frames}

    def base_arrived(frame_id: int) -> bool:
        frame = by_id.get(frame_id)
        return frame is not None and all(
            nalu_id in delivered_nalus
            for nalu_id, slayer in zip(frame.nalu_ids, frame.nalu_layers)
            if slayer == 0)

    memo: Set[int] = set()
    n_frames = len(frames)
    return {f.frame_id for f in frames if decodable(f.frame_id, n_frames, base_arrived, memo)}
