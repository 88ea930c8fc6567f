"""Video trace records, text format, and validation.

Trace files are line oriented. ``#`` starts a comment, blank lines are
skipped, and the two record kinds are

    F,frame_id,gop_index,tlayer,slayer,psnr_recv,psnr_lost
    N,nalu_id,frame_id,slayer,size_bytes

One F line per displayed frame (slayer is the highest spatial layer the
frame carries), one N line per NALU. PSNR values are the per-frame
reconstruction quality when the frame is played versus concealed, capped
at 99.99 dB by convention for a bit-exact reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .structure import GOP_SIZE, LAYER_POPULATIONS, temporal_layer_of

#: PSNR of a bit-exact reconstruction, in dB, used in place of infinity
PSNR_CAP = 99.99

#: Relative NALU size per temporal layer of a synthetic trace; key frames
#: dominate.
LAYER_SIZE_FACTORS = (2.5, 1.4, 1.1, 0.9, 0.7)


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvariantViolation(ValueError):
    def __init__(self, record, rule: str):
        super().__init__(f"{record}: {rule}")
        self.record = record
        self.rule = rule


@dataclass(slots=True)
class FrameRecord:
    frame_id: int
    gop_index: int
    temporal_layer: int
    spatial_layer: int
    psnr_received: float
    psnr_lost: float
    nalu_ids: List[int] = field(default_factory=list)
    nalu_layers: List[int] = field(default_factory=list)


@dataclass(slots=True)
class NaluRecord:
    nalu_id: int
    frame_id: int
    spatial_layer: int
    size_bytes: int


class VideoTrace:
    """Validated, ordered view of a trace."""

    def __init__(self, frames: List[FrameRecord], nalus: List[NaluRecord]):
        self.frames = sorted(frames, key=lambda f: f.frame_id)
        self.nalus = sorted(nalus, key=lambda n: n.nalu_id)
        self.frames_by_id: Dict[int, FrameRecord] = {f.frame_id: f for f in self.frames}
        self.nalus_by_id: Dict[int, NaluRecord] = {n.nalu_id: n for n in self.nalus}
        _validate(self)

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def _validate(trace: VideoTrace) -> None:
    if len(trace.frames_by_id) != len(trace.frames):
        raise InvariantViolation(trace.frames, "duplicate frame_id")
    if len(trace.nalus_by_id) != len(trace.nalus):
        raise InvariantViolation(trace.nalus, "duplicate nalu_id")
    n = len(trace.frames)
    if n == 0:
        raise InvariantViolation(trace, "empty trace")
    if n % GOP_SIZE:
        raise InvariantViolation(trace, f"frame count {n} is not a whole number of GOPs")
    for f in trace.frames:
        if not 0 <= f.frame_id < n:
            raise InvariantViolation(f, "frame ids must be contiguous from 0")
        if f.gop_index != f.frame_id % GOP_SIZE:
            raise InvariantViolation(f, "gop_index inconsistent with frame_id")
        if f.temporal_layer != temporal_layer_of(f.gop_index):
            raise InvariantViolation(f, "temporal layer breaks the dyadic rule")
        if f.spatial_layer not in (0, 1):
            raise InvariantViolation(f, "spatial_layer must be 0 or 1")
        for value in (f.psnr_received, f.psnr_lost):
            if not 0.0 <= value <= PSNR_CAP:
                raise InvariantViolation(f, f"psnr {value} outside [0, {PSNR_CAP}]")
        if f.psnr_received < f.psnr_lost:
            raise InvariantViolation(f, "psnr_received below psnr_lost")
    # Layer populations per GOP follow from the checks above, but the rule
    # is cheap and load-bearing, so assert it directly as well.
    for start in range(0, n, GOP_SIZE):
        pops = [0] * 5
        for f in trace.frames[start : start + GOP_SIZE]:
            pops[f.temporal_layer] += 1
        if tuple(pops) != LAYER_POPULATIONS:
            raise InvariantViolation(
                trace.frames[start], f"GOP layer populations {pops} != {LAYER_POPULATIONS}"
            )
    for nalu in trace.nalus:
        if nalu.size_bytes < 1:
            raise InvariantViolation(nalu, "NALU size must be at least one byte")
        if nalu.spatial_layer not in (0, 1):
            raise InvariantViolation(nalu, "spatial_layer must be 0 or 1")
        frame = trace.frames_by_id.get(nalu.frame_id)
        if frame is None:
            raise InvariantViolation(nalu, "NALU references a missing frame")
        if nalu.spatial_layer > frame.spatial_layer:
            raise InvariantViolation(nalu, "NALU above its frame's spatial layer")
    # Attach per-frame NALU lists in id order and require a base layer.
    for f in trace.frames:
        f.nalu_ids = []
        f.nalu_layers = []
    for nalu in trace.nalus:
        frame = trace.frames_by_id[nalu.frame_id]
        frame.nalu_ids.append(nalu.nalu_id)
        frame.nalu_layers.append(nalu.spatial_layer)
    for f in trace.frames:
        if 0 not in f.nalu_layers:
            raise InvariantViolation(f, "frame has no base-layer NALU")


def loads(text: str) -> VideoTrace:
    frames: List[FrameRecord] = []
    nalus: List[NaluRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        kind = fields[0]
        try:
            if kind == "F":
                if len(fields) != 7:
                    raise ValueError(f"expected 7 fields, got {len(fields)}")
                frames.append(
                    FrameRecord(
                        frame_id=int(fields[1]),
                        gop_index=int(fields[2]),
                        temporal_layer=int(fields[3]),
                        spatial_layer=int(fields[4]),
                        psnr_received=float(fields[5]),
                        psnr_lost=float(fields[6]),
                    )
                )
            elif kind == "N":
                if len(fields) != 5:
                    raise ValueError(f"expected 5 fields, got {len(fields)}")
                nalus.append(
                    NaluRecord(
                        nalu_id=int(fields[1]),
                        frame_id=int(fields[2]),
                        spatial_layer=int(fields[3]),
                        size_bytes=int(fields[4]),
                    )
                )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except InvariantViolation:
            raise
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return VideoTrace(frames, nalus)


def load_trace(path) -> VideoTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(trace: VideoTrace, header: str = "") -> str:
    lines = []
    if header:
        for row in header.splitlines():
            lines.append(f"# {row}")
    for f in trace.frames:
        lines.append(
            f"F,{f.frame_id},{f.gop_index},{f.temporal_layer},{f.spatial_layer},"
            f"{f.psnr_received:.2f},{f.psnr_lost:.2f}"
        )
    for n in trace.nalus:
        lines.append(f"N,{n.nalu_id},{n.frame_id},{n.spatial_layer},{n.size_bytes}")
    return "\n".join(lines) + "\n"


def save_trace(trace: VideoTrace, path, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(trace, header))
