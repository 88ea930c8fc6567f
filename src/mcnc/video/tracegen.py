"""Synthetic scalable-video trace generator.

Emits one base-layer NALU (720p) and optionally one enhancement NALU
(1080p) per frame. Sizes follow the temporal hierarchy: key frames are a
few times larger than top-layer frames, with a seeded uniform jitter on
top, so the byte stream has realistic frame-to-frame structure while
remaining exactly reproducible for a given argument tuple.
"""

from __future__ import annotations

import argparse
import random
import sys

from .structure import GOP_SIZE, temporal_layer_of
from .trace import PSNR_CAP, FrameRecord, NaluRecord, VideoTrace, dumps

#: Relative NALU size per temporal layer; key frames dominate.
LAYER_SIZE_FACTORS = (2.5, 1.4, 1.1, 0.9, 0.7)


def synthesize_trace(
    frames: int,
    fps: float = 50.0,
    seed: int = 0,
    base_bytes: int = 2000,
    enh_bytes: int = 2000,
    jitter: float = 0.3,
    psnr_received: float = PSNR_CAP,
    psnr_lost: float = 12.0,
    spatial_layers: int = 2,
) -> VideoTrace:
    """Build a trace of ``frames`` frames, rounded up to whole GOPs.

    A trace carries no timing, so ``fps`` is accepted and unused: the
    session's frame rate places the frames.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    if spatial_layers not in (1, 2):
        raise ValueError("spatial_layers must be 1 or 2")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    n = -(-frames // GOP_SIZE) * GOP_SIZE
    rng = random.Random(seed)
    frame_records = []
    nalus = []
    nalu_id = 0
    for frame_id in range(n):
        gop_index = frame_id % GOP_SIZE
        tlayer = temporal_layer_of(gop_index)
        factor = LAYER_SIZE_FACTORS[tlayer]
        frame_records.append(
            FrameRecord(
                frame_id=frame_id,
                gop_index=gop_index,
                temporal_layer=tlayer,
                spatial_layer=spatial_layers - 1,
                psnr_received=psnr_received,
                psnr_lost=psnr_lost,
            )
        )
        for slayer, mean in enumerate((base_bytes, enh_bytes)[:spatial_layers]):
            size = max(1, round(mean * factor * rng.uniform(1.0 - jitter, 1.0 + jitter)))
            nalus.append(NaluRecord(nalu_id, frame_id, slayer, size))
            nalu_id += 1
    return VideoTrace(frame_records, nalus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracegen", description="Generate a synthetic scalable-video trace."
    )
    parser.add_argument("--frames", type=int, required=True, help="frame count (rounded up to whole GOPs)")
    parser.add_argument("--gop", type=int, default=GOP_SIZE, help="GOP length; only 16 is supported")
    parser.add_argument("--fps", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base-bytes", type=int, default=2000, help="mean base-layer NALU size")
    parser.add_argument("--enh-bytes", type=int, default=2000, help="mean enhancement NALU size")
    parser.add_argument("--jitter", type=float, default=0.3, help="uniform size jitter fraction")
    parser.add_argument("--psnr-lost", type=float, default=12.0, help="concealment PSNR for lost frames")
    parser.add_argument("--spatial-layers", type=int, default=2, choices=(1, 2))
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args(argv)

    if args.gop != GOP_SIZE:
        parser.error(f"unsupported GOP length {args.gop}; the dyadic hierarchy needs {GOP_SIZE}")
    try:
        trace = synthesize_trace(
            frames=args.frames,
            seed=args.seed,
            base_bytes=args.base_bytes,
            enh_bytes=args.enh_bytes,
            jitter=args.jitter,
            psnr_lost=args.psnr_lost,
            spatial_layers=args.spatial_layers,
        )
    except ValueError as exc:
        parser.error(str(exc))
    header = (
        f"synthetic video trace\n"
        f"frames={trace.n_frames} fps={args.fps:g} gop={GOP_SIZE} seed={args.seed}\n"
        f"base_bytes={args.base_bytes} enh_bytes={args.enh_bytes} jitter={args.jitter:g}"
    )
    text = dumps(trace, header)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {trace.n_frames} frames / {len(trace.nalus)} NALUs to {args.out}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
