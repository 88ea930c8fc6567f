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

from ..sim.config import SimConfig
from .structure import GOP_SIZE, temporal_layer_of
from .trace import LAYER_SIZE_FACTORS, PSNR_CAP, FrameRecord, NaluRecord, VideoTrace, dumps


def synthesize_trace(
    frames: int,
    fps: float = 50.0,
    seed: int = SimConfig.trace_seed,
    base_bytes: int = SimConfig.base_nalu_bytes,
    enh_bytes: int = SimConfig.enh_nalu_bytes,
    jitter: float = SimConfig.size_jitter,
    psnr_lost: float = SimConfig.psnr_lost_db,
    spatial_layers: int = SimConfig.spatial_layers,
) -> VideoTrace:
    """Build a trace of ``frames`` frames, rounded up to whole GOPs. The
    defaults are a default run's, so ``synthesize_trace(n)`` is the trace
    that run synthesizes.

    A trace carries no timing, so ``fps`` is accepted and unused: the
    session's frame rate places the frames.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    if spatial_layers not in (1, 2):
        raise ValueError("spatial_layers must be 1 or 2")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    if base_bytes < 1 or enh_bytes < 1:
        raise ValueError("base_bytes and enh_bytes must be at least 1")
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
                psnr_received=PSNR_CAP,
                psnr_lost=psnr_lost,
            )
        )
        for slayer, mean in enumerate((base_bytes, enh_bytes)[:spatial_layers]):
            size = max(1, round(mean * factor * rng.uniform(1.0 - jitter, 1.0 + jitter)))
            nalus.append(NaluRecord(nalu_id, frame_id, slayer, size))
            nalu_id += 1
    return VideoTrace(frame_records, nalus)


def main(argv=None) -> int:
    defaults = SimConfig()  # the trace a default run synthesizes
    parser = argparse.ArgumentParser(
        prog="tracegen", description="Generate a synthetic scalable-video trace."
    )
    parser.add_argument("--frames", type=int, required=True, help="frame count (rounded up to whole GOPs)")
    parser.add_argument("--seed", type=int, default=defaults.trace_seed)
    parser.add_argument("--base-bytes", type=int, default=defaults.base_nalu_bytes,
                        help="mean base-layer NALU size")
    parser.add_argument("--enh-bytes", type=int, default=defaults.enh_nalu_bytes,
                        help="mean enhancement NALU size")
    parser.add_argument("--jitter", type=float, default=defaults.size_jitter,
                        help="uniform size jitter fraction")
    parser.add_argument("--psnr-lost", type=float, default=defaults.psnr_lost_db,
                        help="concealment PSNR for lost frames")
    parser.add_argument("--spatial-layers", type=int, default=defaults.spatial_layers,
                        choices=(1, 2))
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args(argv)

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
        f"frames={trace.n_frames} gop={GOP_SIZE} seed={args.seed}\n"
        f"base_bytes={args.base_bytes} enh_bytes={args.enh_bytes} jitter={args.jitter:g}"
    )
    text = dumps(trace, header)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"tracegen: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 3
        print(f"wrote {trace.n_frames} frames / {len(trace.nalus)} NALUs to {args.out}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
