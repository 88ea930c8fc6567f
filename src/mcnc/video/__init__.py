from .structure import (
    GOP_SIZE,
    LAYER_POPULATIONS,
    N_TEMPORAL_LAYERS,
    dyadic_parents,
    packetize,
    ready_times,
    temporal_layer_of,
)
from .trace import (
    FrameRecord,
    InvariantViolation,
    NaluRecord,
    ParseError,
    VideoTrace,
    load_trace,
    loads,
    dumps,
    save_trace,
)
from .playout import PlayoutBuffer
from .tracegen import synthesize_trace

__all__ = [
    "GOP_SIZE",
    "LAYER_POPULATIONS",
    "N_TEMPORAL_LAYERS",
    "dyadic_parents",
    "packetize",
    "ready_times",
    "temporal_layer_of",
    "FrameRecord",
    "NaluRecord",
    "VideoTrace",
    "ParseError",
    "InvariantViolation",
    "load_trace",
    "loads",
    "dumps",
    "save_trace",
    "PlayoutBuffer",
    "synthesize_trace",
]
