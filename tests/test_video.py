"""Video layer: GOP structure, trace format, display clock, synthesis."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcnc.sim import engine
from mcnc.sim.config import SimConfig
from mcnc.video.playout import PlayoutBuffer
from mcnc.video.structure import (
    GOP_SIZE,
    LAYER_POPULATIONS,
    OutOfRangeError,
    dyadic_parents,
    packetize,
    ready_times,
    temporal_layer_of,
)
from mcnc.video.trace import (
    InvariantViolation,
    ParseError,
    dumps,
    loads,
    load_trace,
    save_trace,
)
from mcnc.video.tracegen import main as tracegen_main, synthesize_trace


# -- temporal hierarchy --------------------------------------------------


def test_temporal_layer_table():
    expected = [0, 4, 3, 4, 2, 4, 3, 4, 1, 4, 3, 4, 2, 4, 3, 4]
    assert [temporal_layer_of(i) for i in range(GOP_SIZE)] == expected
    pops = [0] * 5
    for layer in expected:
        pops[layer] += 1
    assert tuple(pops) == LAYER_POPULATIONS


def test_temporal_layer_range_checked():
    with pytest.raises(OutOfRangeError):
        temporal_layer_of(-1)
    with pytest.raises(OutOfRangeError):
        temporal_layer_of(16)


def test_dyadic_parents():
    assert dyadic_parents(0) == ()
    assert dyadic_parents(16) == ()
    assert dyadic_parents(8) == (0, 16)
    assert dyadic_parents(4) == (0, 8)
    assert dyadic_parents(12) == (8, 16)
    assert dyadic_parents(5) == (4, 6)
    assert dyadic_parents(24) == (16, 32)
    # right parent beyond the stream end is dropped
    assert dyadic_parents(24, n_frames=32) == (16,)


def test_parents_sit_on_lower_layers():
    for fid in range(1, 64):
        for parent in dyadic_parents(fid):
            assert temporal_layer_of(parent % GOP_SIZE) < temporal_layer_of(fid % GOP_SIZE)


# -- packetization -------------------------------------------------------


def test_packetize_examples():
    assert packetize(2500, 1000) == [1000, 1000, 500]
    assert packetize(1000, 1000) == [1000]
    assert packetize(1, 1000) == [1]
    with pytest.raises(ValueError):
        packetize(0, 1000)
    with pytest.raises(ValueError):
        packetize(10, 0)


def test_packetize_round_trip_random():
    rng = random.Random(71)
    for _ in range(2000):
        size = rng.randrange(1, 20_000)
        unit = rng.randrange(1, 3000)
        sizes = packetize(size, unit)
        assert sum(sizes) == size
        assert all(0 < s <= unit for s in sizes)
        assert all(s == unit for s in sizes[:-1])


# -- decodability --------------------------------------------------------


def _walked_ready_times(base_times):
    """For each frame, walk its whole reference set and take the latest
    base time over it."""
    n = len(base_times)
    ready = []
    for f in range(n):
        seen, todo = {f}, [f]
        while todo:
            for parent in dyadic_parents(todo.pop(), n):
                if parent not in seen:
                    seen.add(parent)
                    todo.append(parent)
        ready.append(max(base_times[j] for j in seen))
    return ready


# few distinct values, so ties between a frame and its parents are common
_BASE_TIMES = st.one_of(st.integers(0, 4).map(float), st.just(math.inf),
                        st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_BASE_TIMES, max_size=70))
@example([math.inf] + [0.0] * 16)  # a lost key frame, and one frame past the GOP
@example([0.0] * 16 + [math.inf] + [0.0] * 14)  # the next key frame lost, GOP cut short
@example([0.0] * 7 + [math.inf] + [0.0] * 25)  # a lost top-layer frame
def test_ready_times_match_a_walk_over_each_reference_set(base_times):
    ready = ready_times(np.array(base_times, dtype=float))
    assert ready.tolist() == _walked_ready_times(base_times)


# -- trace format --------------------------------------------------------


def test_trace_dump_load_round_trip(tmp_path):
    trace = synthesize_trace(48, seed=6)
    path = tmp_path / "t.trace"
    save_trace(trace, path, header="round trip\nsecond line")
    back = load_trace(path)
    assert back.n_frames == trace.n_frames
    assert [n.size_bytes for n in back.nalus] == [n.size_bytes for n in trace.nalus]
    assert [f.temporal_layer for f in back.frames] == [
        f.temporal_layer for f in trace.frames
    ]


def test_loads_rejects_malformed_lines():
    with pytest.raises(ParseError):
        loads("F,0,0,0\n")  # wrong field count
    with pytest.raises(ParseError):
        loads("X,1,2,3,4\n")  # unknown record kind
    with pytest.raises(ParseError):
        loads("N,a,0,0,100\n")  # non-integer id


def _minimal_gop_text(**overrides):
    lines = []
    for i in range(GOP_SIZE):
        layer = temporal_layer_of(i)
        lines.append(f"F,{i},{i},{layer},0,99.99,12.00")
        lines.append(f"N,{i},{i},0,1000")
    text = "\n".join(lines) + "\n"
    for old, new in overrides.items():
        text = text.replace(old, new)
    return text


def test_trace_invariants_enforced():
    loads(_minimal_gop_text())  # sanity: the base text is valid
    # duplicate frame id
    with pytest.raises(InvariantViolation):
        loads(_minimal_gop_text(**{"F,1,1,4,0": "F,0,1,4,0"}))
    # gop_index disagrees with frame_id
    with pytest.raises(InvariantViolation):
        loads(_minimal_gop_text(**{"F,2,2,3,0": "F,2,5,3,0"}))
    # temporal layer breaks the dyadic rule
    with pytest.raises(InvariantViolation):
        loads(_minimal_gop_text(**{"F,8,8,1,0": "F,8,8,2,0"}))
    # concealment quality above delivered quality
    with pytest.raises(InvariantViolation):
        loads(_minimal_gop_text(**{"F,3,3,4,0,99.99,12.00": "F,3,3,4,0,11.00,12.00"}))
    # missing base layer NALU
    with pytest.raises(InvariantViolation):
        loads(_minimal_gop_text(**{"N,7,7,0,1000": "N,7,6,0,1000"}))
    # partial GOP
    with pytest.raises(InvariantViolation):
        loads("F,0,0,0,0,99.99,12.00\nN,0,0,0,1000\n")


def test_dumps_includes_comments_and_parses_them_away():
    trace = synthesize_trace(16, seed=8)
    text = dumps(trace, header="hello")
    assert text.startswith("# hello\n")
    assert loads(text).n_frames == 16


# -- synthesis -----------------------------------------------------------


def test_synthesize_rounds_up_to_whole_gops():
    assert synthesize_trace(1).n_frames == 16
    assert synthesize_trace(17).n_frames == 32
    assert synthesize_trace(48).n_frames == 48


def test_synthesize_defaults_are_a_default_runs():
    # a caller that leaves every setting out gets the trace a default run
    # synthesizes, concealment PSNR included (a short one, so that a
    # failure's diff stays short)
    cfg = SimConfig(duration_s=1.0)
    assert dumps(synthesize_trace(cfg.frame_count())) == dumps(engine._obtain_trace(cfg))


def test_synthesize_is_seed_deterministic():
    a = synthesize_trace(32, seed=12)
    b = synthesize_trace(32, seed=12)
    c = synthesize_trace(32, seed=13)
    assert [n.size_bytes for n in a.nalus] == [n.size_bytes for n in b.nalus]
    assert [n.size_bytes for n in a.nalus] != [n.size_bytes for n in c.nalus]


def test_synthesize_key_frames_dominate():
    trace = synthesize_trace(160, seed=14, jitter=0.0, spatial_layers=1)
    key = [n.size_bytes for n in trace.nalus if n.frame_id % GOP_SIZE == 0]
    top = [n.size_bytes for n in trace.nalus if n.frame_id % 2 == 1]
    assert min(key) > max(top)


def test_synthesize_jitter_range_checked():
    with pytest.raises(ValueError):
        synthesize_trace(16, jitter=1.0)
    with pytest.raises(ValueError):
        synthesize_trace(0)
    with pytest.raises(ValueError):
        synthesize_trace(16, spatial_layers=3)
    # a mean NALU size below one byte, which SimConfig rejects too
    for sizes in ({"base_bytes": 0}, {"base_bytes": -5}, {"enh_bytes": -1}):
        with pytest.raises(ValueError):
            synthesize_trace(16, **sizes)
    for flag, size in (("--base-bytes", "-5"), ("--base-bytes", "0"), ("--enh-bytes", "-1")):
        with pytest.raises(SystemExit) as exc:
            tracegen_main(["--frames", "16", flag, size])
        assert exc.value.code == 2, flag


def test_tracegen_cli_writes_a_loadable_file(tmp_path):
    out = tmp_path / "gen.trace"
    rc = tracegen_main(
        ["--frames", "32", "--seed", "3", "--out", str(out), "--spatial-layers", "1"]
    )
    assert rc == 0
    trace = load_trace(out)
    assert trace.n_frames == 32
    assert len(trace.nalus) == 32


def test_tracegen_cli_reports_an_unwritable_path(tmp_path, capsys):
    out = tmp_path / "missing" / "gen.trace"
    assert tracegen_main(["--frames", "16", "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"tracegen: cannot write {out}: ")
    assert "Traceback" not in err


def test_tracegen_cli_rejects_other_gop_lengths(tmp_path):
    with pytest.raises(SystemExit):
        tracegen_main(["--frames", "16", "--gop", "8", "--out", str(tmp_path / "x")])


def test_tracegen_runs_as_a_module_once(tmp_path):
    # no module may import the one -m runs: its code would run a second
    # time, and runpy warns only if the import came before it started
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "gen.trace"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-X", "importtime",
         "-m", "mcnc.video.tracegen", "--frames", "16", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "mcnc.sim.config" in imported  # the listing is there to read
    assert "mcnc.video.tracegen" not in imported
    assert load_trace(out).n_frames == 16


# -- display clock -------------------------------------------------------


def test_playout_deadline_arithmetic():
    buf = PlayoutBuffer(start_time=2.5, fps=25.0)
    assert buf.deadline(0) == 2.5
    assert buf.deadline(10) == pytest.approx(2.9)
