"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, and its refusal to run without a source tree.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, WORKLOADS, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIM_WORKLOADS = ("grid_paper", "stream_hd")


def _smoke_results() -> dict:
    """(workload, trace) -> result JSON of one ``--smoke`` invocation."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = {}
    key = None
    for line in proc.stdout.splitlines():
        if line.startswith("# "):
            fields = line.split()
            key = (fields[1], int(fields[5]))
        elif line.startswith("{") and key is not None:
            results[key] = json.loads(line)
            key = None
    return results


def test_smoke_runs_every_workload_and_reports_every_metric():
    results = _smoke_results()
    assert set(results) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for (workload, trace), r in results.items():
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert list(r["metrics"]) == (per_layer if trace else e2e)
        if not trace:
            assert all(m["value"] > 0 for m in r["metrics"].values()), workload

    def layer(workload, name):
        return results[(workload, 1)]["metrics"][name]["value"]

    # the workload split: payload coding only in the codec workload,
    # radio links only in the simulator workloads
    for w in SIM_WORKLOADS:
        assert layer(w, "rlnc.encode_calls") == 0 and layer(w, "rlnc.decode_calls") == 0
        assert layer(w, "channel.transmit_calls.mmwave") > 0
        assert layer(w, "sim.events") > 0
    assert layer("codec_roundtrip", "rlnc.encode_calls") > 0
    assert layer("codec_roundtrip", "channel.transmit_calls.mmwave") == 0
    assert layer("codec_roundtrip", "channel.transmit_calls.lte") == 0
    assert layer("stream_hd", "sim.packets_per_event") > 3 * layer("grid_paper", "sim.packets_per_event")


def test_without_a_source_tree_it_fails_and_prints_no_result():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid_paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 30)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
