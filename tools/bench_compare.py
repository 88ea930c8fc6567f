#!/usr/bin/env python3
"""Compare the benchmark on two revisions in alternated pairs, and keep the record.

    python3 tools/bench_compare.py --base REV [--head REV] --workload W --seeds 1-10 \
        [--held-out SEED] [--seconds 10]

Each revision is checked out with ``git worktree add --detach`` in a
temporary directory, removed and pruned on exit; without ``--head`` the
head is the working tree. The head's ``perfbench/`` and ``BENCHMARK.json``
are copied into both trees, so both sides run the same benchmark code on
their own ``src/``. For each seed both sides run
``perfbench/run.py --trace 0`` once, each in its own interpreter: the
base first on odd seeds, the head first on even ones. The last line of a
run's standard output is its result.

The record, ``BENCH_<W>_<base>_<head>.json`` at the repository root,
holds the host, the Python and numpy versions, each tree's
``src_sha256`` as its runs' reports give it, every seed's values on both
sides, and for each end-to-end metric of ``BENCHMARK.json`` the medians,
quartiles, wins and relative change of the head against the base, next
to the metric's bound and direction. With ``--held-out SEED`` one more
alternated pair runs after the round, on a seed the round did not use, and
the record keeps it under ``held_out``: both sides' values and, per
end-to-end metric, the head's relative change and whether it is ahead.
It enters no median, win count or spread. A working-tree head is labelled
``<HEAD>-src<first 8 hex digits of its src_sha256>``, so records of
different working trees do not overwrite each other. A metric is
unresolved when either side's quartile spread, relative to its median,
is wider than the bound, unless every head run beats every base run. A
run fails if it exits non-zero, prints no result or reports a failed op.
The exit status is 1 if a run failed, the held-out pair's included, or a
metric's head median is worse than the base's by more than its bound,
else 0; an unresolved metric is reported, not failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: a run that takes longer than this many times its --seconds, plus the
#: set-up allowance, counts as failed
TIMEOUT_FACTOR = 30
TIMEOUT_SETUP_S = 300


def parse_seeds(text: str) -> List[int]:
    """``"1-10"``, ``"4242"`` or a comma list of either."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError("no seeds in %r" % text)
    return seeds


def report_source(stdout: str, tree: Path) -> Optional[str]:
    """The ``src_sha256`` in the report that the run's ``report <path>``
    line names (a path relative to tree), or None."""
    for line in stdout.splitlines():
        if line.startswith("report "):
            try:
                with open(tree / line[len("report "):].strip(), encoding="utf-8") as fh:
                    return json.load(fh)["provenance"]["src_sha256"]
            except (OSError, ValueError, KeyError, TypeError):
                return None
    return None


def sources(results: dict) -> dict:
    """Per side, the ``src_sha256`` its runs report, or None if none
    reports one or they disagree."""
    out = {}
    for side, runs in results.items():
        found = {r.get("src_sha256") for r in runs if r is not None} - {None}
        out[side] = found.pop() if len(found) == 1 else None
    return out


def last_result(stdout: str) -> Optional[dict]:
    """The result object on the last non-empty line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> Optional[dict]:
    """One ``perfbench/run.py --trace 0`` run in its own interpreter on
    tree's source; its result with the ``src_sha256`` of its report, or
    None if it exited non-zero or printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_SETUP_S + TIMEOUT_FACTOR * seconds)
    except subprocess.TimeoutExpired:
        return None
    result = last_result(proc.stdout) if proc.returncode == 0 else None
    if result is not None:
        result["src_sha256"] = report_source(proc.stdout, tree)
    return result


def run_failed(result: Optional[dict]) -> bool:
    return result is None or not result.get("correct", False) or result.get("failed", 1) != 0


def run_pairs(base: Path, head: Path, workload: str, seeds: List[int], seconds: int,
              run: Callable = run_once, log=sys.stderr) -> dict:
    """Both trees once per seed, the base first on odd seeds: the results
    by side, in seed order."""
    out = {"base": [], "head": []}
    for seed in seeds:
        order = (("base", base), ("head", head))
        for side, tree in (order if seed % 2 else order[::-1]):
            result = run(tree, workload, seed, seconds)
            out[side].append(result)
            if log is not None:
                value = None if result is None else result["metrics"].get(
                    "source_mb_per_s", {}).get("value")
                print("seed %d %s: %s" % (seed, side, "FAILED" if run_failed(result)
                                           else "source_mb_per_s %.4g" % value),
                      file=log, flush=True)
    return out


def _side(values: List[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(spec: dict, seeds: List[int], results: dict) -> dict:
    """Per-seed values, per-metric statistics over the pairs where both
    sides ran, and the failed runs on each side."""
    base, head = results["base"], results["head"]
    per_seed = []
    for seed, b, h in zip(seeds, base, head):
        per_seed.append({"seed": seed, **{
            side: None if r is None else {
                "failed": r.get("failed"),
                **{name: m["value"] for name, m in r["metrics"].items()}}
            for side, r in (("base", b), ("head", h))}})
    pairs = [(b, h) for b, h in zip(base, head) if not run_failed(b) and not run_failed(h)]
    metrics = {}
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        bv = [b["metrics"][name]["value"] for b, _ in pairs]
        hv = [h["metrics"][name]["value"] for _, h in pairs]
        entry = {"unit": m["unit"], "better": better, "bound": bound, "pairs": len(pairs)}
        if pairs:
            bs, hs = _side(bv), _side(hv)
            bm, hm = bs["median"], hs["median"]
            if bm:
                rel = (hm - bm) / bm
            else:
                rel = 0.0 if hm == bm else float("inf") if hm > bm else float("-inf")
            worse = -rel if better == "higher" else rel
            spread = max((s["q3"] - s["q1"]) / abs(s["median"])
                         if s["median"] else 0.0 for s in (bs, hs))
            if better == "higher":
                apart = min(hv) > max(bv)
            else:
                apart = max(hv) < min(bv)
            entry.update({
                "base": bs,
                "head": hs,
                "rel_change": rel,
                "wins": sum((x > y) if better == "higher" else (x < y)
                            for x, y in zip(hv, bv)),
                "worse_than_bound": worse > bound,
                # the larger quartile spread of the two sides, relative to
                # its median: wider than the bound, the runs cannot tell
                # the change from noise unless every head run is ahead
                "spread": spread,
                "unresolved": spread > bound and not apart,
                # the change settles only if it exceeds the base's own spread
                "beyond_base_iqr": abs(hm - bm) > bs["q3"] - bs["q1"],
            })
        metrics[name] = entry
    return {
        "per_seed": per_seed,
        "metrics": metrics,
        "failed": {"base": sum(map(run_failed, base)), "head": sum(map(run_failed, head))},
    }


def held_out_pair(spec: dict, seed: int, results: dict) -> dict:
    """The held-out pair's record: both sides' values, the failed runs,
    and per end-to-end metric the head's relative change and whether it
    is ahead, when both sides ran."""
    summary = summarize(spec, [seed], results)
    return {**summary["per_seed"][0], "failed": summary["failed"], "metrics": {
        name: {"rel_change": m["rel_change"], "ahead": m["wins"] == 1}
        for name, m in summary["metrics"].items() if m["pairs"]}}


def verdict(summary: dict) -> int:
    """1 if a run failed (the held-out pair's included), a metric has no
    pair, or a metric is worse than its bound; else 0."""
    held_out = summary.get("held_out")
    if any(summary["failed"].values()) or (held_out and any(held_out["failed"].values())):
        return 1
    for entry in summary["metrics"].values():
        if not entry["pairs"] or entry["worse_than_bound"]:
            return 1
    return 0


def host_info() -> dict:
    try:
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = None
    return {"node": platform.node(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


def compare(base: Path, head: Path, workload: str, seeds: List[int], seconds: int,
            run: Callable = run_once, log=sys.stderr, held_out: Optional[int] = None) -> dict:
    """The record of one comparison of two prepared trees, with the
    held-out pair after the round if a held-out seed is given."""
    with open(head / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    results = run_pairs(base, head, workload, seeds, seconds, run, log)
    record = {
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "host": host_info(),
        "src_sha256": sources(results),
    }
    record.update(summarize(spec, seeds, results))
    if held_out is not None:
        pair = run_pairs(base, head, workload, [held_out], seconds, run, log)
        record["held_out"] = held_out_pair(spec, held_out, pair)
    return record


def use_benchmark_of(head: Path, tree: Path) -> None:
    """Replace tree's benchmark by head's: ``perfbench/`` and ``BENCHMARK.json``."""
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(head / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(head / "BENCHMARK.json", tree / "BENCHMARK.json")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str, path: Path):
    """rev checked out at path, removed and pruned on exit."""
    _git("worktree", "add", "--detach", str(path), rev)
    try:
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument("--head", help="the head revision (default: the working tree)")
    parser.add_argument("--workload", required=True,
                        choices=("grid_paper", "stream_hd", "codec_roundtrip"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10")
    parser.add_argument("--held-out", type=int, metavar="SEED",
                        help="one more pair after the round, kept out of its statistics")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.held_out in args.seeds:
        parser.error("the held-out seed %d is in the round" % args.held_out)
    base_label = _git("rev-parse", "--short", args.base)
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-")))
        base = stack.enter_context(worktree(args.base, tmp / "base"))
        head = stack.enter_context(worktree(args.head, tmp / "head")) if args.head else ROOT
        use_benchmark_of(head, base)
        record = compare(base, head, args.workload, args.seeds, args.seconds,
                         held_out=args.held_out)
    if args.head:
        head_label = _git("rev-parse", "--short", args.head)
    else:
        head_label = "%s-src%s" % (_git("rev-parse", "--short", "HEAD"),
                                   (record["src_sha256"]["head"] or "unknown")[:8])
    record["revisions"] = {"base": base_label, "head": head_label}
    out = ROOT / ("BENCH_%s_%s_%s.json" % (args.workload, base_label, head_label))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, m in record["metrics"].items():
        if m["pairs"]:
            print("%-16s base %10.5g  head %10.5g  %+7.2f %%  wins %d/%d  spread %.0f %%"
                  "  bound %.0f %%%s%s" % (
                      name, m["base"]["median"], m["head"]["median"], 100 * m["rel_change"],
                      m["wins"], m["pairs"], 100 * m["spread"], 100 * m["bound"],
                      "  WORSE THAN BOUND" if m["worse_than_bound"] else "",
                      "  UNRESOLVED" if m["unresolved"] else ""))
    held_out = record.get("held_out")
    if held_out:
        for name, m in held_out["metrics"].items():
            print("%-16s held-out seed %d: base %10.5g  head %10.5g  %+7.2f %%" % (
                name, held_out["seed"], held_out["base"][name], held_out["head"][name],
                100 * m["rel_change"]))
        print("failed held-out runs: base %(base)d, head %(head)d" % held_out["failed"])
    print("failed runs: base %(base)d, head %(head)d" % record["failed"])
    print("record %s" % out.relative_to(ROOT))
    return verdict(record)


if __name__ == "__main__":
    sys.exit(main())
