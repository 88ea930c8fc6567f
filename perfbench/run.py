#!/usr/bin/env python3
"""The mcnc benchmark: three workloads against the public API.

    python3 perfbench/run.py --workload grid_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --smoke

One workload with ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs half that work untraced, then the same
half traced, and reports the per-layer metrics (see layers.py).
``--workload all`` runs every workload both ways, each in its own
interpreter, and ``--smoke`` does that at a tiny size in seconds.  The
seed sets every input; ``--seconds`` sets the amount of work.  Host times
of ops are scaled to a reference speed (see refclock.py).  Metric names
and units come from BENCHMARK.json at the repository root.

Every engine run must pass ``check_conservation`` and every codec
generation must come back bit-exact; a failure counts into ``failed``
instead of stopping the run.  For the simulator workloads the traced
run's ``results.csv`` digest must equal the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report
(provenance, digests, per-op times) and, when traced, the spans are
written under perfbench/out/.  Exit status: 0 when every check passed,
1 when one failed, 2 when the benchmark cannot run at all (no mcnc source
tree next to it, or a set-up probe failed), with no result printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("grid_paper", "stream_hd", "codec_roundtrip")
#: fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The benchmark cannot run here."""


def _check_source() -> None:
    if not (SRC / "mcnc" / "__init__.py").is_file():
        raise SetupError("no mcnc source tree at %s" % SRC)


def _import_workload(name: str):
    _check_source()
    sys.path.insert(0, str(SRC))
    import mcnc

    if Path(mcnc.__file__).resolve().parent != SRC / "mcnc":
        raise SetupError("imported mcnc from %s, not from %s" % (mcnc.__file__, SRC))
    if name == "codec_roundtrip":
        import codec_workload as module
    else:
        import sim_workloads as module
    return module


def _setup_times(name: str, smoke: bool, probes: int) -> list:
    """Host seconds from a fresh interpreter to ready for the first timed
    op, once per probe.

    The clock stops when the probe reports ready, so interpreter teardown
    is not counted.  These times are not scaled to the reference speed:
    set-up is mostly imports, whose cost does not follow the reference
    kernel's.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if rc != 0 or not line.strip():
            raise SetupError("set-up probe for %s exited with %d" % (name, rc))
        times.append(dt)
    return times


def _setup(module, name: str, smoke: bool) -> tuple:
    """Set-up in this process, then freeze its heap so that the collection
    after each op scans only what the ops made."""
    info, raw, scaled = refclock.RefClock().measure(module.setup, name, smoke)
    gc.freeze()
    return info, scaled / raw


def tail(samples: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, i.e. the order statistic with exactly ten larger
    samples.  Under 20 samples that would fall below the median, so the
    maximum (p100) is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _metric_table(specs: list, values: dict, fill_missing: bool) -> dict:
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        raise RuntimeError("metrics not in BENCHMARK.json: %s" % sorted(unknown))
    table = {}
    for m in specs:
        if m["name"] not in values and not fill_missing:
            raise RuntimeError("metric %s was not measured" % m["name"])
        table[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    return table


def bench(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_before = _loadavg()
    if not trace:
        setup_times = _setup_times(name, smoke, 1 if smoke else SETUP_PROBES)
    module = _import_workload(name)
    out_dir = OUT / ("%s-seed%d" % (name, seed))
    report = {"workload": name, "seconds": seconds, "trace": int(trace), "smoke": smoke}
    if trace:
        import layers
        from tracer import Tracer, dump

        tracer = Tracer()
        layers.install(tracer)
        try:
            setup_info, setup_scale = _setup(module, name, smoke)
        finally:
            setup_spans = tracer.drain()
            tracer.restore()
        # half the work twice, untraced then traced, in about one run's
        # time; no op is timed again, so the traced counts stay fixed
        half = max(1, module.size(name, seconds, smoke) // 2)
        untraced = module.batch(name, seed, half, smoke, str(out_dir / "untraced"),
                                refclock.RefClock())
        obs = layers.install(tracer)
        try:
            traced = module.batch(name, seed, half, smoke, str(out_dir / "traced"),
                                  refclock.RefClock(), tracer)
        finally:
            spans = tracer.drain()
            tracer.restore()
        batches = (untraced, traced)
        values = layers.layer_metrics(setup_info, setup_spans, untraced, traced, spans, obs,
                                      setup_scale, statistics.median(traced["scale"]))
        values["trace_overhead"] = sum(traced["op_s"]) / sum(untraced["op_s"])
        values.update({k: x["value"] for k, x in untraced["extra"].items()})
        metrics = _metric_table(spec["per_layer"], values, fill_missing=True)
        digests_match = untraced["digest"] == traced["digest"]
        report["digest"] = {"untraced": untraced["digest"], "traced": traced["digest"]}
        report["tracer_missing"] = tracer.missing
        spans_path = OUT / ("%s-seed%d-spans.json" % (name, seed))
        dump(str(spans_path), {"setup": setup_spans, "traced": spans})
        report["spans_file"] = os.path.relpath(spans_path)
    else:
        setup_info, _ = _setup(module, name, smoke)
        clock = refclock.RefClock(refclock.RETRIES)
        untraced = module.batch(name, seed, module.size(name, seconds, smoke), smoke,
                                str(out_dir), clock)
        batches = (untraced,)
        op, raw = untraced["op_s"], untraced["op_raw_s"]
        if not op:  # every op failed before it could be timed
            op = raw = [float("inf")]
        tail_s, tail_pct, tail_n = tail(op)
        values = {
            "source_mb_per_s": untraced["source_bytes"] / 1e6 / sum(op),
            "run_s_p50": statistics.median(op),
            "run_s_tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _metric_table(spec["end_to_end"], values, fill_missing=False)
        digests_match = True
        report["digest"] = {"untraced": untraced["digest"]}
        report["run_s_tail"] = {"percentile": tail_pct, "n": tail_n}
        report["extra"] = dict(untraced["extra"])
        report["extra"].update({
            "raw_source_mb_per_s": {"value": untraced["source_bytes"] / 1e6 / sum(raw), "unit": "MB/s"},
            "raw_run_s_p50": {"value": statistics.median(raw), "unit": "s"},
            "raw_run_s_tail": {"value": tail(raw)[0], "unit": "s"},
            "host_speed": {"value": statistics.median(untraced["scale"]), "unit": "ratio"},
            "ops_timed_again": {"value": clock.retried, "unit": "count"},
        })
        report["setup_probes_s"] = setup_times
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    if not digests_match:
        print("results.csv digest differs between the traced and untraced run",
              file=sys.stderr)
        failed += 1
    report.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "setup": setup_info,
        "op_s": [b["op_s"] for b in batches],
        "op_raw_s": [b["op_raw_s"] for b in batches],
        "provenance": _provenance(seed),
        "loadavg": {"before": load_before, "after": _loadavg()},
    })
    report_path = OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace)))
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    report["report_file"] = os.path.relpath(report_path)
    return report


def _print(report: dict) -> None:
    print("# %s  seed %d  trace %d%s" % (report["workload"], report["provenance"]["seed"],
                                          report["trace"], "  (smoke)" if report["smoke"] else ""))
    for name, m in report["metrics"].items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in report.get("extra", {}).items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    if "run_s_tail" in report:
        print("run_s_tail is p%.1f of n=%d" % (report["run_s_tail"]["percentile"],
                                               report["run_s_tail"]["n"]))
    print("failed_frac %.6g (%d of %d)" % (report["failed_frac"], report["failed"],
                                            report["attempted"]))
    for phase, digest in report["digest"].items():
        if digest:
            print("results.csv sha256 (%s) %s" % (phase, digest))
    if report.get("tracer_missing"):
        print("entry points not found: %s" % ", ".join(report["tracer_missing"]))
    print("report %s" % report["report_file"])
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    ok = True
    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="sets the amount of work (see the nominal op costs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for a check that everything runs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        _check_source()
        if args.probe_setup:
            module = _import_workload(args.workload)
            print(json.dumps(module.setup(args.workload, args.smoke)), flush=True)
            return 0
        if args.workload == "all":
            return _run_all(args)
        OUT.mkdir(exist_ok=True)
        report = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    _print(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
