"""Replication harness and result persistence."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from mcnc.sim.config import ConfigError, SimConfig, cell_key
from mcnc.sim.engine import run
from mcnc.sim.montecarlo import (
    SUMMARY_METRICS,
    monte_carlo,
    report_samples,
    run_grid,
    run_seeds,
    summarize,
)
from mcnc.sim.results import (
    CSV_HEADER,
    build_aggregate,
    emit_results,
    results_rows,
    validate_aggregate,
    write_csv,
)

FAST = SimConfig(duration_s=1.0, n_ues=2, runs=3)


def test_run_seeds_are_stable_and_distinct():
    seeds = run_seeds(FAST)
    assert seeds == run_seeds(FAST)
    assert len(set(seeds)) == len(seeds) == 3
    assert run_seeds(dataclasses.replace(FAST, runs=5))[:3] == seeds  # prefix property
    assert run_seeds(dataclasses.replace(FAST, seed=1)) != seeds


def test_report_samples_match_report():
    rep = run(FAST, seed=run_seeds(FAST)[0])
    s = report_samples(rep)
    assert set(s) == set(SUMMARY_METRICS)
    assert s["nalu_loss"] == rep.nalu_loss_ratio
    assert s["latency_ms_mean"] == rep.latency["mean"] * 1e3
    assert s["psnr_db"] == rep.avg_psnr_db


def test_summarize_mean_and_interval():
    reports = [run(FAST, seed=s) for s in run_seeds(FAST)]
    out = summarize(reports)
    xs = [report_samples(r)["psnr_db"] for r in reports]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert out["psnr_db"]["mean"] == pytest.approx(mean)
    assert out["psnr_db"]["ci95"] == pytest.approx(1.96 * math.sqrt(var / len(xs)))


def test_summarize_single_run_has_zero_interval():
    out = summarize([run(FAST, seed=1)])
    for name in SUMMARY_METRICS:
        assert out[name]["ci95"] == 0.0


def test_monte_carlo_runs_requested_count():
    summary, reports = monte_carlo(FAST)
    assert len(reports) == 3
    assert set(summary) == set(SUMMARY_METRICS)


@pytest.mark.parametrize("runs", [0, -1])
def test_no_runs_is_a_config_error(runs):
    # run_seeds checks the count itself: it is called without validate()
    for call in (run_seeds, monte_carlo, run_grid):
        with pytest.raises(ConfigError, match="runs must be at least 1"):
            call(dataclasses.replace(FAST, runs=runs))


def test_worker_count_does_not_change_results():
    _, serial = monte_carlo(FAST, workers=1)
    _, parallel = monte_carlo(FAST, workers=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


@pytest.fixture(scope="module")
def tiny_grid():
    cfg = dataclasses.replace(FAST, runs=2)
    return run_grid(cfg), run_seeds(cfg), cfg


def test_grid_pairs_seeds_across_cells(tiny_grid):
    results, seeds, _ = tiny_grid
    assert len(results) == 16
    for _, reports in results.values():
        assert [r.seed for r in reports] == seeds


# -- persistence ---------------------------------------------------------


def test_results_rows_sorted_and_complete(tiny_grid):
    results, seeds, _ = tiny_grid
    rows = results_rows(results, seeds)
    assert len(rows) == 16 * 2
    keys = [(r[0], r[1], r[2]) for r in rows]
    assert keys == sorted(keys)
    assert all(rows[i][3] == i % 2 for i in range(len(rows)))  # run index
    for row in rows:
        assert len(row) == len(CSV_HEADER)


def test_results_rows_reject_seed_mismatch(tiny_grid):
    results, seeds, _ = tiny_grid
    with pytest.raises(ValueError):
        results_rows(results, seeds + [99])


def test_csv_single_cell_round_trip(tmp_path):
    summary_reports = monte_carlo(FAST)
    results = {cell_key(FAST): summary_reports}
    rows = results_rows(results, run_seeds(FAST))
    path = tmp_path / "r.csv"
    write_csv(str(path), rows)
    text = path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 3
    # floats are written in repr form: parsing them back is exact
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert float(parts[5]) == row[5]
        assert float(parts[6]) == row[6]
        assert float(parts[7]) == row[7]


def test_emit_results_writes_both_files(tiny_grid, tmp_path):
    results, seeds, cfg = tiny_grid
    csv_path, json_path = emit_results(results, seeds, cfg.seed, str(tmp_path))
    assert csv_path.endswith("results.csv") and json_path.endswith("aggregate.json")
    aggregate = json.loads((tmp_path / "aggregate.json").read_text())
    validate_aggregate(aggregate)
    assert aggregate["master_seed"] == cfg.seed
    assert aggregate["runs"] == 2
    assert len(aggregate["cells"]) == 16


def test_emitted_csv_is_byte_stable(tiny_grid, tmp_path):
    results, seeds, cfg = tiny_grid
    emit_results(results, seeds, cfg.seed, str(tmp_path / "a"))
    emit_results(results, seeds, cfg.seed, str(tmp_path / "b"))
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b


def test_aggregate_validator_rejects_mutations(tiny_grid):
    results, seeds, cfg = tiny_grid
    good = build_aggregate(results, cfg.seed, len(seeds), generated_at="t")
    validate_aggregate(good)

    for mutate in (
        lambda d: d.pop("cells"),
        lambda d: d.__setitem__("schema_version", 99),
        lambda d: d.__setitem__("runs", 0),
        lambda d: d["cells"][0].__setitem__("config", "bogus"),
        lambda d: d["cells"][0]["metrics"]["psnr_db"].pop("ci95"),
        lambda d: d["cells"][0]["metrics"]["psnr_db"].__setitem__("ci95", -1.0),
        lambda d: d["cells"][0]["metrics"].__setitem__("extra", {"mean": 0, "ci95": 0}),
    ):
        broken = json.loads(json.dumps(good))
        mutate(broken)
        with pytest.raises(ValueError):
            validate_aggregate(broken)
