"""The pair-comparison script (``tools/bench_compare.py``): its statistics
on canned result lines, and one directory-against-directory run."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_compare",
                                               ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [m["name"] for m in SPEC["end_to_end"]]


def _line(failed=0, **values):
    """A run's last stdout line: every end-to-end metric at 1.0 unless given."""
    metrics = {n: {"value": values.get(n, 1.0), "unit": "x"} for n in NAMES}
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics})


def _summary(base_lines, head_lines):
    seeds = list(range(1, len(base_lines) + 1))
    results = {"base": [bench_compare.last_result(s) for s in base_lines],
               "head": [bench_compare.last_result(s) for s in head_lines]}
    return bench_compare.summarize(SPEC, seeds, results)


def test_seeds_parse_as_ranges_and_lists():
    assert bench_compare.parse_seeds("1-10") == list(range(1, 11))
    assert bench_compare.parse_seeds("4242") == [4242]
    assert bench_compare.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_the_result_is_the_last_line():
    out = "# report\nsource_mb_per_s 1\n" + _line(source_mb_per_s=3.0) + "\n\n"
    assert bench_compare.last_result(out)["metrics"]["source_mb_per_s"]["value"] == 3.0
    assert bench_compare.last_result("") is None
    assert bench_compare.last_result("perfbench: no source tree\n") is None
    assert bench_compare.last_result('{"correct": true}') is None  # no metrics


def test_direction_follows_better():
    # the head is 10 % faster and 10 % quicker per run in every pair: a win
    # on a higher-is-better and on a lower-is-better metric alike
    base = [_line(source_mb_per_s=100.0 + i, run_s_p50=1.0 + i / 100) for i in range(5)]
    head = [_line(source_mb_per_s=110.0 + 1.1 * i, run_s_p50=0.9 * (1.0 + i / 100))
            for i in range(5)]
    s = _summary(base, head)
    rate, p50 = s["metrics"]["source_mb_per_s"], s["metrics"]["run_s_p50"]
    assert rate["rel_change"] == pytest.approx(0.1) and rate["wins"] == 5
    assert p50["rel_change"] == pytest.approx(-0.1) and p50["wins"] == 5
    assert rate["base"]["median"] == 102.0 and rate["head"]["median"] == pytest.approx(112.2)
    assert rate["base"]["q1"] == 101.0 and rate["base"]["q3"] == 103.0
    assert rate["beyond_base_iqr"] and not rate["worse_than_bound"]
    assert not rate["unresolved"] and not s["metrics"]["setup_s"]["unresolved"]
    assert s["failed"] == {"base": 0, "head": 0}
    assert bench_compare.verdict(s) == 0


@pytest.mark.parametrize("name, head_value, breach", [
    ("source_mb_per_s", 0.83, False),  # 17 % slower, bound 18 %
    ("source_mb_per_s", 0.80, True),
    ("run_s_p50", 1.17, False),
    ("run_s_p50", 1.20, True),  # 20 % longer, bound 18 %
    ("peak_rss_mb", 1.12, True),  # bound 10 %
    ("peak_rss_mb", 0.5, False),  # better by any amount is no breach
])
def test_a_metric_worse_than_its_bound_fails(name, head_value, breach):
    s = _summary([_line()] * 3, [_line(**{name: head_value})] * 3)
    assert s["metrics"][name]["worse_than_bound"] is breach
    assert bench_compare.verdict(s) == int(breach)


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_head_run_wins():
    # setup_s (bound 25 %) spreads by 40 % of its median on the head; the
    # medians are equal, so the runs cannot tell a change
    base = [_line(setup_s=1.0)] * 4
    head = [_line(setup_s=v) for v in (0.7, 0.9, 1.1, 1.3)]
    setup = _summary(base, head)["metrics"]["setup_s"]
    assert setup["spread"] == pytest.approx(0.3) and setup["unresolved"]
    assert not setup["worse_than_bound"]
    assert bench_compare.verdict(_summary(base, head)) == 0  # reported, not failed
    # as wide a spread with every head run quicker than every base run
    head = [_line(setup_s=v) for v in (0.35, 0.45, 0.55, 0.65)]
    setup = _summary(base, head)["metrics"]["setup_s"]
    assert setup["spread"] > setup["bound"] and not setup["unresolved"]


def test_the_source_digest_comes_from_the_report_the_run_names(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "r.json").write_text(json.dumps({"provenance": {"src_sha256": "ab"}}))
    assert bench_compare.report_source("x\nreport out/r.json\n{}", tmp_path) == "ab"
    assert bench_compare.report_source("report out/missing.json", tmp_path) is None
    assert bench_compare.report_source("no report line", tmp_path) is None
    runs = [dict(json.loads(_line()), src_sha256=sha) for sha in ("ab", "ab", "cd")]
    assert bench_compare.sources({"base": runs[:2] + [None], "head": runs}) == {
        "base": "ab", "head": None}  # the head's runs disagree


def test_a_failed_run_fails_the_comparison_and_leaves_its_pair_out():
    base = [_line(source_mb_per_s=1.0), _line(source_mb_per_s=2.0), _line(source_mb_per_s=3.0)]
    head = [_line(source_mb_per_s=1.0), "Traceback (most recent call last):",
            _line(failed=1, source_mb_per_s=3.0)]
    s = _summary(base, head)
    assert s["failed"] == {"base": 0, "head": 2}
    assert s["metrics"]["source_mb_per_s"]["pairs"] == 1
    assert s["per_seed"][1]["head"] is None and s["per_seed"][2]["head"]["failed"] == 1
    assert bench_compare.verdict(s) == 1
    # with no pair left at all, the comparison fails too
    s = _summary(base[:1], ["no result"])
    assert s["metrics"]["source_mb_per_s"]["pairs"] == 0
    assert bench_compare.verdict(s) == 1


def test_runs_alternate_which_side_goes_first():
    calls = []

    def fake(tree, workload, seed, seconds):
        calls.append((seed, tree.name))
        return json.loads(_line())

    bench_compare.run_pairs(Path("base"), Path("head"), "codec_roundtrip", [1, 2, 3], 1,
                            run=fake, log=None)
    assert calls == [(1, "base"), (1, "head"), (2, "head"), (2, "base"),
                     (3, "base"), (3, "head")]


def _held_out_trees(tmp_path):
    """Two empty trees for a fake runner, the head with the benchmark spec."""
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "head" / "BENCHMARK.json")
    return tmp_path / "base", tmp_path / "head"


def test_the_held_out_pair_runs_after_the_round_and_stays_out_of_its_statistics(tmp_path):
    # the head is 10 % faster in the round and twice as fast on the
    # held-out seed, whose pair must not move the round's figures
    calls = []

    def fake(tree, workload, seed, seconds):
        calls.append((seed, tree.name))
        rate = 100.0 + seed if tree.name == "base" else 110.0 + 1.1 * seed
        if seed == 4242:
            rate = 100.0 if tree.name == "base" else 200.0
        return json.loads(_line(source_mb_per_s=rate))

    record = bench_compare.compare(*_held_out_trees(tmp_path), "grid_paper", [1, 2, 3], 1,
                                   run=fake, log=None, held_out=4242)
    assert calls[-2:] == [(4242, "head"), (4242, "base")]  # even: the head goes first
    assert len(calls) == 8 and record["seeds"] == [1, 2, 3]
    rate = record["metrics"]["source_mb_per_s"]
    assert rate["pairs"] == 3 and rate["wins"] == 3
    assert rate["base"]["values"] == [101.0, 102.0, 103.0]
    assert rate["rel_change"] == pytest.approx(0.1) and rate["spread"] < 0.02
    held = record["held_out"]
    assert held["seed"] == 4242 and held["failed"] == {"base": 0, "head": 0}
    assert (held["base"]["source_mb_per_s"], held["head"]["source_mb_per_s"]) == (100.0, 200.0)
    assert held["metrics"]["source_mb_per_s"] == {"rel_change": 1.0, "ahead": True}
    assert held["metrics"]["setup_s"] == {"rel_change": 0.0, "ahead": False}
    assert [s["seed"] for s in record["per_seed"]] == [1, 2, 3]
    assert bench_compare.verdict(record) == 0


def test_a_failed_held_out_run_fails_the_comparison(tmp_path):
    def fake(tree, workload, seed, seconds):
        if seed == 4242 and tree.name == "head":
            return None  # exited non-zero or printed no result
        return json.loads(_line())

    record = bench_compare.compare(*_held_out_trees(tmp_path), "grid_paper", [1, 2], 1,
                                   run=fake, log=None, held_out=4242)
    assert record["failed"] == {"base": 0, "head": 0}
    assert record["held_out"]["failed"] == {"base": 0, "head": 1}
    assert record["held_out"]["head"] is None and record["held_out"]["metrics"] == {}
    assert bench_compare.verdict(record) == 1
    # without the held-out pair the same round passes
    del record["held_out"]
    assert bench_compare.verdict(record) == 0


def test_directory_against_directory(tmp_path):
    # two copies of this tree, one short codec run each side: every
    # end-to-end metric gets its pair, and the record names both sources
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache", ".hypothesis")
    trees = []
    for side in ("base", "head"):
        tree = tmp_path / side
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        trees.append(tree)
    record = bench_compare.compare(*trees, "codec_roundtrip", [1], 1, log=None)
    assert record["failed"] == {"base": 0, "head": 0}
    assert record["src_sha256"]["base"] == record["src_sha256"]["head"]
    assert len(record["src_sha256"]["head"]) == 64
    assert set(record["metrics"]) == set(NAMES)
    for m in record["metrics"].values():
        assert m["pairs"] == 1 and m["base"]["median"] > 0 and m["head"]["median"] > 0
    assert record["per_seed"][0]["seed"] == 1
