"""Command-line behaviour: argument handling, outputs, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from mcnc.sim.cli import main
from mcnc.sim.results import validate_aggregate

TINY = "[sim]\nduration_s = 1.0\nn_ues = 2\nruns = 2\n"


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


def test_run_writes_results_and_aggregate(tiny_ini, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", tiny_ini, "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "results.csv" in captured
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one cell, two runs
    assert rows[0]["config"] == "ran_retx+nc_fec"
    assert rows[0]["connectivity"] == "multi"
    validate_aggregate(json.loads((out / "aggregate.json").read_text()))


def test_seed_and_runs_overrides(tiny_ini, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", tiny_ini, "--out", str(out_a),
                 "--seed", "5", "--runs", "1"]) == 0
    assert main(["run", "--config", tiny_ini, "--out", str(out_b),
                 "--seed", "6", "--runs", "1"]) == 0
    rows_a = (out_a / "results.csv").read_text().splitlines()
    rows_b = (out_b / "results.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b) == 2
    assert rows_a != rows_b  # different master seed, different realization


def test_identical_invocations_are_byte_identical(tiny_ini, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", tiny_ini, "--out", str(out_a)]) == 0
    assert main(["run", "--config", tiny_ini, "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_worker_setting_is_invisible_in_output(tiny_ini, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", tiny_ini, "--out", str(out_a),
                 "--workers", "1"]) == 0
    assert main(["run", "--config", tiny_ini, "--out", str(out_b),
                 "--workers", "3"]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_grid_expands_sixteen_cells(tiny_ini, tmp_path):
    out = tmp_path / "grid"
    assert main(["run", "--config", tiny_ini, "--out", str(out),
                 "--grid", "paper", "--runs", "1"]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert len({(r["config"], r["profile"], r["connectivity"]) for r in rows}) == 16


def test_events_log_written(tiny_ini, tmp_path):
    out = tmp_path / "ev"
    assert main(["run", "--config", tiny_ini, "--out", str(out),
                 "--events", "--runs", "1"]) == 0
    lines = (out / "events.log").read_text().splitlines()
    assert lines[0].startswith("# run 0 seed ")
    assert len(lines) > 10


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", "/no/such.ini", "--out", str(tmp_path / "x")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[sim]\nn_ues = 0\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "y")]) == 2
    bad.write_text("[sim]\nbackhaul_delay_s = nan\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    bad.write_text("[sim]\nn_ues = 1e400\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "v")]) == 2
    bad.write_text("[DEFAULT]\nn_ues = 3\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "u")]) == 2
    # values the run would otherwise overflow on, in the link rate
    bad.write_text("[channel.lte]\nsnr_db = 4000\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2
    bad.write_text("[channel.mmwave]\nsnr_sigma_db = 1e300\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "s")]) == 2
    # a link rate too slow to serialize a packet in finite time
    bad.write_text("[channel.mmwave]\nbandwidth_hz = 1e-320\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
    bad.write_text("[channel]\nefficiency = 1e-320\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "q")]) == 2
    # retry multipliers that overflow or never finish
    bad.write_text("[distribution]\nretx_overshoot = inf\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "p")]) == 2
    bad.write_text("[distribution]\nretx_overshoot = 1e300\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("[channel]\nran_max_attempts = 1000000000\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "n")]) == 2
    # too much presampled state across receivers
    bad.write_text("[sim]\nn_ues = 1000\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "m")]) == 2
    # too many source packets: a byte a packet
    bad.write_text("[video]\npacket_bytes = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "l")]) == 2
    # an integer literal past float range
    bad.write_text("[video]\nbase_nalu_bytes = 1%s\n" % ("0" * 400), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "k")]) == 2
    assert main(["run", "--out", str(tmp_path / "z"), "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_events_with_grid_rejected(tiny_ini, tmp_path):
    assert main(["run", "--config", tiny_ini, "--out", str(tmp_path / "x"),
                 "--grid", "paper", "--events"]) == 2


def test_runtime_errors_exit_3(tiny_ini, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    assert main(["run", "--config", tiny_ini, "--out", str(blocker)]) == 3


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
