#!/usr/bin/env python3
"""A catalogue of planted faults, and a runner that checks the tests catch them.

Each entry plants one fault: in one file, an exact piece of text (which
must occur there exactly once) is replaced by another. For each entry the
runner copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, applies the one replacement and runs the fast test
files there with ``-x``, once the unplanted copy has passed them. The
mutant is killed if a test fails, errors or the run times out, and
survives if every test passes. When the first failing test is not the
entry's named catcher (the golden digests, which run first, catch many
faults), the catcher runs alone on the planted copy too: an entry whose
catcher then passes is reported as "catcher silent".

    python3 tools/mutants.py                 # every entry
    python3 tools/mutants.py NAME [NAME ...]  # the named entries
    python3 tools/mutants.py --list

Each result line gives the entry, killed, catcher silent or survived,
the first failing test and the time taken. The exit status is 1 if an
entry marked "must kill" survives or its catcher is silent, 2 if an
entry's text does not occur exactly once or the unplanted copy fails,
else 0.

A surviving "must kill" entry is a missing test: add the test, never
weaken the entry. An entry that may survive says why it is equivalent on
every input a run can reach.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: the test files quick enough to run once per mutant, quickest to fail first
FAST_TESTS = (
    "tests/test_golden.py",
    "tests/test_gf.py",
    "tests/test_rlnc.py",
    "tests/test_engine.py",
    "tests/test_distribution.py",
    "tests/test_metrics.py",
    "tests/test_channel.py",
    "tests/test_video.py",
    "tests/test_config.py",
    "tests/test_properties.py",
)

#: files the tests read besides src/ and tests/
TREE_FILES = ("pyproject.toml", "README.md")

#: a mutant whose tests run longer than this is counted as killed
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    catcher: Optional[str] = None  # a test expected to kill it
    must_kill: bool = True
    why: str = ""  # for an entry that may survive: why it is equivalent


ENGINE = "src/mcnc/sim/engine.py"
STRUCTURE = "src/mcnc/video/structure.py"
TRACEGEN = "src/mcnc/video/tracegen.py"
RLNC = "src/mcnc/rlnc.py"
T_RLNC = "tests/test_rlnc.py::"
T_ENGINE = "tests/test_engine.py::"
LINK_FIELDS = "tests/test_channel.py::test_links_read_their_own_fields"
PLANLESS = T_ENGINE + "test_a_planless_frame_sends_as_one_burst_per_generation_did"

MUTANTS = (
    # the engine's ties and rules
    Mutant("frame_tie", ENGINE,
           "heap[0][0] < t_f:", "heap[0][0] <= t_f:",
           T_ENGINE + "test_static_event_wins_a_tie_with_a_dynamic_one"),
    Mutant("giveup_patiences_swapped", ENGINE,
           "sent) + cfg.receiver_giveup_s,\n"
           "                                    sent + cfg.receiver_giveup_empty_s)",
           "sent) + cfg.receiver_giveup_empty_s,\n"
           "                                    sent + cfg.receiver_giveup_s)",
           T_ENGINE + "test_the_give_up_mask_follows_the_per_generation_rule"),
    Mutant("freshness_window_off_by_one", ENGINE,
           "last_ok > idx - scan", "last_ok >= idx - scan"),
    Mutant("blackout_walk_deadline_tie", ENGINE,
           "if nxt > g.deadline:", "if nxt >= g.deadline:",
           T_ENGINE + "test_a_look_landing_exactly_on_the_deadline_is_still_made"),
    Mutant("display_tie", ENGINE,
           "taken & (ready < deadline)", "taken & (ready <= deadline)",
           T_ENGINE + "test_a_generation_completing_at_its_display_instant_does_not_count"),
    Mutant("failure_notice_tie", ENGINE,
           "not self.complete_at[gen_id] < g.deadline:",
           "not self.complete_at[gen_id] <= g.deadline:",
           T_ENGINE + "test_a_plan_failing_on_a_generation_complete_at_its_deadline_leaves_a_notice"),
    Mutant("report_rank_bisect_left", ENGINE,
           "from bisect import bisect_right",
           "from bisect import bisect_left as bisect_right",
           T_ENGINE + "test_a_report_sent_as_the_rank_rose_shows_the_new_rank"),
    Mutant("first_report_slot_ignored", ENGINE,
           "g >= 0 and self.on_mmwave[g]", "g > 0 and self.on_mmwave[g]",
           T_ENGINE + "test_the_first_report_slot_already_sets_the_path"),
    Mutant("path_table_skips_report_0", ENGINE,
           "np.where(newest >= 0, self.mm.snr_at", "np.where(newest > 0, self.mm.snr_at",
           T_ENGINE + "test_report_slot_0_is_a_report"),
    Mutant("latest_report_skips_slot_0", ENGINE,
           "        if g < 0:\n            return -1", "        if g <= 0:\n            return -1",
           T_ENGINE + "test_report_slot_0_is_a_report"),
    Mutant("look_walks_past_report_0", ENGINE,
           "while rep < 0:", "while rep <= 0:",
           T_ENGINE + "test_report_slot_0_is_a_report"),
    Mutant("trace_packet_cap_exclusive", ENGINE,
           "if packets > MAX_GRID_STATES:", "if packets >= MAX_GRID_STATES:",
           T_ENGINE + "test_a_trace_file_may_need_exactly_the_packet_cap"),
    Mutant("drop_causes_swapped", ENGINE,
           "elif attempts:", "elif not attempts:"),
    Mutant("burst_never_sorted", ENGINE,
           "        survivors.sort()\n", "        pass\n",
           T_ENGINE + "test_a_retried_packet_feeds_the_rank_in_arrival_order"),
    Mutant("report_slot_shifted", ENGINE,
           "math.floor((t - self.ul_delay) / self.fb_int)",
           "math.floor((t - self.ul_delay) / self.fb_int + 1e-9)",
           T_ENGINE + "test_a_report_slot_is_the_floored_float_quotient"),
    Mutant("blackout_skip_one_look_too_far", ENGINE,
           "            t = nxt\n            rep = self._latest_report(t)\n",
           "            t = nxt\n            rep = self._latest_report(t) if rep == -2 else -2\n",
           T_ENGINE + "test_the_blackout_walk_checks_a_look_one_sum_moves_two_slots_on"),
    # a planless generation's one burst
    Mutant("planless_completion_one_arrival_short", ENGINE,
           "if got == k:", "if got >= k - 1:", PLANLESS),
    Mutant("planless_last_arrival_without_backhaul", ENGINE,
           "last_arrival[gen_id] = arrived", "last_arrival[gen_id] = last", PLANLESS),
    Mutant("planless_drop_causes_swapped", ENGINE,
           "counts[2] += unsent\n                counts[3] += k - got - unsent",
           "counts[2] += k - got - unsent\n                counts[3] += unsent", PLANLESS),
    Mutant("delivered_close_uncounted", ENGINE,
           "        else:\n            self.metrics.fec_rounds_hist[g.attempts_used] += 1\n",
           "        else:\n            pass\n"),
    # playback's array passes
    Mutant("nalu_lost_per_generation", ENGINE,
           "np.logical_or.reduceat(missed, lay.nalu_starts)", "missed",
           T_ENGINE + "test_a_nalu_whose_generations_both_miss_is_lost_once"),
    Mutant("psnr_summed_pairwise", ENGINE,
           "left_sum(np.where(played, lay.psnr_recv, lay.psnr_lost).tolist())",
           "float(np.sum(np.where(played, lay.psnr_recv, lay.psnr_lost)))",
           T_ENGINE + "test_psnr_adds_up_in_frame_order"),
    Mutant("consumer_without_running_max", ENGINE,
           "past = np.maximum.accumulate(np.where(", "past = (np.where(",
           T_ENGINE + "test_a_notice_before_the_display_instant_moves_the_consumer_past_a_lost_frame"),
    # frame decodability
    Mutant("play_gates_on_enhancement", ENGINE,
           "np.where(lay.is_base, complete, -math.inf)", "complete",
           T_ENGINE + "test_a_lost_enhancement_layer_gates_nothing"),
    Mutant("ready_skips_right_parent", STRUCTURE,
           "        np.maximum(mid, grid[:, 2 * step::2 * step], out=mid)\n", "",
           "tests/test_video.py::test_ready_times_match_a_walk_over_each_reference_set"),
    Mutant("ready_without_next_key_frame", STRUCTURE,
           "    grid[:-1, GOP_SIZE] = grid[1:, 0]\n", "",
           T_ENGINE + "test_a_lost_key_frame_cascades"),
    # the sender's plan decision
    Mutant("deadline_decided_before_rank", "src/mcnc/distribution.py",
           "    if report_rank >= plan.k:\n"
           "        plan.delivered = True\n"
           "    elif plan.attempts_used >= MAX_FEC_ATTEMPTS or now >= plan.deadline:\n"
           "        plan.failed = True\n",
           "    if plan.attempts_used >= MAX_FEC_ATTEMPTS or now >= plan.deadline:\n"
           "        plan.failed = True\n"
           "    elif report_rank >= plan.k:\n"
           "        plan.delivered = True\n",
           "tests/test_golden.py::test_fates_golden_digest"),
    # path choice
    Mutant("path_threshold_strict", "src/mcnc/distribution.py",
           "~(snr_db >= self.outage_threshold_db)", "~(snr_db > self.outage_threshold_db)",
           "tests/test_distribution.py::test_selector_hysteresis_band"),
    Mutant("no_report_not_down", "src/mcnc/distribution.py",
           "~(snr_db >= self.outage_threshold_db)", "(snr_db < self.outage_threshold_db)",
           "tests/test_distribution.py::test_selector_treats_stale_feedback_as_unknown"),
    Mutant("fresh_slots_without_rounding_tolerance", "src/mcnc/sim/config.py",
           "self.feedback_interval_s - 1e-9)", "self.feedback_interval_s)"),
    # the links
    Mutant("lte_base_delay_from_mmwave", "src/mcnc/channel.py",
           "self.base_delay_s = cfg.lte_base_delay_s",
           "self.base_delay_s = cfg.mmwave_base_delay_s", LINK_FIELDS),
    Mutant("mmwave_loss_pair_swapped", "src/mcnc/channel.py",
           "(cfg.mmwave_loss_los, cfg.mmwave_loss_nlos)",
           "(cfg.mmwave_loss_nlos, cfg.mmwave_loss_los)", LINK_FIELDS),
    Mutant("lte_bandwidth_unsplit", "src/mcnc/channel.py",
           "cfg.lte_bandwidth_hz / cfg.n_ues", "cfg.lte_bandwidth_hz",
           LINK_FIELDS),
    Mutant("transmit_step_diverges_from_steps", "src/mcnc/channel.py",
           "i = int(send_start * self.inv_step)", "i = int(send_start * self.inv_step + 1e-9)",
           "tests/test_channel.py::test_transmit_reads_the_step_that_steps_gives"),
    Mutant("report_survival_one_attempt", "src/mcnc/channel.py",
           "ok = draws >= loss ** self.attempts_allowed", "ok = draws >= loss"),
    Mutant("retry_delay_per_attempt", "src/mcnc/channel.py",
           "(attempts - 1) * self.retx_delay_s", "attempts * self.retx_delay_s"),
    Mutant("transmit_clean_attempt_without_base_delay", "src/mcnc/channel.py",
           "(True, busy + self.base_delay_s, 1, send_start)", "(True, busy, 1, send_start)",
           "tests/test_channel.py::test_transmit_matches_the_reference"),
    # the codec: product tables, the decoder's column clear, extract's copies
    Mutant("table_build_one_shift_short", "src/mcnc/gf.py",
           "    for i in range(m):\n", "    for i in range(m - 1):\n",
           "tests/test_gf.py::test_tables_match_the_scalar_reference"),
    Mutant("column_clear_skips_its_first_row", RLNC,
           "hit = f.nonzero()[0]", "hit = f.nonzero()[0][1:]",
           T_RLNC + "test_column_clear_touches_the_rows_with_an_entry_there"),
    Mutant("single_row_copy_reads_the_wrong_pick", RLNC,
           "planes[picks[ends[one] - 1]]", "planes[picks[ends[one] - 2]]",
           T_RLNC + "test_extract_copies_single_row_slots_byte_exact"),
    # the trace tracegen writes
    Mutant("tracegen_seed_default_not_the_runs", TRACEGEN,
           "default=defaults.trace_seed", "default=0",
           T_ENGINE + "test_tracegen_writes_the_trace_a_default_run_synthesizes"),
    Mutant("tracegen_psnr_lost_default_not_the_runs", TRACEGEN,
           "default=defaults.psnr_lost_db", "default=12.0",
           T_ENGINE + "test_tracegen_writes_the_trace_a_default_run_synthesizes"),
    Mutant("tracegen_accepts_a_zero_byte_mean", TRACEGEN,
           "if base_bytes < 1 or enh_bytes < 1:", "if base_bytes < 0 or enh_bytes < 0:",
           "tests/test_video.py::test_synthesize_jitter_range_checked"),
    # the report's packet totals
    Mutant("packet_total_zero_entry", "src/mcnc/sim/metrics.py",
           "                    if n:\n", "                    if True:\n",
           "tests/test_metrics.py::test_burst_counts_make_no_zero_entries"),
    Mutant("drop_pooled_as_delivered", "src/mcnc/sim/metrics.py",
           '(("sent", sent), ("delivered", delivered),\n'
           '                                ("dropped", outage + exhausted))',
           '(("sent", sent), ("delivered", delivered + outage),\n'
           '                                ("dropped", exhausted))',
           "tests/test_metrics.py::test_packet_counting_and_conservation"),
    # output floats summed by the interpreter's sum(), compensated since 3.12
    Mutant("psnr_by_builtin_sum", "src/mcnc/sim/metrics.py",
           "min(left_sum(u.psnr_sum_db", "min(sum(u.psnr_sum_db",
           "tests/test_golden.py::test_golden_digest_under_a_compensated_sum"),
    Mutant("summary_mean_by_builtin_sum", "src/mcnc/sim/montecarlo.py",
           "mean = left_sum(xs) / n", "mean = sum(xs) / n",
           "tests/test_golden.py::test_summaries_under_a_compensated_sum"),
    Mutant("summary_variance_by_builtin_sum", "src/mcnc/sim/montecarlo.py",
           "var = left_sum(", "var = sum(",
           "tests/test_golden.py::test_summaries_under_a_compensated_sum"),
)


def occurrences(m: Mutant) -> int:
    return (ROOT / m.path).read_text(encoding="utf-8").count(m.old)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no test named)"


def run_tests(m: Optional[Mutant] = None,
              tests: Sequence[str] = FAST_TESTS) -> Tuple[bool, str, float]:
    """(failed, the first failing test, seconds): tests, by default the
    fast ones, on a copy of the tree, with m planted in it if given."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        for name in TREE_FILES:
            shutil.copy2(ROOT / name, tree / name)
        if m is not None:
            target = tree / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new, 1),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if proc.returncode == 0:
        return False, "", elapsed
    return True, _first_failure(proc.stdout), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the entries and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error("unknown entries: " + ", ".join(unknown))
    chosen = [by_name[n] for n in args.names] if args.names else list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:40s} {m.path}  {'must kill' if m.must_kill else 'may survive'}")
        return 0
    stale = [m.name for m in chosen if occurrences(m) != 1]
    if stale:
        print("text not found exactly once: " + ", ".join(stale), file=sys.stderr)
        return 2
    broken, by, seconds = run_tests()
    if broken:
        print(f"the unplanted tree fails its tests ({by}, {seconds:.1f} s)", file=sys.stderr)
        return 2
    failed = False
    for m in chosen:
        killed, by, seconds = run_tests(m)
        # a parametrized test fails under its id with the parameters
        if killed and m.catcher is not None and by.split("[")[0] != m.catcher:
            caught, _, alone = run_tests(m, (m.catcher,))
            seconds += alone
            if not caught:
                failed = failed or m.must_kill
                print(f"{'catcher silent':14s} {m.name:40s} {seconds:6.1f} s  {by}, "
                      f"but {m.catcher} passes", flush=True)
                continue
            by += f"  (and {m.catcher} alone)"
        if killed:
            print(f"{'killed':14s} {m.name:40s} {seconds:6.1f} s  {by}", flush=True)
        else:
            failed = failed or m.must_kill
            label = "SURVIVED" if m.must_kill else "survived"
            print(f"{label:14s} {m.name:40s} {seconds:6.1f} s  {m.why}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
