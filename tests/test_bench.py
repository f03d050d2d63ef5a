"""The bench harness: document shape, comparison, superblock stats.

The actual throughput numbers are host-dependent and untestable; what
is pinned here is everything around them — engines retiring identical
instruction counts, superblock statistics landing in the document,
regression comparison logic, and the summarize/diff text paths the
``repro stats`` command uses for ``phantom.bench/1`` documents.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (BENCH_SCHEMA, WORKLOADS, WorkloadResult, compare,
                         diff_bench, document, is_bench_document,
                         load_document, summarize_bench, _run_program,
                         _straight_line)
from repro.cli import main


def make_result(name="branch_heavy", speedup=10.0, stats=None):
    return WorkloadResult(name=name, iterations=100, instructions=1000,
                          slow_seconds=speedup, fast_seconds=1.0,
                          superblocks=stats)


class TestWorkloadResult:
    def test_speedup_and_ips(self):
        r = make_result(speedup=8.0)
        assert r.speedup == 8.0
        assert r.fast_ips == 1000.0
        assert r.slow_ips == 125.0

    def test_to_dict_includes_superblocks_when_present(self):
        stats = {"compiled": 3, "fused_instructions": 30}
        assert make_result(stats=stats).to_dict()["superblocks"] == stats
        assert "superblocks" not in make_result().to_dict()


class TestDocument:
    def test_schema_and_detection(self):
        doc = document([make_result()], quick=True)
        assert doc["schema"] == BENCH_SCHEMA
        assert is_bench_document(doc)
        assert not is_bench_document({"schema": "phantom.run/1"})
        assert not is_bench_document([])

    def test_compare_flags_regressions_only_beyond_tolerance(self):
        baseline = document([make_result(speedup=10.0)])
        ok = document([make_result(speedup=8.0)])
        bad = document([make_result(speedup=6.0)])
        assert compare(ok, baseline, tolerance=0.3) == []
        problems = compare(bad, baseline, tolerance=0.3)
        assert len(problems) == 1
        assert "branch_heavy" in problems[0]

    def test_compare_rejects_non_bench_baseline(self):
        with pytest.raises(ValueError):
            compare(document([make_result()]), {"schema": "nope"})

    def test_summarize_mentions_superblock_stats(self):
        stats = {"compiled": 4, "mean_length": 12.0, "cycles_skipped": 77}
        text = summarize_bench(document([make_result(stats=stats)]))
        assert "branch_heavy" in text
        assert "compiled=4" in text
        assert "cycles_skipped=77" in text

    def test_diff_reports_speedup_delta_and_stat_changes(self):
        a = document([make_result(speedup=10.0,
                                  stats={"compiled": 4, "probe_bails": 0})])
        b = document([make_result(speedup=12.0,
                                  stats={"compiled": 4, "probe_bails": 9})])
        text = diff_bench(a, b)
        assert "+2.00x" in text
        assert "probe_bails 0 -> 9" in text
        assert "compiled" not in text   # unchanged stats stay silent

    def test_diff_notes_missing_workloads(self):
        a = document([make_result(name="syscall")])
        b = document([make_result(name="idle_loop")])
        text = diff_bench(a, b)
        assert "only in A" in text and "only in B" in text


class TestRunners:
    def test_program_runner_returns_superblock_stats(self):
        instrs, wall, stats = _run_program(_straight_line, 50, True)
        assert instrs > 0 and wall > 0
        assert stats["compiled"] >= 1
        assert stats["fused_instructions"] >= 3 * stats["compiled"]
        assert stats["mean_length"] > 0

    def test_fresh_stats_omit_retired_keys(self):
        _, _, stats = _run_program(_straight_line, 20, True)
        doc = document([make_result(stats=stats)])
        written = doc["workloads"][0]["superblocks"]
        assert "transient_compiled" not in written
        assert "cycles_skipped" not in written

    def test_workload_registry_matches_sizes(self):
        from repro.bench import _SIZES
        assert set(WORKLOADS) == set(_SIZES)


class TestCommittedBaseline:
    """The committed baseline predates the retired stat keys; it must
    still summarise and diff through ``repro stats``."""

    BASELINE = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "results" / "BENCH_simulator.json")

    def test_summary_renders_retired_keys(self, capsys):
        assert main(["stats", str(self.BASELINE)]) == 0
        out = capsys.readouterr().out
        assert "branch_heavy" in out
        assert "transient_compiled=" in out
        assert "cycles_skipped=0" in out

    def test_diff_against_fresh_document(self, capsys, tmp_path):
        baseline = load_document(str(self.BASELINE))
        fresh = copy.deepcopy(baseline)
        for entry in fresh["workloads"]:
            stats = entry["superblocks"]
            del stats["transient_compiled"], stats["cycles_skipped"]
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(fresh))
        assert main(["stats", str(self.BASELINE), str(path)]) == 0
        out = capsys.readouterr().out
        assert "branch_heavy" in out
        assert "transient_compiled" not in out   # one-sided keys skip
