"""The bench harness: paired rounds, document shape, comparison.

The actual throughput numbers are host-dependent and untestable; what
is pinned here is everything around them — the paired-rounds order and
statistics, engines retiring identical instruction counts, the
document shape, regression comparison logic, and the summarize/diff
text paths the ``repro stats`` command uses for ``phantom.bench/1``
documents, older ones included.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (BENCH_SCHEMA, ROUNDS, WORKLOADS, Rounds,
                         WorkloadResult, compare, diff_bench, document,
                         is_bench_document, load_document, paired_rounds,
                         summarize_bench, _program, _straight_line)
from repro.cli import main

#: A ``phantom.bench/1`` document written before the paired-rounds
#: protocol: full-size workloads, ``quick: false``, and a per-workload
#: ``superblocks`` stat block (with the ``transient_compiled`` and
#: ``cycles_skipped`` keys retired even before the block was).
OLD_DOCUMENT = Path(__file__).resolve().parent / "data" \
    / "bench-with-retired-keys.json"


def make_result(name="branch_heavy", speedup=10.0, iterations=100):
    return WorkloadResult(name=name, iterations=iterations,
                          instructions=1000, slow_seconds=speedup,
                          fast_seconds=1.0, speedup=speedup)


class TestPairedRounds:
    def test_variants_rotate_and_set_up_once_per_round(self):
        log = []

        def variant(name):
            def setup():
                log.append(f"setup {name}")
                return lambda: log.append(f"run {name}") or name
            return setup

        rounds = paired_rounds({"a": variant("a"), "b": variant("b"),
                                "c": variant("c")})
        runs = [entry[4:] for entry in log if entry.startswith("run")]
        assert runs[:9] == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]
        assert len(runs) == 3 * ROUNDS
        # Every run is set up immediately before it is timed.
        assert log[::2] == [f"setup {name}" for name in runs]
        assert rounds.results == {name: [name] * ROUNDS for name in "abc"}
        assert all(len(ts) == ROUNDS and min(ts) >= 0.0
                   for ts in rounds.seconds.values())

    def test_two_variants_alternate_so_each_leads_half_the_rounds(self):
        order = []
        paired_rounds({name: (lambda n=name: lambda: order.append(n))
                       for name in ("slow", "fast")})
        leads = order[::2]
        assert leads.count("slow") == leads.count("fast") == ROUNDS // 2

    def test_median_and_per_round_ratio_with_iqr(self):
        rounds = Rounds(seconds={"slow": [4.0, 6.0, 9.0, 8.0],
                                 "fast": [2.0, 2.0, 3.0, 1.0]},
                        results={})
        assert rounds.median("slow") == 7.0
        # Per-round ratios 2, 3, 3, 8: the median ignores the outlier
        # round that a ratio of medians (7 / 2) would not.
        ratio, iqr = rounds.ratio("slow", "fast")
        assert ratio == 3.0
        assert iqr == pytest.approx(6.75 - 2.25)


class TestWorkloadResult:
    def test_speedup_and_ips(self):
        r = make_result(speedup=8.0)
        assert r.speedup == 8.0
        assert r.fast_ips == 1000.0
        assert r.slow_ips == 125.0
        assert r.to_dict()["speedup_iqr"] == 0.0


class TestDocument:
    def test_schema_and_detection(self):
        doc = document([make_result()])
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["rounds"] == ROUNDS
        assert "quick" not in doc
        assert is_bench_document(doc)
        assert not is_bench_document({"schema": "phantom.run/1"})
        assert not is_bench_document([])

    def test_compare_flags_regressions_only_beyond_tolerance(self):
        baseline = document([make_result(speedup=10.0)])
        ok = document([make_result(speedup=8.0)])
        bad = document([make_result(speedup=6.0)])
        assert compare(ok, baseline) == []
        problems = compare(bad, baseline)
        assert len(problems) == 1
        assert "branch_heavy" in problems[0]

    def test_compare_rejects_non_bench_baseline(self):
        with pytest.raises(ValueError):
            compare(document([make_result()]), {"schema": "nope"})

    def test_compare_rejects_a_baseline_of_another_size(self):
        old = load_document(str(OLD_DOCUMENT))
        run = document([make_result(iterations=3_000)])
        with pytest.raises(ValueError, match="20000 iterations"):
            compare(run, old)

    def test_cli_exits_2_on_an_unlike_baseline(self, monkeypatch, capsys):
        import repro.bench

        monkeypatch.setattr(repro.bench, "run_bench", lambda workloads: [
            make_result(iterations=3_000)])
        assert main(["bench", "--baseline", str(OLD_DOCUMENT)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bench: cannot compare" in err and "iterations" in err

    def test_quick_and_tolerance_flags_are_usage_errors(self, capsys):
        for flag in (["--quick"], ["--tolerance", "0.3"]):
            with pytest.raises(SystemExit) as info:
                main(["bench", *flag])
            assert info.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_summarize_lists_speedup_and_iqr(self):
        text = summarize_bench(document([make_result(speedup=8.0)]))
        assert "branch_heavy" in text
        assert "8.00x (IQR 0.00)" in text

    def test_diff_reports_speedup_delta(self):
        a = document([make_result(speedup=10.0)])
        b = document([make_result(speedup=12.0)])
        text = diff_bench(a, b)
        assert "+2.00x" in text

    def test_diff_notes_missing_workloads(self):
        a = document([make_result(name="syscall")])
        b = document([make_result(name="idle_loop")])
        text = diff_bench(a, b)
        assert "only in A" in text and "only in B" in text


class TestRunners:
    def test_program_runner_returns_instructions(self):
        fast = _program(_straight_line, 20, True)()
        assert fast == _program(_straight_line, 20, False)() > 20 * 50

    def test_fresh_stats_omit_retired_keys(self):
        written = document([make_result()])["workloads"][0]
        assert "superblocks" not in written
        assert "quick" not in document([make_result()])

    def test_workload_registry_matches_sizes(self):
        from repro.bench import _SIZES
        assert set(WORKLOADS) == set(_SIZES)


class TestCommittedBaseline:
    """A document that predates the paired-rounds protocol and carries
    retired keys must still summarise and diff through ``repro
    stats``; the retired keys are not rendered."""

    BASELINE = OLD_DOCUMENT

    def test_summary_renders_an_older_document(self, capsys):
        assert main(["stats", str(self.BASELINE)]) == 0
        out = capsys.readouterr().out
        assert all(f"{name:16s}" in out for name in WORKLOADS)
        assert "6.61x" in out                    # straight_line's speedup
        assert "superblocks" not in out and "compiled" not in out

    def test_diff_against_fresh_document(self, capsys, tmp_path):
        baseline = load_document(str(self.BASELINE))
        fresh = copy.deepcopy(baseline)
        for entry in fresh["workloads"]:
            del entry["superblocks"]
            entry["speedup"] += 1.0
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(fresh))
        assert main(["stats", str(self.BASELINE), str(path)]) == 0
        out = capsys.readouterr().out
        assert "branch_heavy" in out and "+1.00x" in out
        assert "superblocks" not in out

    def test_diff_against_the_committed_baseline(self, capsys):
        """Old and paired-rounds documents diff even though their
        workload sizes differ (only ``compare`` refuses that)."""
        committed = (Path(__file__).resolve().parent.parent / "benchmarks"
                     / "results" / "BENCH_simulator.json")
        assert main(["stats", str(self.BASELINE), str(committed)]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in WORKLOADS)
