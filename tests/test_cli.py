"""CLI: every command runs through the public API and exits cleanly."""

from pathlib import Path

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_uarches(capsys):
    code, out = run(capsys, "uarches")
    assert code == 0
    assert "Zen 2" in out and "Intel 13th gen" in out
    assert "fetch+decode" in out and "uops" in out


def test_matrix_single_uarch(capsys):
    code, out = run(capsys, "matrix", "--uarch", "zen 1")
    assert code == 0
    assert "Zen 1" in out
    assert "EX" in out


def test_kaslr(capsys):
    code, out = run(capsys, "kaslr", "--uarch", "zen 3", "--seed", "5")
    assert code == 0
    assert "SUCCESS" in out


def test_covert(capsys):
    code, out = run(capsys, "covert", "--uarch", "zen 4", "--bits", "64")
    assert code == 0
    assert "fetch channel" in out
    assert "execute channel" not in out   # Zen 4 has no execute window


def test_covert_zen2_has_execute(capsys):
    code, out = run(capsys, "covert", "--uarch", "zen 2", "--bits", "64")
    assert code == 0
    assert "execute channel" in out


def test_gadgets(capsys):
    code, out = run(capsys, "gadgets", "--functions", "120", "--seed", "1")
    assert code == 0
    assert "Phantom-exploitable" in out


def test_rev_btb(capsys):
    code, out = run(capsys, "rev-btb", "--samples", "120000")
    assert code == 0
    assert "b47" in out
    assert "alias pattern" in out


def test_trace(capsys):
    code, out = run(capsys, "trace", "--nr", "39", "--limit", "40")
    assert code == 0
    assert "syscall" in out
    assert " K " in out   # kernel-mode instructions traced


def test_unknown_uarch_errors(capsys):
    with pytest.raises(KeyError):
        main(["kaslr", "--uarch", "zen 9"])


def test_missing_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_kaslr_json_emits_valid_manifest(capsys):
    import json

    from repro.telemetry import validate_manifest

    code, out = run(capsys, "kaslr", "--uarch", "zen2", "--json")
    assert code == 0
    doc = json.loads(out)          # manifest only: no text around it
    validate_manifest(doc)
    assert doc["command"] == "kaslr"
    assert doc["outcome"]["status"] == "success"
    assert doc["config"]["uarch"] == "Zen 2"
    assert doc["totals"]["cycles"] > 0
    assert doc["phases"][0]["name"] == "break-image-kaslr"


def test_matrix_jobs_flag_matches_serial(capsys):
    code, serial = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "1")
    assert code == 0
    code, pooled = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "2")
    assert code == 0
    assert pooled == serial          # identical table at any worker count


def test_kaslr_jobs_manifest_fingerprint_stable(capsys):
    import json

    from repro.runner import manifest_fingerprint

    docs = []
    for jobs in ("1", "2"):
        code, out = run(capsys, "kaslr", "--uarch", "zen2",
                        "--jobs", jobs, "--json")
        assert code == 0
        docs.append(json.loads(out))
    a, b = (manifest_fingerprint(d) for d in docs)
    assert a == b


def test_uarch_names_are_separator_insensitive(capsys):
    code, _ = run(capsys, "kaslr", "--uarch", "Zen-3", "--seed", "5")
    assert code == 0


def test_gadgets_json_valid(capsys):
    import json

    from repro.telemetry import validate_manifest

    code, out = run(capsys, "gadgets", "--functions", "60", "--json")
    assert code == 0
    doc = json.loads(out)
    validate_manifest(doc)
    assert doc["outcome"]["phantom_exploitable"] >= 0


def test_trace_out_writes_jsonl(capsys, tmp_path):
    from repro.telemetry import TRACE_SCHEMA, read_jsonl

    path = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "trace", "--nr", "39", "--limit", "40",
                  "--trace-out", str(path))
    assert code == 0
    events = read_jsonl(path)
    assert events
    assert all(e["schema"] == TRACE_SCHEMA for e in events)
    assert {"retire", "syscall"} <= {e["kind"] for e in events}
    assert not __import__("repro.telemetry", fromlist=["TRACE"]).TRACE.enabled


def test_results_dir_archives_manifest(capsys, tmp_path):
    from repro.telemetry import RunManifest, validate_manifest

    code, out = run(capsys, "gadgets", "--functions", "60",
                    "--results-dir", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.glob("gadgets-*.json")
    assert str(path) in out
    validate_manifest(RunManifest.load(path))


def test_stats_summarizes_one_manifest(capsys, tmp_path):
    code, out = run(capsys, "gadgets", "--functions", "60",
                    "--results-dir", str(tmp_path))
    (path,) = tmp_path.glob("gadgets-*.json")
    code, out = run(capsys, "stats", str(path))
    assert code == 0
    assert "run: gadgets" in out
    assert "status: success" in out


def test_stats_diffs_two_manifests(capsys, tmp_path):
    run(capsys, "gadgets", "--functions", "60",
        "--results-dir", str(tmp_path / "a"))
    run(capsys, "gadgets", "--functions", "90",
        "--results-dir", str(tmp_path / "b"))
    (a,) = (tmp_path / "a").glob("*.json")
    (b,) = (tmp_path / "b").glob("*.json")
    code, out = run(capsys, "stats", str(a), str(b))
    assert code == 0
    assert "diff: gadgets" in out


#: A manifest written while the registry still exported gauge and
#: histogram blocks (``benchmarks/results/pmc_overhead.manifest.json``
#: as it was then).
MANIFEST_WITH_HISTOGRAMS = (Path(__file__).parent / "data"
                            / "manifest-with-histograms.json")


def test_campaign_manifest_holds_one_counter_per_quantity(capsys):
    import json

    from repro.pipeline.pmc import EVENTS

    code, out = run(capsys, "matrix", "--uarch", "zen2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["metrics"]) == {"counters", "base_labels"}
    counters = doc["metrics"]["counters"]
    # Every counter here has no PMC twin, or is one perfbench reads
    # (speculation episodes, BTB installs, predictions, cache levels).
    assert {key.partition("{")[0] for key in counters} == {
        "bpu_predictions", "btb_installs", "cache_evictions",
        "cache_hits", "cache_misses", "speculation_episodes"}
    for level in ("uop", "L1I", "L1D"):
        assert f"cache_hits{{level={level}}}" in counters
        assert f"cache_misses{{level={level}}}" in counters
    assert set(doc["pmc"]) == set(EVENTS)
    assert "cycles" not in doc["pmc"]       # totals.cycles holds them
    assert doc["totals"]["cycles"] > 0


def test_stats_reads_manifests_with_histogram_blocks(capsys, tmp_path):
    import json

    from repro.telemetry import validate_manifest

    validate_manifest(json.loads(MANIFEST_WITH_HISTOGRAMS.read_text()))
    code, out = run(capsys, "stats", str(MANIFEST_WITH_HISTOGRAMS))
    assert code == 0
    assert "run: bench-pmc-overhead" in out
    assert "speedup" in out
    run(capsys, "gadgets", "--functions", "60",
        "--results-dir", str(tmp_path))
    (current,) = tmp_path.glob("gadgets-*.json")
    code, out = run(capsys, "stats", str(MANIFEST_WITH_HISTOGRAMS),
                    str(current))
    assert code == 0
    assert "diff: bench-pmc-overhead" in out
    assert "histograms" not in out


def _write_bench_doc(path, speedup=10.0):
    import json

    from repro.bench import WorkloadResult, document

    result = WorkloadResult(
        name="branch_heavy", iterations=10, instructions=100,
        slow_seconds=speedup, fast_seconds=1.0, speedup=speedup)
    path.write_text(json.dumps(document([result])))
    return path


def test_stats_summarizes_bench_document(capsys, tmp_path):
    path = _write_bench_doc(tmp_path / "bench.json")
    code, out = run(capsys, "stats", str(path))
    assert code == 0
    assert "branch_heavy" in out
    assert "10.00x" in out


def test_stats_diffs_two_bench_documents(capsys, tmp_path):
    a = _write_bench_doc(tmp_path / "a.json", speedup=10.0)
    b = _write_bench_doc(tmp_path / "b.json", speedup=12.0)
    code, out = run(capsys, "stats", str(a), str(b))
    assert code == 0
    assert "+2.00x" in out


def test_stats_refuses_mixed_document_kinds(capsys, tmp_path):
    run(capsys, "gadgets", "--functions", "60",
        "--results-dir", str(tmp_path))
    (manifest,) = tmp_path.glob("gadgets-*.json")
    bench = _write_bench_doc(tmp_path / "bench.json")
    code = main(["stats", str(manifest), str(bench)])
    assert code == 2
    assert "cannot diff" in capsys.readouterr().err


def test_stats_rejects_three_manifests(capsys):
    code = main(["stats", "a.json", "b.json", "c.json"])
    assert code == 2


def test_stats_rejects_non_manifest_json(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    code = main(["stats", str(bogus)])
    assert code == 2
    assert "not a run manifest" in capsys.readouterr().err


def test_stats_missing_file(capsys):
    code = main(["stats", "/nonexistent/run.json"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_matrix_results_dir_checkpoints_and_resumes(capsys, tmp_path):
    import json

    code, _ = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "1",
                  "--results-dir", str(tmp_path))
    assert code == 0
    checkpoint = tmp_path / "matrix-checkpoint.jsonl"
    assert checkpoint.exists()
    code, out = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "1",
                    "--resume", str(checkpoint), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"]["resume"]["jobs_skipped"] == 22
    assert doc["outcome"]["resume"]["jobs_rerun"] == 0


def test_spans_flag_captures_and_stitches(capsys, tmp_path):
    from repro.telemetry import read_spans, stitch, validate_span

    spans = tmp_path / "spans"
    code, out = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "1",
                    "--spans", str(spans))
    assert code == 0
    assert f"spans: {spans / 'trace.jsonl'}" in out
    assert (spans / "trace.jsonl").exists()
    records = read_spans(spans)
    for record in records:
        validate_span(record)
    trace = stitch(records)
    assert trace.problems() == []
    names = {r["name"] for r in trace.spans}
    assert "run:matrix" in names and "campaign:matrix" in names
    assert "measure:decode" in names and "boot" in names


def test_spans_structure_identical_at_any_jobs(capsys, tmp_path):
    from repro.telemetry import read_spans, stitch, trace_structure

    structures = []
    for jobs in ("1", "2"):
        spans = tmp_path / f"jobs{jobs}"
        code, _ = run(capsys, "matrix", "--uarch", "zen 1",
                      "--jobs", jobs, "--spans", str(spans))
        assert code == 0
        structures.append(trace_structure(stitch(read_spans(spans))))
    assert structures[0] == structures[1]


def test_trace_summarize_renders_critical_path(capsys, tmp_path):
    spans = tmp_path / "spans"
    run(capsys, "kaslr", "--uarch", "zen3", "--spans", str(spans))
    code, out = run(capsys, "trace", "summarize", str(spans))
    assert code == 0
    assert "critical path:" in out
    assert "run:kaslr" in out
    assert "spans by name:" in out


def test_trace_summarize_empty_capture_fails(capsys, tmp_path):
    code = main(["trace", "summarize", str(tmp_path)])
    assert code == 2
    assert "no phantom.span/1 records" in capsys.readouterr().err


def test_trace_export_perfetto(capsys, tmp_path):
    import json

    spans = tmp_path / "spans"
    run(capsys, "kaslr", "--uarch", "zen3", "--spans", str(spans))
    out_file = tmp_path / "trace.json"
    code, _ = run(capsys, "trace", "export", str(spans),
                  "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["otherData"]["schema"] == "phantom.span/1"
    assert doc["traceEvents"]
    assert all(e["ph"] == "X" for e in doc["traceEvents"])
    assert any(e["name"] == "run:kaslr" for e in doc["traceEvents"])


def test_trace_export_openmetrics_from_manifest(capsys, tmp_path):
    run(capsys, "kaslr", "--uarch", "zen3",
        "--results-dir", str(tmp_path))
    (manifest,) = tmp_path.glob("kaslr-2*.json")
    code, out = run(capsys, "trace", "export", str(manifest),
                    "--format", "openmetrics")
    assert code == 0
    assert "# TYPE phantom_" in out
    assert "phantom_pmc_" in out
    assert out.rstrip().endswith("# EOF")


def test_progress_flag_streams_events(capsys, tmp_path):
    import json

    progress = tmp_path / "progress.jsonl"
    code, _ = run(capsys, "matrix", "--uarch", "zen 1", "--jobs", "1",
                  "--progress", str(progress))
    assert code == 0
    events = [json.loads(line)
              for line in progress.read_text().splitlines()]
    assert events[0]["event"] == "campaign_begin"
    assert events[-1]["event"] == "campaign_end"
    assert events[-1]["status"] == "success"
    assert all(e["schema"] == "phantom.progress/1" for e in events)
    done = [e for e in events if e["event"] == "job_done"]
    assert len(done) == 22                  # one per matrix cell
    assert done[-1]["done"] == 22


def test_interrupted_campaign_exit_codes(capsys, monkeypatch):
    """Ctrl-C exits 130 and a broken worker pool exits 1; both print
    the resume command for the flushed journal."""
    from concurrent.futures.process import BrokenProcessPool

    from repro import cli
    from repro.runner import CampaignInterrupted

    def interrupted(broken):
        def command(args):
            raise CampaignInterrupted(
                "campaign 'x' interrupted; resume from j.jsonl",
                checkpoint="j.jsonl") from (
                    BrokenProcessPool() if broken else None)
        return command

    for broken, want in ((False, 130), (True, 1)):
        monkeypatch.setattr(cli, "cmd_uarches", interrupted(broken))
        assert cli.main(["uarches"]) == want
        assert "--resume j.jsonl" in capsys.readouterr().err


def test_campaign_flags_share_one_record(capsys, tmp_path):
    """--jobs/--resume come from CampaignOptions on every campaign
    command (the six copies of flag plumbing are gone)."""
    from repro.cli import build_parser

    parser = build_parser()
    for command in ("matrix", "kaslr", "physmap", "leak", "covert",
                    "fuzz"):
        args = parser.parse_args([command, "--jobs", "3",
                                  "--resume", "j.jsonl"])
        from repro.runner import CampaignOptions
        options = CampaignOptions.from_args(args)
        assert options.jobs == 3
        assert options.resume == "j.jsonl"
    # fuzz keeps its serial default
    assert parser.parse_args(["fuzz"]).jobs == 1
    assert parser.parse_args(["matrix"]).jobs == 0


def test_checkpoint_every_flag_is_a_usage_error(capsys):
    """The journal flushes after every job; the old cadence flag must
    fail loudly rather than be accepted and ignored."""
    with pytest.raises(SystemExit) as info:
        main(["kaslr", "--checkpoint-every", "2"])
    assert info.value.code == 2
    assert "--checkpoint-every" in capsys.readouterr().err


def test_trace_out_with_a_worker_pool_is_a_usage_error(capsys, tmp_path):
    """Forked workers would share the parent's open trace file."""
    path = tmp_path / "trace.jsonl"
    code = main(["matrix", "--uarch", "zen2", "--jobs", "2",
                 "--trace-out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "--jobs 1" in err
    assert not path.exists()


def test_trace_out_with_one_worker_writes_whole_lines(capsys, tmp_path):
    from repro.telemetry import TRACE, read_jsonl

    path = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "matrix", "--uarch", "zen2", "--jobs", "1",
                  "--trace-out", str(path))
    assert code == 0
    events = read_jsonl(path)     # raises on a torn line
    kinds = {e["kind"] for e in events}
    assert {"retire", "episode", "resteer"} <= kinds
    assert not TRACE.enabled
