"""The span layer: recorder lifecycle, deterministic ids, stitching."""

import json
from pathlib import Path

import pytest

from repro.telemetry import SchemaError
from repro.telemetry.spans import (SPAN_JSON_SCHEMA, SPANS, STITCHED_NAME,
                                   SpanRecorder, TraceContext, critical_path,
                                   derive_span_id, new_trace_id, read_spans,
                                   stitch, stitch_to_file, summarize_trace,
                                   trace_structure, validate_span)

SCHEMA_COPY = Path(__file__).parent.parent / "data" / "span.schema.json"


def test_checked_in_span_schema_matches_canonical():
    # The copy CI validates against must never drift from the source.
    assert json.loads(SCHEMA_COPY.read_text()) == SPAN_JSON_SCHEMA


# -- ids ---------------------------------------------------------------------

def test_trace_ids_are_fresh_128_bit_hex():
    a, b = new_trace_id(), new_trace_id()
    assert a != b
    assert len(a) == 32 and int(a, 16) >= 0


def test_span_ids_derive_from_causal_coordinates_only():
    tid = "ab" * 16
    base = derive_span_id(tid, "p" * 16, "measure:fetch", 0)
    assert base == derive_span_id(tid, "p" * 16, "measure:fetch", 0)
    assert len(base) == 16
    # Any causal coordinate moving moves the id.
    assert base != derive_span_id(tid, "p" * 16, "measure:fetch", 1)
    assert base != derive_span_id(tid, "p" * 16, "measure:decode", 0)
    assert base != derive_span_id(tid, "q" * 16, "measure:fetch", 0)
    assert base != derive_span_id("cd" * 16, "p" * 16, "measure:fetch", 0)


# -- recorder lifecycle ------------------------------------------------------

def test_disabled_recorder_is_a_no_op(tmp_path):
    recorder = SpanRecorder()
    assert not recorder.enabled
    assert recorder.context() is None
    with recorder.span("anything", attempt=0) as span:
        span.set(status="error", note="ignored")
    recorder.event("also-ignored")
    assert recorder.finish() is None
    assert list(tmp_path.iterdir()) == []


def test_records_are_schema_valid_and_nested(tmp_path):
    recorder = SpanRecorder()
    recorder.start(tmp_path, name="unit")
    with recorder.span("campaign:toy", jobs=1):
        with recorder.span("job"):
            pass
    span_dir = recorder.finish()
    assert span_dir == tmp_path
    records = read_spans(span_dir)
    assert len(records) == 3
    for record in records:
        validate_span(record)
    by_name = {r["name"]: r for r in records}
    assert by_name["run:unit"]["parent_id"] is None
    assert by_name["campaign:toy"]["parent_id"] \
        == by_name["run:unit"]["span_id"]
    assert by_name["job"]["parent_id"] == by_name["campaign:toy"]["span_id"]
    assert by_name["campaign:toy"]["attrs"] == {"jobs": 1}


def test_malformed_span_record_is_rejected():
    with pytest.raises(SchemaError):
        validate_span({"schema": "phantom.span/1", "name": "x"})


def test_escaping_exception_marks_the_span_error(tmp_path):
    recorder = SpanRecorder()
    recorder.start(tmp_path, name="unit")
    with pytest.raises(RuntimeError):
        with recorder.span("doomed"):
            raise RuntimeError("boom")
    recorder.finish()
    by_name = {r["name"]: r for r in read_spans(tmp_path)}
    assert by_name["doomed"]["status"] == "error"
    assert by_name["run:unit"]["status"] == "ok"


def test_finish_closes_dangling_spans_and_stamps_root_status(tmp_path):
    recorder = SpanRecorder()
    recorder.start(tmp_path, name="unit")
    recorder._open("left-open", recorder.current_id)
    recorder.finish(status="error")
    by_name = {r["name"]: r for r in read_spans(tmp_path)}
    assert "left-open" in by_name
    assert by_name["run:unit"]["status"] == "error"
    assert not recorder.enabled


def test_events_are_zero_duration_spans(tmp_path):
    recorder = SpanRecorder()
    recorder.start(tmp_path, name="unit")
    recorder.event("checkpoint:write_error", status="error", job="j0")
    recorder.finish()
    by_name = {r["name"]: r for r in read_spans(tmp_path)}
    event = by_name["checkpoint:write_error"]
    validate_span(event)
    assert event["duration_s"] == 0.0
    assert event["status"] == "error"
    assert event["attrs"] == {"job": "j0"}


def test_adopt_is_idempotent_per_process(tmp_path):
    recorder = SpanRecorder()
    ctx = TraceContext(trace_id=new_trace_id(), parent_span_id="f" * 16,
                       span_dir=str(tmp_path))
    recorder.adopt(ctx)
    first = recorder._fh
    recorder.adopt(ctx)          # reused pool worker: same file
    assert recorder._fh is first
    with recorder.span("job", parent_id=ctx.parent_span_id, seq=0):
        pass
    recorder.finish()
    files = [p.name for p in tmp_path.glob("*.jsonl")]
    assert len(files) == 1 and files[0].startswith("worker-")
    [record] = read_spans(tmp_path)
    assert record["trace_id"] == ctx.trace_id
    assert record["parent_id"] == ctx.parent_span_id


def test_context_carries_innermost_span(tmp_path):
    recorder = SpanRecorder()
    root = recorder.start(tmp_path, name="unit")
    assert recorder.context().parent_span_id == root.span_id
    with recorder.span("campaign:toy") as campaign:
        ctx = recorder.context()
        assert ctx.parent_span_id == campaign.span_id
        assert ctx.span_dir == str(tmp_path)
        assert ctx.trace_id == recorder.trace_id
    recorder.finish()


# -- stitching ---------------------------------------------------------------

def _record(name, span_id, parent_id, *, start=0.0, duration=0.0,
            status="ok", pid=1, trace_id="t" * 32):
    return {"schema": "phantom.span/1", "name": name, "trace_id": trace_id,
            "span_id": span_id, "parent_id": parent_id, "start_s": start,
            "duration_s": duration, "status": status, "pid": pid,
            "attrs": {}}


def test_stitch_orders_parents_before_children():
    records = [
        _record("leaf-b", "bb", "aa", start=3.0),
        _record("root", "rr", None, start=0.0, duration=5.0),
        _record("leaf-a", "aa", "rr", start=1.0, duration=3.0),
    ]
    trace = stitch(records)
    assert [r["name"] for r in trace.spans] == ["root", "leaf-a", "leaf-b"]
    assert trace.problems() == []


def test_stitch_collects_orphans_instead_of_dropping():
    records = [
        _record("root", "rr", None),
        _record("lost-parent-child", "oo", "zz", start=9.0),
    ]
    trace = stitch(records)
    assert [r["name"] for r in trace.orphans] == ["lost-parent-child"]
    assert trace.spans[-1]["name"] == "lost-parent-child"
    problems = trace.problems()
    assert any("orphan" in p for p in problems)


def test_stitch_flags_multiple_roots():
    trace = stitch([_record("a", "aa", None), _record("b", "bb", None)])
    assert any("exactly one root" in p for p in trace.problems())


def test_stitch_to_file_writes_and_rereads_cleanly(tmp_path):
    recorder = SpanRecorder()
    recorder.start(tmp_path, name="unit")
    with recorder.span("phase"):
        pass
    recorder.finish()
    out = stitch_to_file(tmp_path)
    assert out == tmp_path / STITCHED_NAME
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["name"] for r in lines] == ["run:unit", "phase"]
    # The stitched file is excluded when re-reading the directory.
    assert len(read_spans(tmp_path)) == 2


def test_read_spans_skips_torn_lines(tmp_path):
    path = tmp_path / "worker-1.jsonl"
    good = _record("ok", "aa", None)
    path.write_text(json.dumps(good) + "\n" + '{"schema": "phantom.sp')
    assert read_spans(tmp_path) == [good]


def test_trace_structure_ignores_timing_ids_and_pids():
    def build(start_offsets, pids):
        return [
            _record("root", "rr", None, start=start_offsets[0],
                    pid=pids[0]),
            _record("job-a", "aa", "rr", start=start_offsets[1],
                    pid=pids[1]),
            _record("job-b", "bb", "rr", start=start_offsets[2],
                    pid=pids[2]),
        ]

    serial = stitch(build([0.0, 1.0, 2.0], [1, 1, 1]))
    pooled = stitch(build([5.0, 7.5, 6.0], [1, 2, 3]))
    assert trace_structure(serial) == trace_structure(pooled)
    # But a different shape is a different structure.
    reparented = [
        _record("root", "rr", None),
        _record("job-a", "aa", "rr"),
        _record("job-b", "bb", "aa"),
    ]
    assert trace_structure(stitch(reparented)) != trace_structure(serial)


def test_critical_path_follows_longest_children():
    records = [
        _record("root", "rr", None, duration=10.0),
        _record("fast", "ff", "rr", duration=1.0),
        _record("slow", "ss", "rr", duration=8.0),
        _record("slow-leaf", "sl", "ss", duration=7.0),
    ]
    path = [r["name"] for r in critical_path(stitch(records))]
    assert path == ["root", "slow", "slow-leaf"]
    assert critical_path(stitch([])) == []


def test_summarize_trace_renders_table_and_errors():
    records = [
        _record("root", "rr", None, duration=4.0),
        _record("job", "aa", "rr", duration=1.5),
        _record("job", "bb", "rr", duration=0.5, status="error"),
    ]
    text = "\n".join(summarize_trace(stitch(records)))
    assert "3 spans" in text and "root" in text
    assert "critical path:" in text
    assert "spans by name:" in text
    assert "errors: 1 span(s)" in text
    assert summarize_trace(stitch([])) == ["no spans"]


def test_global_recorder_starts_disabled():
    assert SPANS.enabled is False


# -- span budget -------------------------------------------------------------

#: Spans bracket coarse phases (jobs, boots, fast-path compiles), never
#: per-instruction work: at most one span per 1,000 retired
#: instructions on the fast engine's mispredict-heavy steady state.
MAX_SPANS_PER_1000_INSTRUCTIONS = 1.0


def test_branch_heavy_spans_bracket_phases_not_instructions(tmp_path):
    from repro.bench import _SIZES, _branch_heavy, _program

    run = _program(_branch_heavy, _SIZES["branch_heavy"], fastpath=True)
    SPANS.start(tmp_path, name="bench")
    try:
        instructions = run()
    finally:
        SPANS.finish()
    spans = read_spans(tmp_path)
    assert any(s["name"] == "fastpath:compile" for s in spans)
    per_1000 = len(spans) * 1000 / instructions
    assert per_1000 <= MAX_SPANS_PER_1000_INSTRUCTIONS, (
        f"{len(spans)} spans over {instructions:,} instructions")
