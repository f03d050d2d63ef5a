"""Exporters: Chrome trace-event JSON and OpenMetrics text."""

import json

from repro.telemetry import to_chrome_trace, to_openmetrics


def _record(name, span_id, parent_id, *, start=100.0, duration=0.25,
            status="ok", pid=7, attrs=None):
    return {"schema": "phantom.span/1", "name": name, "trace_id": "t" * 32,
            "span_id": span_id, "parent_id": parent_id, "start_s": start,
            "duration_s": duration, "status": status, "pid": pid,
            "attrs": attrs or {}}


# -- Chrome trace events -----------------------------------------------------

def test_chrome_trace_is_valid_json_with_complete_events():
    records = [
        _record("run:matrix", "rr", None, start=100.0, duration=2.0),
        _record("job", "jj", "rr", start=100.5, duration=0.5,
                attrs={"attempt": 0}),
    ]
    doc = json.loads(json.dumps(to_chrome_trace(records)))
    assert doc["otherData"]["schema"] == "phantom.span/1"
    assert doc["otherData"]["trace_id"] == "t" * 32
    events = doc["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    by_name = {e["name"]: e for e in events}
    # Timestamps rebase to the earliest span, in microseconds.
    assert by_name["run:matrix"]["ts"] == 0.0
    assert by_name["job"]["ts"] == 500_000.0
    assert by_name["job"]["dur"] == 500_000.0
    assert by_name["job"]["args"]["attempt"] == 0
    assert by_name["job"]["args"]["parent_id"] == "rr"


def test_chrome_trace_tracks_processes_and_flags_errors():
    records = [
        _record("a", "aa", None, pid=1),
        _record("b", "bb", "aa", pid=2, status="error"),
    ]
    events = to_chrome_trace(records)["traceEvents"]
    assert {e["pid"] for e in events} == {1, 2}
    by_name = {e["name"]: e for e in events}
    assert by_name["a"]["cat"] == "phantom"
    assert by_name["b"]["cat"] == "phantom,error"


def test_chrome_trace_of_nothing_is_still_a_document():
    doc = to_chrome_trace([])
    assert doc["traceEvents"] == []
    assert doc["otherData"]["trace_id"] == ""


# -- OpenMetrics -------------------------------------------------------------

def test_openmetrics_renders_counters():
    text = to_openmetrics({"counters": {"btb.installs": 12}})
    assert "# TYPE phantom_btb_installs counter" in text
    assert "phantom_btb_installs_total 12" in text
    assert text.endswith("# EOF\n")


def test_openmetrics_merges_instrument_and_base_labels():
    metrics = {
        "counters": {"leaks{channel=fetch}": 9},
        "base_labels": {"uarch": "zen2"},
    }
    text = to_openmetrics(metrics)
    assert 'phantom_leaks_total{channel="fetch",uarch="zen2"} 9' in text


def test_openmetrics_exports_pmc_bank_as_counters():
    text = to_openmetrics({"counters": {}},
                          pmc={"de_dis_uop_queue_empty": 41})
    assert "# TYPE phantom_pmc_de_dis_uop_queue_empty counter" in text
    assert "phantom_pmc_de_dis_uop_queue_empty_total 41" in text

