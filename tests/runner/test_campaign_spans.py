"""Distributed tracing across the campaign executor.

The guarantees under test: span capture changes nothing about results
or manifests, and the stitched trace has the same *structure* at any
``--jobs`` (timing, pids and worker identity are execution details).
"""

from dataclasses import replace

import pytest

from repro.core.matrix import ASYMMETRIC_COMBOS, MatrixExperiment
from repro.resilience import spec_fingerprint
from repro.runner import manifest_fingerprint, run_campaign
from repro.telemetry import SPANS, TraceContext, validate_span
from repro.telemetry.spans import (read_spans, stitch, trace_structure)

from .test_executor import ToyExperiment


@pytest.fixture(autouse=True)
def reset_spans():
    yield
    SPANS.finish()


def _traced_campaign(tmp_path, jobs):
    span_dir = tmp_path / f"jobs{jobs}"
    SPANS.start(span_dir, name="campaign-test")
    campaign = run_campaign(ToyExperiment(), jobs=jobs)
    SPANS.finish()
    return campaign, read_spans(span_dir)


def test_untraced_campaign_stamps_no_context():
    campaign = run_campaign(ToyExperiment(n=2), jobs=1)
    assert all(r.spec.trace is None for r in campaign.results)


def test_traced_campaign_is_well_formed(tmp_path):
    campaign, records = _traced_campaign(tmp_path, jobs=1)
    for record in records:
        validate_span(record)
    trace = stitch(records)
    assert trace.problems() == []
    names = [r["name"] for r in trace.spans]
    assert names[0] == "run:campaign-test"
    assert "campaign:toy" in names
    assert "reduce" in names
    assert sum(name.startswith("toy[") for name in names) == 6
    # Job spans parent on the campaign span, not on each other.
    by_name = {r["name"]: r for r in trace.spans}
    campaign_id = by_name["campaign:toy"]["span_id"]
    assert by_name["toy[3]"]["parent_id"] == campaign_id
    assert campaign.manifest["outcome"]["status"] == "success"


@pytest.mark.parametrize("jobs", [2, 4])
def test_trace_structure_identical_at_any_jobs(tmp_path, jobs):
    _, serial_records = _traced_campaign(tmp_path, jobs=1)
    _, pooled_records = _traced_campaign(tmp_path, jobs=jobs)
    serial, pooled = stitch(serial_records), stitch(pooled_records)
    assert pooled.problems() == []
    assert trace_structure(pooled) == trace_structure(serial)
    # Workers wrote their own files; stitching still found one root.
    assert len(pooled.roots) == 1


def test_span_ids_are_deterministic_across_runs(tmp_path):
    """Same trace id + same campaign -> byte-equal ids and parents, so
    traces from reruns can be diffed record-for-record."""
    ids = []
    for attempt in range(2):
        span_dir = tmp_path / f"run{attempt}"
        SPANS.start(span_dir, name="campaign-test", trace_id="ab" * 16)
        run_campaign(ToyExperiment(n=3), jobs=1)
        SPANS.finish()
        trace = stitch(read_spans(span_dir))
        ids.append([(r["name"], r["span_id"], r["parent_id"])
                    for r in trace.spans])
    assert ids[0] == ids[1]


def test_manifest_identical_with_tracing_on_and_off(tmp_path):
    plain = run_campaign(ToyExperiment(), jobs=1)
    traced, _ = _traced_campaign(tmp_path, jobs=1)
    assert traced.value == plain.value
    assert (manifest_fingerprint(traced.manifest)
            == manifest_fingerprint(plain.manifest))
    # The stamped context never leaks into job manifests either.
    for result in traced.results:
        assert "trace" not in result.manifest["config"]


def test_trace_context_excluded_from_checkpoint_fingerprint():
    [spec] = ToyExperiment(n=1).job_specs()
    ctx = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8,
                       span_dir="/tmp/anywhere")
    assert spec_fingerprint(replace(spec, trace=ctx)) \
        == spec_fingerprint(spec)


def test_boot_span_names_the_booted_uarch(tmp_path):
    SPANS.start(tmp_path, name="boot-test")
    run_campaign(MatrixExperiment(uarches=("zen2",),
                                  combos=ASYMMETRIC_COMBOS[:1]), jobs=1)
    SPANS.finish()
    boots = [r for r in read_spans(tmp_path) if r["name"] == "boot"]
    assert len(boots) == 3   # one fresh machine per channel
    assert {r["attrs"]["arch"] for r in boots} == {"zen2"}
