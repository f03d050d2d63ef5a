"""Live progress: the phantom.progress/1 stream and the TTY line."""

import io
import json

from repro.telemetry import PROGRESS_SCHEMA, ProgressReporter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class BrokenStream(io.StringIO):
    def write(self, text):
        raise OSError("broken pipe")


def _reporter(**kwargs):
    clock = FakeClock()
    stream = kwargs.pop("stream", io.StringIO())
    return ProgressReporter(stream=stream, clock=clock, **kwargs), \
        stream, clock


def _events(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines()]


def test_stream_carries_schema_counts_and_eta():
    reporter, stream, clock = _reporter()
    reporter.begin(campaign="matrix", total=4)
    clock.now = 2.0
    reporter.job_done("matrix[zen2/jmp/call]", ok=True)
    clock.now = 4.0
    reporter.job_done("matrix[zen2/jmp/ret]", ok=False)
    reporter.end("partial")
    events = _events(stream)
    assert [e["event"] for e in events] \
        == ["campaign_begin", "job_done", "job_done", "campaign_end"]
    assert all(e["schema"] == PROGRESS_SCHEMA for e in events)
    assert all(e["campaign"] == "matrix" for e in events)
    first_done = events[1]
    assert first_done["job"] == "matrix[zen2/jmp/call]"
    assert first_done["status"] == "success"
    assert first_done["done"] == 1 and first_done["total"] == 4
    # 1 job in 2s -> 0.5 job/s -> 3 remaining in 6s.
    assert first_done["jobs_per_s"] == 0.5
    assert first_done["eta_s"] == 6.0
    assert events[2]["failed"] == 1
    assert events[3]["status"] == "partial"


def test_resumed_jobs_precount_toward_done():
    reporter, stream, clock = _reporter()
    reporter.begin(campaign="kaslr", total=10, done=7)
    assert _events(stream)[0]["done"] == 7
    clock.now = 1.0
    reporter.job_done("kaslr[8]", ok=True)
    assert reporter.done == 8


def test_eta_is_unknown_before_first_completion_and_zero_at_end():
    reporter, stream, clock = _reporter()
    reporter.begin(campaign="toy", total=1)
    assert reporter.snapshot()["eta_s"] is None
    clock.now = 3.0
    reporter.job_done("toy[0]", ok=True)
    assert reporter.snapshot()["eta_s"] == 0.0


def test_tty_renderer_rewrites_one_line():
    tty = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(tty=tty, clock=clock)
    reporter.begin(campaign="toy", total=2)
    clock.now = 1.0
    reporter.job_done("toy[0]", ok=True)
    reporter.end("success")
    text = tty.getvalue()
    assert text.count("\r") >= 2           # rewrites, not scrolls
    assert "[toy]" in text and "1/2" in text
    assert text.endswith("\n")             # final newline on end()


def test_broken_stream_disables_itself_without_killing_the_run():
    reporter = ProgressReporter(stream=BrokenStream(),
                                clock=FakeClock())
    reporter.begin(campaign="toy", total=1)
    assert reporter.stream is None
    reporter.job_done("toy[0]", ok=True)   # must not raise
    reporter.end("success")


def test_begin_resets_counters_between_sequential_campaigns():
    reporter, stream, clock = _reporter()
    reporter.begin(campaign="first", total=1)
    reporter.job_done("first[0]", ok=False)
    reporter.begin(campaign="second", total=3)
    assert reporter.done == 0 and reporter.failed == 0
    assert _events(stream)[-1]["campaign"] == "second"
