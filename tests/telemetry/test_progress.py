"""Live progress: the TTY line fed by the executor's completion
callback."""

import io
from types import SimpleNamespace

from repro.telemetry import ProgressReporter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class BrokenStream(io.StringIO):
    def write(self, text):
        raise OSError("broken pipe")


def _result(ok=True):
    """What ``on_job_done`` receives: a JobResult's ``ok``."""
    return SimpleNamespace(ok=ok)


def test_eta_is_unknown_before_first_completion_and_zero_at_end():
    clock = FakeClock()
    reporter = ProgressReporter(io.StringIO(), clock=clock)
    reporter.begin(campaign="toy", total=1)
    assert reporter.snapshot()["eta_s"] is None
    clock.now = 3.0
    reporter.on_job_done(_result())
    assert reporter.snapshot()["eta_s"] == 0.0


def test_tty_renderer_rewrites_one_line():
    tty = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(tty, clock=clock)
    reporter.begin(campaign="toy", total=2)
    clock.now = 1.0
    reporter.on_job_done(_result())
    reporter.end()
    text = tty.getvalue()
    assert text.count("\r") >= 2           # rewrites, not scrolls
    assert "[toy]" in text and "1/2" in text
    assert text.endswith("\n")             # final newline on end()


def test_broken_stream_disables_itself_without_killing_the_run():
    reporter = ProgressReporter(BrokenStream(), clock=FakeClock())
    reporter.begin(campaign="toy", total=1)
    assert reporter.tty is None
    reporter.on_job_done(_result())        # must not raise
    reporter.end()


def test_begin_resets_counters_between_sequential_campaigns():
    reporter = ProgressReporter(io.StringIO(), clock=FakeClock())
    reporter.begin(campaign="first", total=1)
    reporter.on_job_done(_result(ok=False))
    assert reporter.failed == 1
    reporter.begin(campaign="second", total=3)
    assert reporter.done == 0 and reporter.failed == 0
    assert reporter.campaign == "second"
