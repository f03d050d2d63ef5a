"""Live campaign progress: a ``repro top``-style single TTY line.

The CLI builds a :class:`ProgressReporter` only when stderr is a
terminal and feeds it through ``run_campaign(on_job_done=…)``, the
executor's one completion callback.  The line shows done and failed
jobs, throughput and an ETA; it never touches results or manifests.
One reporter serves several sequential campaigns (``leak`` runs
four): :meth:`~ProgressReporter.begin` resets the counters.
"""

from __future__ import annotations

import time


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--:--"
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:" \
               f"{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class ProgressReporter:
    """Render the job-completion stream on one *tty* line.  *clock* is
    injectable for deterministic tests."""

    def __init__(self, tty, *, clock=time.monotonic) -> None:
        self.tty = tty
        self._clock = clock
        self.campaign = ""
        self.total = 0
        self.done = 0
        self.failed = 0
        self._started = clock()

    def begin(self, *, campaign: str, total: int) -> None:
        """Start (or restart, for the next campaign) the counters."""
        self.campaign = campaign
        self.total = total
        self.done = 0
        self.failed = 0
        self._started = self._clock()
        self._render()

    def on_job_done(self, result) -> None:
        """``run_campaign(on_job_done=…)`` callback: count one finished
        :class:`~repro.runner.JobResult` and redraw."""
        self.done += 1
        if not result.ok:
            self.failed += 1
        self._render()

    def end(self) -> None:
        """Finish the campaign's line with a newline."""
        self._render()
        self._write("\n")

    def snapshot(self) -> dict:
        elapsed = max(self._clock() - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if self.done and remaining else \
            (0.0 if not remaining else None)
        return {"done": self.done, "failed": self.failed,
                "total": self.total, "jobs_per_s": rate, "eta_s": eta}

    def _render(self) -> None:
        snap = self.snapshot()
        width = 24
        filled = int(width * self.done / self.total) if self.total else 0
        bar = "#" * filled + "." * (width - filled)
        line = (f"[{self.campaign}] {bar} {self.done}/{self.total} "
                f"done  {self.failed} failed  "
                f"{snap['jobs_per_s']:.1f} job/s  "
                f"eta {_fmt_eta(snap['eta_s'])}")
        self._write("\r" + line[:119].ljust(79))

    def _write(self, text: str) -> None:
        if self.tty is None:
            return
        try:
            self.tty.write(text)
            self.tty.flush()
        except (OSError, ValueError):
            self.tty = None   # a closed terminal must not kill the run
