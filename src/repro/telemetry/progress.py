"""Live campaign progress: ``phantom.progress/1`` events + TTY line.

A thousand-job campaign used to be silent until its merged manifest
appeared.  The :class:`ProgressReporter` turns the executor's
``on_job_done`` stream into two live views:

* a machine-readable JSONL event stream (``--progress FILE`` on the
  CLI) — one ``phantom.progress/1`` object per campaign begin/end and
  per finished job, carrying done/failed counts, throughput
  and an ETA, so dashboards and orchestrators can watch a run without
  parsing human output;
* a ``repro top``-style single-line TTY renderer (carriage-return
  rewrite, auto-enabled when stderr is a terminal) for humans.

The reporter never touches results or manifests — it observes the
:class:`~repro.runner.JobResult` stream and stays strictly on the
observability side of the PR-1 contract: with no stream and no TTY it
is never constructed, and campaign output is byte-identical either
way.  One reporter may serve several sequential campaigns (the
``leak`` command runs four); :meth:`begin` resets the counters and the
events carry the campaign name.
"""

from __future__ import annotations

import json
import time

PROGRESS_SCHEMA = "phantom.progress/1"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--:--"
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:" \
               f"{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class ProgressReporter:
    """Fan the executor's job-completion stream out to live views.

    *stream* (optional) receives one JSON line per event; *tty*
    (optional) receives the single-line renderer.  *clock* is
    injectable for deterministic tests.
    """

    def __init__(self, *, stream=None, tty=None,
                 clock=time.monotonic) -> None:
        self.stream = stream
        self.tty = tty
        self._clock = clock
        self.campaign = ""
        self.total = 0
        self.done = 0
        self.failed = 0
        self._started = clock()

    # -- lifecycle ---------------------------------------------------------

    def begin(self, *, campaign: str, total: int, done: int = 0) -> None:
        """Start (or restart, for the next campaign) the counters.

        *done* pre-counts jobs inherited from a resume journal, so the
        ETA reflects the work actually remaining.
        """
        self.campaign = campaign
        self.total = total
        self.done = done
        self.failed = 0
        self._started = self._clock()
        self._emit("campaign_begin")
        self._render()

    def end(self, status: str) -> None:
        self._emit("campaign_end", status=status)
        if self.tty is not None:
            self._render()
            self.tty.write("\n")
            self.tty.flush()

    def close(self) -> None:
        if self.stream is not None:
            try:
                self.stream.flush()
            except (OSError, ValueError):
                pass

    # -- the event stream --------------------------------------------------

    def job_done(self, label: str, *, ok: bool) -> None:
        """Record one finished unit of work and emit/render."""
        self.done += 1
        if not ok:
            self.failed += 1
        self._emit("job_done", job=label,
                   status="success" if ok else "failure")
        self._render()

    def on_job_done(self, result) -> None:
        """``run_campaign(on_job_done=…)``-compatible adapter."""
        self.job_done(result.spec.label, ok=result.ok)

    # -- derived state -----------------------------------------------------

    def snapshot(self) -> dict:
        elapsed = max(self._clock() - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if self.done and remaining else \
            (0.0 if not remaining else None)
        return {"done": self.done, "failed": self.failed,
                "total": self.total,
                "elapsed_s": round(elapsed, 3),
                "jobs_per_s": round(rate, 3),
                "eta_s": round(eta, 3) if eta is not None else None}

    def _emit(self, event: str, **fields) -> None:
        if self.stream is None:
            return
        doc = {"schema": PROGRESS_SCHEMA, "event": event,
               "campaign": self.campaign}
        doc.update(fields)
        doc.update(self.snapshot())
        try:
            self.stream.write(json.dumps(doc, separators=(",", ":"))
                              + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.stream = None   # a closed pipe must not kill the run

    def _render(self) -> None:
        if self.tty is None:
            return
        snap = self.snapshot()
        width = 24
        filled = int(width * self.done / self.total) if self.total else 0
        bar = "#" * filled + "." * (width - filled)
        line = (f"[{self.campaign}] {bar} {self.done}/{self.total} "
                f"done  {self.failed} failed  "
                f"{snap['jobs_per_s']:.1f} job/s  "
                f"eta {_fmt_eta(snap['eta_s'])}")
        try:
            self.tty.write("\r" + line[:119].ljust(79))
            self.tty.flush()
        except (OSError, ValueError):
            self.tty = None
