"""The campaign executor: shard jobs across worker processes.

:func:`run_campaign` takes any object satisfying the
:class:`repro.core.experiment.Experiment` protocol, expands its
:meth:`job_specs`, executes each spec — in-process for ``jobs=1``, on a
``ProcessPoolExecutor`` otherwise — and reduces the ordered results.

Failure semantics: a job that raises or exceeds its timeout becomes a
failed :class:`JobResult` (error captured, campaign continues); the
merged campaign manifest records it and the overall status degrades to
``partial`` (or ``failure`` when nothing succeeded).  Compatibility
wrappers that predate the runner (``run_matrix`` …) call
:meth:`CampaignResult.raise_on_failure` to restore raise-on-error
behaviour.

A job runs exactly once; nothing is retried.  Instead (see
:mod:`repro.resilience`), ``checkpoint=`` journals each finished job to
an append-only JSONL file, and ``resume=`` skips jobs already journaled
there — producing a campaign manifest fingerprint-identical to an
uninterrupted run.  A
``KeyboardInterrupt``, or a pool broken by a dead worker, while a
checkpoint is active surfaces as :class:`CampaignInterrupted` with a
resume hint (the journal is flushed after every job).

Every job runs in its own metrics scope (the worker's registry is
reset around it) and returns a small ``phantom.run-manifest/1``
document; the reducer merges those into one campaign manifest.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from ..errors import ReproError
from ..telemetry import metrics as _metrics
from ..telemetry.spans import SPANS
from .reduce import job_manifest, merge_job_manifests
from .spec import JobSpec


class CampaignError(ReproError):
    """Raised by strict wrappers when a campaign had failed jobs."""


class CampaignInterrupted(ReproError):
    """A campaign was interrupted with its checkpoint journal intact.

    Raised in place of ``KeyboardInterrupt`` or ``BrokenProcessPool``
    (chained as ``__cause__``) when ``checkpoint=`` is active: every
    finished job is already flushed to the journal, so re-running with
    ``resume=checkpoint`` picks up where the interrupt landed.
    """

    def __init__(self, message: str, *, done: int = 0, total: int = 0,
                 checkpoint=None) -> None:
        super().__init__(message)
        self.done = done
        self.total = total
        self.checkpoint = checkpoint


class JobTimeout(ReproError):
    """A job exceeded its per-job timeout."""


def resolve_jobs(jobs: int | None) -> int:
    """``--jobs`` semantics: ``None``/``0`` means one worker per
    *available* CPU — the scheduling affinity mask when the platform
    exposes it (a cgroup-limited CI container may see 2 of 64 cores;
    oversubscribing the other 62 just thrashes), falling back to the
    raw core count elsewhere."""
    if not jobs:
        if hasattr(os, "sched_getaffinity"):
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except OSError:  # pragma: no cover — exotic platforms
                pass
        return os.cpu_count() or 1
    return max(1, int(jobs))


class JobContext:
    """Per-job runtime handed to ``Experiment.run_one``.

    Booting machines through the context lets the executor account
    simulated cycles and PMC totals for the job manifest without the
    experiment threading them back by hand.
    """

    def __init__(self) -> None:
        self.machines: list = []

    def boot(self, spec):
        """Boot *spec* (a :class:`repro.kernel.MachineSpec`) and track
        the machine for cycle/PMC accounting."""
        from ..kernel import Machine

        with SPANS.span("boot", arch=spec.uarch):
            return self.track(Machine.from_spec(spec))

    def span(self, name: str, **attrs):
        """Bracket an experiment phase (``warm``, ``measure:…``) with a
        trace span; a no-op context while tracing is disabled."""
        return SPANS.span(name, **attrs)

    def track(self, machine):
        self.machines.append(machine)
        return machine

    @property
    def cycles(self) -> int:
        return sum(m.cycles for m in self.machines)

    @property
    def simulated_seconds(self) -> float:
        return sum(m.seconds() for m in self.machines)

    def pmc_snapshot(self) -> dict:
        merged: dict[str, int] = {}
        for machine in self.machines:
            for name, value in machine.cpu.pmc.snapshot().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def release(self) -> None:
        """End every tracked machine's life (:meth:`CPU.release`) so it
        is freed by reference count as soon as the job's value and
        manifest are out; cycles and PMCs stay readable."""
        for machine in self.machines:
            machine.cpu.release()


@dataclass
class JobResult:
    """Outcome of one job: a value, or a captured failure."""

    spec: JobSpec
    value: Any = None
    error: str | None = None
    error_kind: str | None = None   # "exception" | "timeout"
    wall_time_s: float = 0.0
    manifest: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """Everything one campaign produced, in job-spec order."""

    experiment: str
    jobs: int
    results: list[JobResult]
    value: Any
    manifest: dict

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def raise_on_failure(self) -> "CampaignResult":
        if self.failures:
            summary = "; ".join(f"{r.spec.label}: {r.error}"
                                for r in self.failures[:3])
            raise CampaignError(
                f"{len(self.failures)}/{len(self.results)} jobs failed "
                f"in campaign {self.experiment!r}: {summary}")
        return self


#: One warning per process when a requested timeout cannot be armed.
_UNENFORCED_WARNED = False


class _JobAlarm:
    """Per-job wall-clock timeout via ``SIGALRM`` (worker processes run
    jobs on their main thread, where the signal can be delivered; off
    the main thread — or without ``SIGALRM`` at all — the timeout
    degrades to unenforced, which is *counted*
    (``runner.timeout_unenforced``) and warned about once rather than
    silently running unbounded).

    Exiting restores the full prior alarm state: the previous handler
    *and* whatever was left of a previously armed ``ITIMER_REAL``
    (minus the time spent inside this context), so nesting — or running
    under host code that uses the same timer — never silently cancels
    an outer deadline.  A zero/None timeout arms nothing and therefore
    disturbs nothing.
    """

    #: Re-arm delay used when an outer alarm expired while this one
    #: held the timer: fire it as soon as possible (0 would disarm).
    _IMMEDIATE = 1e-6

    def __init__(self, timeout_s: float | None) -> None:
        wanted = timeout_s is not None and timeout_s > 0
        can_arm = (hasattr(signal, "SIGALRM")
                   and threading.current_thread()
                   is threading.main_thread())
        self.armed = wanted and can_arm
        self.unenforced = wanted and not can_arm
        self.timeout_s = timeout_s

    def __enter__(self) -> "_JobAlarm":
        if self.unenforced:
            global _UNENFORCED_WARNED
            _metrics.REGISTRY.counter("runner.timeout_unenforced").inc()
            if not _UNENFORCED_WARNED:
                _UNENFORCED_WARNED = True
                warnings.warn(
                    f"job timeout of {self.timeout_s}s cannot be "
                    "enforced here (SIGALRM unavailable or not on the "
                    "main thread); the job runs unbounded",
                    RuntimeWarning, stacklevel=3)
        if self.armed:
            def _on_alarm(signum, frame):
                raise JobTimeout(f"job exceeded {self.timeout_s}s")

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            self._entered_at = time.monotonic()
            self._prev_delay, self._prev_interval = signal.setitimer(
                signal.ITIMER_REAL, self.timeout_s)
        return self

    def __exit__(self, *exc) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if self._prev_delay > 0:
                elapsed = time.monotonic() - self._entered_at
                remaining = self._prev_delay - elapsed
                signal.setitimer(signal.ITIMER_REAL,
                                 max(remaining, self._IMMEDIATE),
                                 self._prev_interval)
        return False


def execute_job(experiment, spec: JobSpec, *,
                timeout_s: float | None = None) -> JobResult:
    """Run one job once to a :class:`JobResult` — never raises.

    Must stay a module-level function: it is the callable the process
    pool pickles.
    """
    registry = _metrics.REGISTRY
    wall_start = time.perf_counter()
    ctx = JobContext()
    trace_ctx = spec.trace
    if trace_ctx is not None:
        SPANS.adopt(trace_ctx)
    job_parent = trace_ctx.parent_span_id if trace_ctx is not None else ""
    registry.reset()
    registry.enable()
    value = kind = message = None
    try:
        # seq=0: each job label is unique within its campaign, so the
        # span id is the same whichever worker runs the job.
        with SPANS.span(spec.label, parent_id=job_parent, seq=0) as span:
            try:
                with _JobAlarm(timeout_s):
                    value = experiment.run_one(spec, ctx)
            finally:   # the job's cost on the simulated clock
                span.set(cycles=ctx.cycles)
    except JobTimeout as exc:
        kind, message = "timeout", str(exc)
    except Exception as exc:   # noqa: BLE001 — capture, don't abort
        kind, message = "exception", f"{type(exc).__name__}: {exc}"
    registry.disable()
    wall = time.perf_counter() - wall_start
    failure = {} if kind is None else {"error": message, "error_kind": kind}
    manifest = job_manifest(spec, ctx, registry.snapshot(),
                            status="failure" if failure else "success",
                            wall_time_s=wall, **failure)
    ctx.release()
    return JobResult(spec=spec, value=value, error=message, error_kind=kind,
                     wall_time_s=wall, manifest=manifest)


def _broken_pool_error() -> type:
    """``BrokenProcessPool``, imported on first use: an ``except``
    clause evaluates it only while matching an exception, so serial
    campaigns never pay the multiprocessing import (tens of ms)."""
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool


def run_campaign(experiment, *, jobs: int | None = None,
                 timeout_s: float | None = None,
                 config: dict | None = None, checkpoint=None,
                 resume=None, on_job_done=None) -> CampaignResult:
    """Execute every job of *experiment* and reduce the results.

    ``jobs=None``/``0`` uses one worker per available CPU; ``jobs=1``
    (or a single-job campaign) runs in-process with no pool overhead.
    The result order always follows ``experiment.job_specs()`` order,
    so reduction is deterministic at any worker count.

    Resilience (see :mod:`repro.resilience` and ``docs/resilience.md``):

    * ``checkpoint`` — a path (or prepared ``CheckpointWriter``) to
      journal each finished job to, flushed as each job finishes; a
      ``KeyboardInterrupt`` or a broken process pool then surfaces as
      :class:`CampaignInterrupted` with the journal intact.  Without a checkpoint either one propagates unchanged.
    * ``resume`` — a checkpoint path whose journaled jobs are skipped;
      their recorded results merge into the manifest exactly as if
      they had just run.
    * ``on_job_done`` — the one completion callback, invoked with each
      recorded :class:`JobResult` (the CLI's TTY progress line is
      one).

    Observability (see ``docs/observability.md``): when the process
    span recorder is active, the campaign runs under a
    ``campaign:<name>`` span whose :class:`TraceContext` is stamped
    into every dispatched spec (workers parent their job spans on it,
    and record trace events when the context asks for them).  This is
    strictly observational: manifests and results are byte-identical
    with it on or off.
    """
    # Imported here: the resilience package imports the runner.
    from ..resilience.checkpoint import (CheckpointWriter, load_checkpoint,
                                         spec_fingerprint)

    specs: Sequence[JobSpec] = list(experiment.job_specs())
    n_workers = resolve_jobs(jobs)
    name = getattr(experiment, "name", type(experiment).__name__)
    wall_start = time.perf_counter()

    with SPANS.span(f"campaign:{name}", jobs=n_workers,
                    job_count=len(specs)):
        trace_ctx = SPANS.context()
        if trace_ctx is not None:
            specs = [replace(spec, trace=trace_ctx) for spec in specs]

        slots: list[JobResult | None] = [None] * len(specs)
        resume_info = None
        if resume is not None:
            journal = load_checkpoint(resume)
            hits = 0
            for index, spec in enumerate(specs):
                record = journal.get(spec_fingerprint(spec))
                if record is not None:
                    slots[index] = record.to_job_result(spec)
                    hits += 1
            _metrics.REGISTRY.counter("resilience.jobs_resumed").inc(hits)
            resume_info = {"from": str(resume), "jobs_skipped": hits,
                           "jobs_rerun": len(specs) - hits}

        owns_writer = False
        if isinstance(checkpoint, CheckpointWriter):
            writer = checkpoint
        elif checkpoint is not None:
            writer = CheckpointWriter(checkpoint)
            owns_writer = True
        else:
            writer = None
        if writer is not None and resume is not None \
                and writer.path != Path(resume):
            # Journaling to a different file than we resumed from: copy
            # the inherited results over so the new journal is
            # self-contained.
            for index, inherited in enumerate(slots):
                if inherited is not None:
                    writer.append(specs[index], inherited)

        todo = [index for index in range(len(specs))
                if slots[index] is None]

        def record(index: int, result: JobResult) -> None:
            slots[index] = result
            if writer is not None:
                writer.append(specs[index], result)
            if on_job_done is not None:
                on_job_done(result)

        try:
            if n_workers <= 1 or len(todo) <= 1:
                for index in todo:
                    record(index, execute_job(experiment, specs[index],
                                              timeout_s=timeout_s))
            else:
                from ..resilience.supervisor import run_pool

                run_pool(experiment, specs, todo, record,
                         n_workers=n_workers, timeout_s=timeout_s)
        except (KeyboardInterrupt, _broken_pool_error()) as exc:
            if writer is None:
                raise
            done = sum(result is not None for result in slots)
            broken = not isinstance(exc, KeyboardInterrupt)
            cause = " by a broken process pool" if broken else ""
            raise CampaignInterrupted(
                f"campaign {name!r} interrupted{cause} with "
                f"{done}/{len(specs)} jobs done; resume from {writer.path}",
                done=done, total=len(specs),
                checkpoint=str(writer.path)) from (exc if broken else None)
        finally:
            if owns_writer:
                writer.close()

        results: list[JobResult] = slots   # every slot filled now
        with SPANS.span("reduce", job_count=len(results)):
            value = experiment.reduce(results)
            campaign_config = {"experiment": name, "jobs": n_workers,
                               "job_count": len(specs)}
            campaign_config.update(getattr(experiment, "campaign_config",
                                           dict)() or {})
            campaign_config.update(config or {})
            manifest = merge_job_manifests(
                name, campaign_config, results,
                wall_time_s=time.perf_counter() - wall_start)
        if resume_info is not None:
            manifest["outcome"]["resume"] = resume_info
        return CampaignResult(experiment=name, jobs=n_workers,
                              results=results, value=value,
                              manifest=manifest)
