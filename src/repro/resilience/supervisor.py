"""The pooled campaign loop: one process pool, no recovery.

:func:`run_pool` submits every pending job to a single
``ProcessPoolExecutor`` through :func:`repro.runner.execute_job` and
records each result in completion order.  It does not try to survive a
dead worker: a SIGKILLed or OOM-killed worker breaks the pool, the
``BrokenProcessPool`` propagates, and :func:`repro.runner.run_campaign`
turns it into :class:`~repro.runner.CampaignInterrupted`.  The
checkpoint journal already holds every finished job (it is flushed per
job), so ``--resume`` is the one recovery path.
Per-job timeouts stay inside :func:`execute_job`; a job that fails is
recorded as failed, never re-run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed

from ..runner.executor import execute_job


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every live worker (best effort; ``_processes`` is the
    stdlib's only handle on them)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):
            pass


def run_pool(experiment, specs, todo, record, *, n_workers,
             timeout_s) -> None:
    """Run *todo* (indices into *specs*) on a pool of *n_workers*.

    Calls ``record(index, JobResult)`` once per job, in completion
    order.  Any exception — a ``BrokenProcessPool``, or a
    ``KeyboardInterrupt`` raised by *record* or a real Ctrl-C — kills
    the workers before propagating, so shutdown never waits on a
    stalled job.
    """
    pool = ProcessPoolExecutor(max_workers=min(n_workers, len(todo)))
    try:
        futures = {pool.submit(execute_job, experiment, specs[i],
                               timeout_s=timeout_s): i
                   for i in todo}
        for future in as_completed(futures):
            record(futures[future], future.result())
    except BaseException:
        _kill_workers(pool)
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
