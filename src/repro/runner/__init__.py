"""Parallel campaign runner: declarative jobs, process-pool execution.

Every headline result in the paper is a *campaign* — 22 train×victim
cells per µarch, hundreds of Prime+Probe trials, thousands of covert
bits — and each trial boots a fresh machine, so campaigns are
embarrassingly parallel.  This package schedules them:

* :class:`JobSpec` / :func:`derive_seed` — declarative, picklable job
  descriptions with deterministic per-job seeds (results are
  byte-identical at any ``--jobs`` value);
* :func:`run_campaign` — shard jobs across a process pool with per-job
  timeout/retry and failure capture instead of campaign abort; runs
  can journal to / resume from a checkpoint (see
  :mod:`repro.resilience`);
* :func:`merge_job_manifests` — fold per-job
  ``phantom.run-manifest/1`` documents into one campaign manifest.

Experiments plug in through the :class:`repro.core.experiment.Experiment`
protocol (``job_specs()`` / ``run_one(spec, ctx)`` / ``reduce(results)``).
See ``docs/parallel-runner.md``.
"""

from .executor import (CampaignError, CampaignInterrupted, CampaignResult,
                       JobContext, JobResult, JobTimeout, execute_job,
                       resolve_jobs, run_campaign)
from .options import CampaignOptions
from .reduce import job_manifest, manifest_fingerprint, merge_job_manifests
from .spec import JobSpec, derive_seed

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "CampaignOptions",
    "CampaignResult",
    "JobContext",
    "JobResult",
    "JobSpec",
    "JobTimeout",
    "derive_seed",
    "execute_job",
    "job_manifest",
    "manifest_fingerprint",
    "merge_job_manifests",
    "resolve_jobs",
    "run_campaign",
]
