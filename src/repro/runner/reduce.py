"""Reducing per-job telemetry into one campaign manifest.

Each job — wherever it ran — yields a small, self-contained
``phantom.run-manifest/1`` document; :func:`merge_job_manifests` folds
them into a single schema-valid campaign manifest:

* one phase per job (name = the job's label, cycles = the simulated
  cycles of every machine the job booted);
* metric counters and PMC values summed (see
  :mod:`repro.telemetry.merge`);
* totals = summed simulated work; wall time = the campaign's real
  elapsed time (which is where ``--jobs`` shows up).

:func:`manifest_fingerprint` strips the wall-clock/timestamp fields so
tests can assert that manifests are identical at any worker count.
"""

from __future__ import annotations

import copy
import time

from ..telemetry.manifest import MANIFEST_SCHEMA
from ..telemetry.merge import merge_metric_snapshots, merge_pmc
from .spec import JobSpec

_EMPTY_METRICS = {"counters": {}, "base_labels": {}}


def job_manifest(spec: JobSpec, ctx, metrics: dict, *, status: str,
                 wall_time_s: float, **outcome_extra) -> dict:
    """The manifest document for one executed job."""
    config = {"experiment": spec.experiment, "key": list(spec.key),
              "seed": spec.seed}
    if spec.machine is not None:
        config.update(spec.machine.describe())
    config.update(dict(spec.params))
    outcome = {"status": status}
    outcome.update(outcome_extra)
    return {
        "schema": MANIFEST_SCHEMA,
        "command": f"{spec.experiment}-job",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config,
        "phases": [{"name": spec.label, "cycles": ctx.cycles,
                    "wall_time_s": wall_time_s}],
        "metrics": metrics,
        "pmc": ctx.pmc_snapshot(),
        "outcome": outcome,
        "totals": {"cycles": ctx.cycles, "wall_time_s": wall_time_s,
                   "simulated_seconds": ctx.simulated_seconds},
    }


def merge_job_manifests(command: str, config: dict, job_results,
                        *, wall_time_s: float) -> dict:
    """Fold every job's manifest into one campaign manifest."""
    phases: list[dict] = []
    metrics = copy.deepcopy(_EMPTY_METRICS)
    pmc: dict = {}
    cycles = 0
    simulated = 0.0
    failures = []
    for result in job_results:
        doc = result.manifest
        if not doc:
            continue
        phases.extend(doc.get("phases", ()))
        metrics = merge_metric_snapshots(metrics, doc.get("metrics", {}))
        pmc = merge_pmc(pmc, doc.get("pmc", {}))
        totals = doc.get("totals", {})
        cycles += totals.get("cycles", 0)
        simulated += totals.get("simulated_seconds", 0.0)
        if not result.ok:
            failures.append({"job": result.spec.label,
                             "error_kind": result.error_kind,
                             "error": result.error})
    ok = sum(result.ok for result in job_results)
    if not job_results or ok == len(job_results):
        status = "success"
    elif ok:
        status = "partial"
    else:
        status = "failure"
    outcome = {"status": status, "jobs_total": len(job_results),
               "jobs_failed": len(job_results) - ok}
    if failures:
        outcome["failures"] = failures
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": dict(config),
        "phases": phases,
        "metrics": metrics,
        "pmc": pmc,
        "outcome": outcome,
        "totals": {"cycles": cycles, "wall_time_s": wall_time_s,
                   "simulated_seconds": simulated},
    }


def manifest_fingerprint(doc: dict) -> dict:
    """*doc* minus wall-clock, timestamp, worker-count and recovery
    fields — equal fingerprints mean two campaigns did byte-identical
    simulated work (the whole point of the deterministic
    decomposition: ``--jobs`` is an execution detail, not part of the
    result).  Resume lineage is stripped for the same reason: a
    campaign that was interrupted and resumed must fingerprint equal to
    one that ran clean."""
    out = copy.deepcopy(doc)
    out.pop("created_at", None)
    out.get("config", {}).pop("jobs", None)
    outcome = out.get("outcome", {})
    for execution_detail in ("jobs", "resume", "elapsed_seconds"):
        outcome.pop(execution_detail, None)
    out.get("totals", {}).pop("wall_time_s", None)
    for phase in out.get("phases", ()):
        phase.pop("wall_time_s", None)
    return out
