"""The campaign executor: determinism at any --jobs, failure capture.

The toy experiments live at module top level so the process pool can
pickle their specs into worker processes.
"""

import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.kernel import MachineSpec
from repro.runner import (CampaignError, JobSpec, derive_seed, execute_job,
                          manifest_fingerprint, resolve_jobs, run_campaign)
from repro.telemetry import validate_manifest


@dataclass(frozen=True)
class ToyExperiment:
    """Pure-compute campaign: value depends only on the spec."""

    name: ClassVar[str] = "toy"

    n: int = 6
    fail_keys: tuple = ()
    sleep_s: float = 0.0

    def campaign_config(self) -> dict:
        return {"n": self.n}

    def job_specs(self):
        return [JobSpec.make(self.name, (i,), derive_seed(42, (i,)),
                             index=i)
                for i in range(self.n)]

    def run_one(self, spec, ctx):
        if spec.key in self.fail_keys:
            raise RuntimeError(f"boom {spec.key}")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        return spec.param("index") * 10 + spec.seed % 7

    def reduce(self, results):
        return [r.value for r in results if r.ok]


_FLAKY_STATE = {"calls": 0}


@dataclass(frozen=True)
class FlakyExperiment(ToyExperiment):
    """Fails on its first call in the process, succeeds after."""

    def run_one(self, spec, ctx):
        _FLAKY_STATE["calls"] += 1
        if _FLAKY_STATE["calls"] == 1:
            raise RuntimeError("transient")
        return super().run_one(spec, ctx)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(None) >= 1


def test_resolve_jobs_honors_scheduling_affinity(monkeypatch):
    """A cgroup-limited container may expose 2 of 64 cores; the default
    worker count must follow the affinity mask, not the raw count."""
    import os

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no scheduling affinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert resolve_jobs(0) == 2
    assert resolve_jobs(None) == 2
    # Explicit --jobs always wins over the mask.
    assert resolve_jobs(5) == 5


def test_resolve_jobs_survives_affinity_errors(monkeypatch):
    import os

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no scheduling affinity")

    def broken(pid):
        raise OSError("no affinity for you")

    monkeypatch.setattr(os, "sched_getaffinity", broken)
    assert resolve_jobs(0) >= 1


def test_unenforceable_timeout_is_counted_and_warned_once():
    """Off the main thread SIGALRM cannot be delivered: the timeout
    degrades to unenforced — but visibly (counter + one warning), never
    silently."""
    import threading
    import warnings as warnings_mod

    import repro.runner.executor as executor

    experiment = ToyExperiment(n=1)
    [spec] = experiment.job_specs()
    old_flag = executor._UNENFORCED_WARNED
    executor._UNENFORCED_WARNED = False
    box = {}

    def run():
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            box["first"] = execute_job(experiment, spec, timeout_s=1.0)
            box["second"] = execute_job(experiment, spec, timeout_s=1.0)
            box["warnings"] = [w for w in caught
                               if issubclass(w.category, RuntimeWarning)
                               and "cannot be enforced" in str(w.message)]

    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        executor._UNENFORCED_WARNED = old_flag
    assert box["first"].ok and box["second"].ok
    counters = box["first"].manifest["metrics"]["counters"]
    assert counters.get("runner.timeout_unenforced") == 1
    # Warned exactly once per process, not per job.
    assert len(box["warnings"]) == 1


def test_serial_campaign_reduces_in_spec_order():
    campaign = run_campaign(ToyExperiment(), jobs=1)
    assert campaign.value == [i * 10 + derive_seed(42, (i,)) % 7
                              for i in range(6)]
    assert not campaign.failures
    assert campaign.manifest["outcome"]["status"] == "success"
    validate_manifest(campaign.manifest)


@pytest.mark.parametrize("jobs", [2, 4])
def test_results_and_manifest_identical_at_any_jobs(jobs):
    serial = run_campaign(ToyExperiment(), jobs=1)
    pooled = run_campaign(ToyExperiment(), jobs=jobs)
    assert pooled.value == serial.value
    assert (manifest_fingerprint(pooled.manifest)
            == manifest_fingerprint(serial.manifest))


def test_real_experiment_identical_at_any_jobs():
    """End to end on booted machines: a covert campaign's value AND
    merged manifest (metrics, PMC, phases, totals) match between the
    in-process path and the process pool."""
    from repro.core import CovertExperiment

    experiment = CovertExperiment(
        machine=MachineSpec(uarch="zen3", kaslr_seed=4, rng_seed=4,
                            sibling_load=True),
        channel="fetch", n_bits=64, seed=3, chunk_bits=16)
    serial = run_campaign(experiment, jobs=1)
    pooled = run_campaign(experiment, jobs=2)
    assert serial.value == pooled.value
    assert serial.value.bits == 64
    assert (manifest_fingerprint(pooled.manifest)
            == manifest_fingerprint(serial.manifest))
    validate_manifest(pooled.manifest)


def test_failed_job_is_captured_not_raised():
    campaign = run_campaign(ToyExperiment(fail_keys=((2,),)), jobs=1)
    assert len(campaign.failures) == 1
    failure = campaign.failures[0]
    assert failure.error_kind == "exception"
    assert "boom" in failure.error
    assert campaign.manifest["outcome"]["status"] == "partial"
    assert campaign.manifest["outcome"]["jobs_failed"] == 1
    assert campaign.manifest["outcome"]["failures"][0]["job"] == "toy[2]"
    validate_manifest(campaign.manifest)
    # The other five jobs still reduced.
    assert len(campaign.value) == 5
    with pytest.raises(CampaignError, match="boom"):
        campaign.raise_on_failure()


def test_all_jobs_failing_degrades_to_failure_status():
    keys = tuple((i,) for i in range(6))
    campaign = run_campaign(ToyExperiment(fail_keys=keys), jobs=1)
    assert campaign.manifest["outcome"]["status"] == "failure"
    assert campaign.value == []


def test_job_timeout_is_captured():
    experiment = ToyExperiment(n=2, sleep_s=0.5)
    [spec, _] = experiment.job_specs()
    result = execute_job(experiment, spec, timeout_s=0.05)
    assert not result.ok
    assert result.error_kind == "timeout"
    assert "0.05" in result.error
    assert result.manifest["outcome"]["status"] == "failure"


def test_no_retry_reports_first_failure():
    """A job runs once: a flaky failure is recorded, never re-run."""
    _FLAKY_STATE["calls"] = 0
    experiment = FlakyExperiment(n=1)
    [spec] = experiment.job_specs()
    result = execute_job(experiment, spec)
    assert not result.ok
    assert "transient" in result.error
    assert _FLAKY_STATE["calls"] == 1


@pytest.mark.parametrize("knob", [{"retries": 1}, {"checkpoint_every": 2}])
def test_removed_campaign_knobs_fail_loudly(knob):
    with pytest.raises(TypeError):
        run_campaign(ToyExperiment(n=1), jobs=1, **knob)
