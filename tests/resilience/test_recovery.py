"""The one recovery path: an interrupted or broken campaign fails with
its journal flushed, and ``resume=`` finishes it exactly like a clean
run."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.resilience import load_checkpoint, spec_fingerprint
from repro.runner import (CampaignInterrupted, JobSpec, derive_seed,
                          manifest_fingerprint, run_campaign)


@dataclass(frozen=True)
class ToyExperiment:
    """Pure-compute campaign: value depends only on the spec."""

    name: ClassVar[str] = "toy"

    n: int = 8

    def campaign_config(self) -> dict:
        return {"n": self.n}

    def job_specs(self):
        return [JobSpec.make(self.name, (i,), derive_seed(42, (i,)),
                             index=i)
                for i in range(self.n)]

    def run_one(self, spec, ctx):
        return spec.param("index") * 10 + spec.seed % 7

    def reduce(self, results):
        return [r.value for r in results if r.ok]


@dataclass(frozen=True)
class KillOnceExperiment(ToyExperiment):
    """Job 2 SIGKILLs its own worker the first time it runs.

    An ``O_CREAT|O_EXCL`` marker under *state_dir* makes the kill fire
    once across processes; it never fires in the parent process.
    """

    state_dir: str = ""
    parent_pid: int = 0

    def run_one(self, spec, ctx):
        if spec.param("index") == 2 and os.getpid() != self.parent_pid:
            try:
                fd = os.open(os.path.join(self.state_dir, "killed"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return super().run_one(spec, ctx)


class InterruptAfter:
    """``on_job_done`` hook: Ctrl-C once *k* jobs have been recorded."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.seen = 0

    def __call__(self, result) -> None:
        self.seen += 1
        if self.seen == self.k:
            raise KeyboardInterrupt


def _assert_resume_matches_clean(experiment, checkpoint, jobs):
    clean = run_campaign(ToyExperiment(), jobs=1)
    resumed = run_campaign(experiment, jobs=jobs, checkpoint=checkpoint,
                           resume=checkpoint)
    assert not resumed.failures
    assert resumed.value == clean.value
    assert (manifest_fingerprint(resumed.manifest)
            == manifest_fingerprint(clean.manifest))
    assert len(load_checkpoint(checkpoint)) == len(clean.results)


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupt_flushes_journal_and_resume_matches_clean(tmp_path,
                                                            jobs):
    experiment = ToyExperiment()
    checkpoint = tmp_path / "ckpt.jsonl"
    with pytest.raises(CampaignInterrupted) as excinfo:
        run_campaign(experiment, jobs=jobs, checkpoint=checkpoint,
                     on_job_done=InterruptAfter(3))
    exc = excinfo.value
    assert exc.checkpoint == str(checkpoint)
    assert f"resume from {checkpoint}" in str(exc)
    assert exc.done == 3 and exc.total == experiment.n
    assert exc.__cause__ is None
    assert len(load_checkpoint(checkpoint)) == 3
    _assert_resume_matches_clean(experiment, checkpoint, jobs)


def test_killed_worker_fails_with_resume_hint(tmp_path):
    experiment = KillOnceExperiment(state_dir=str(tmp_path),
                                    parent_pid=os.getpid())
    checkpoint = tmp_path / "ckpt.jsonl"
    with pytest.raises(CampaignInterrupted) as excinfo:
        run_campaign(experiment, jobs=2, checkpoint=checkpoint)
    exc = excinfo.value
    assert exc.checkpoint == str(checkpoint)
    assert "broken process pool" in str(exc)
    assert f"resume from {checkpoint}" in str(exc)
    assert isinstance(exc.__cause__, BrokenProcessPool)
    assert exc.done < exc.total
    # Every job recorded before the break is in the journal; the job
    # that took its worker down is not.
    journal = load_checkpoint(checkpoint)
    assert len(journal) == exc.done
    killed = experiment.job_specs()[2]
    assert spec_fingerprint(killed) not in journal
    _assert_resume_matches_clean(experiment, checkpoint, jobs=2)


def test_killed_worker_without_journal_propagates(tmp_path):
    experiment = KillOnceExperiment(state_dir=str(tmp_path),
                                    parent_pid=os.getpid())
    with pytest.raises(BrokenProcessPool):
        run_campaign(experiment, jobs=2)
