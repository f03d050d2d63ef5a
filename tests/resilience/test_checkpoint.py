"""Checkpoint journal: fingerprints, round-trips, torn lines, resume."""

import errno
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

from repro.kernel import MachineSpec
from repro.resilience import (CHECKPOINT_SCHEMA, CheckpointRecord,
                              CheckpointWriter, load_checkpoint,
                              spec_fingerprint)
from repro.runner import (JobSpec, derive_seed, execute_job,
                          manifest_fingerprint, run_campaign)
from repro.telemetry import validate_manifest

#: A six-job ``toy`` journal from when jobs could be retried: every
#: record and job manifest carries ``attempts``/``attempt_history``,
#: and ``toy[2]`` succeeded on its second attempt.
JOURNAL_WITH_ATTEMPTS = (Path(__file__).parent.parent / "data"
                         / "checkpoint-with-attempts.jsonl")


@dataclass(frozen=True)
class ToyExperiment:
    """Pure-compute campaign: value depends only on the spec."""

    name: ClassVar[str] = "toy"

    n: int = 6

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
class PoisonExperiment(ToyExperiment):
    """Same specs as ToyExperiment; running any job is an error.

    Resuming a fully-journaled campaign must not call ``run_one`` at
    all — this makes silently re-running jobs a loud failure.
    """

    def run_one(self, spec, ctx):
        raise AssertionError(f"{spec.label} should have been resumed, "
                             "not re-run")


def test_fingerprint_is_stable_and_discriminates():
    [a0, a1, *_] = ToyExperiment().job_specs()
    assert spec_fingerprint(a0) == spec_fingerprint(a0)
    assert spec_fingerprint(a0) != spec_fingerprint(a1)
    # Different experiment name, seed, machine or params → new key.
    base = JobSpec.make("exp", (1,), 7, x=1)
    assert spec_fingerprint(base) != spec_fingerprint(
        JobSpec.make("other", (1,), 7, x=1))
    assert spec_fingerprint(base) != spec_fingerprint(
        JobSpec.make("exp", (1,), 8, x=1))
    assert spec_fingerprint(base) != spec_fingerprint(
        JobSpec.make("exp", (1,), 7, x=2))
    machine = MachineSpec(uarch="zen2", kaslr_seed=1, rng_seed=1)
    assert spec_fingerprint(base) != spec_fingerprint(
        JobSpec.make("exp", (1,), 7, machine=machine, x=1))


def test_record_roundtrips_through_json_and_pickle():
    experiment = ToyExperiment(n=1)
    [spec] = experiment.job_specs()
    result = execute_job(experiment, spec)
    record = CheckpointRecord.from_result(spec, result)
    wire = CheckpointRecord.from_dict(json.loads(
        json.dumps(record.to_dict())))
    back = wire.to_job_result(spec)
    assert back.ok
    assert back.value == result.value
    assert back.manifest == result.manifest


def test_writer_journals_and_loader_keys_by_fingerprint(tmp_path):
    experiment = ToyExperiment(n=3)
    specs = experiment.job_specs()
    path = tmp_path / "ckpt.jsonl"
    with CheckpointWriter(path) as writer:
        for spec in specs:
            writer.append(spec, execute_job(experiment, spec))
        # Re-journaling is harmless: last record wins.
        writer.append(specs[0], execute_job(experiment, specs[0]))
    journal = load_checkpoint(path)
    assert len(journal) == 3
    for spec in specs:
        record = journal[spec_fingerprint(spec)]
        assert record.label == spec.label
        assert record.status == "success"


def test_loader_tolerates_torn_and_foreign_lines(tmp_path):
    experiment = ToyExperiment(n=1)
    [spec] = experiment.job_specs()
    record = CheckpointRecord.from_result(spec, execute_job(experiment, spec))
    path = tmp_path / "ckpt.jsonl"
    path.write_text(
        json.dumps(record.to_dict()) + "\n"
        + '{"schema": "someone.elses/1", "fingerprint": "zz"}\n'
        + '["not", "a", "record"]\n'
        + '{"truncated mid-wri\n',
        encoding="utf-8")
    journal = load_checkpoint(path)
    assert list(journal) == [spec_fingerprint(spec)]
    assert load_checkpoint(tmp_path / "never-written.jsonl") == {}


def test_append_after_torn_tail_starts_a_fresh_line(tmp_path):
    """A crash left the last line without its newline: the next writer
    must not glue its first record onto it (the loader would then drop
    both lines and the resume would lose the job it just ran)."""
    experiment = ToyExperiment(n=3)
    specs = experiment.job_specs()
    path = tmp_path / "ckpt.jsonl"
    with CheckpointWriter(path) as writer:
        for spec in specs[:2]:
            writer.append(spec, execute_job(experiment, spec))
    intact = path.read_bytes()
    path.write_bytes(intact[:-40])          # tear the second record

    with CheckpointWriter(path) as writer:
        writer.append(specs[2], execute_job(experiment, specs[2]))
    journal = load_checkpoint(path)
    assert set(journal) == {spec_fingerprint(specs[0]),
                            spec_fingerprint(specs[2])}

    # An intact or empty journal gains no blank lines.
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(intact)
    CheckpointWriter(clean).close()
    CheckpointWriter(tmp_path / "empty.jsonl").close()
    assert clean.read_bytes() == intact
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


def test_resuming_a_torn_journal_twice_reruns_only_the_torn_job(tmp_path):
    checkpoint = tmp_path / "ckpt.jsonl"
    clean = run_campaign(ToyExperiment(), jobs=1, checkpoint=checkpoint)
    checkpoint.write_bytes(checkpoint.read_bytes()[:-40])

    first = run_campaign(ToyExperiment(), jobs=1, checkpoint=checkpoint,
                         resume=checkpoint)
    assert first.manifest["outcome"]["resume"]["jobs_rerun"] == 1
    second = run_campaign(PoisonExperiment(), jobs=1,
                          checkpoint=checkpoint, resume=checkpoint)
    assert second.manifest["outcome"]["resume"]["jobs_rerun"] == 0
    for resumed in (first, second):
        assert resumed.value == clean.value
        assert (manifest_fingerprint(resumed.manifest)
                == manifest_fingerprint(clean.manifest))


def test_write_failure_degrades_and_is_counted(tmp_path):
    calls = {"n": 0}

    def flaky_disk(record):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError(errno.ENOSPC, "no space left on device")

    experiment = ToyExperiment(n=3)
    specs = experiment.job_specs()
    with CheckpointWriter(tmp_path / "ckpt.jsonl",
                          fault_hook=flaky_disk) as writer:
        with pytest.warns(RuntimeWarning, match="checkpoint append"):
            writer.append(specs[0], execute_job(experiment, specs[0]))
        writer.append(specs[1], execute_job(experiment, specs[1]))
    assert writer.write_errors == 1
    journal = load_checkpoint(writer.path)
    # The failed append is simply absent: that job re-runs on resume.
    assert spec_fingerprint(specs[0]) not in journal
    assert spec_fingerprint(specs[1]) in journal


def test_resume_skips_journaled_jobs_and_matches_clean_run(tmp_path):
    checkpoint = tmp_path / "ckpt.jsonl"
    clean = run_campaign(ToyExperiment(), jobs=1)
    first = run_campaign(ToyExperiment(), jobs=1, checkpoint=checkpoint)
    # Every job is journaled: the resumed campaign must not run any
    # (PoisonExperiment raises from run_one) and must reduce and merge
    # to the same result and manifest fingerprint.
    resumed = run_campaign(PoisonExperiment(), jobs=1, resume=checkpoint)
    assert resumed.value == first.value == clean.value
    assert (manifest_fingerprint(resumed.manifest)
            == manifest_fingerprint(clean.manifest))
    assert resumed.manifest["outcome"]["resume"] == {
        "from": str(checkpoint), "jobs_skipped": 6, "jobs_rerun": 0}


def test_journal_with_attempt_fields_still_resumes():
    resumed = run_campaign(PoisonExperiment(), jobs=1,
                           resume=JOURNAL_WITH_ATTEMPTS)
    clean = run_campaign(ToyExperiment(), jobs=1)
    assert resumed.manifest["outcome"]["resume"]["jobs_skipped"] == 6
    assert resumed.value == clean.value
    assert (manifest_fingerprint(resumed.manifest)
            == manifest_fingerprint(clean.manifest))
    validate_manifest(resumed.manifest)


def test_resume_into_fresh_journal_is_self_contained(tmp_path):
    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    run_campaign(ToyExperiment(), jobs=1, checkpoint=old)
    run_campaign(PoisonExperiment(), jobs=1, checkpoint=new, resume=old)
    # The new journal inherited every record: it can resume on its own.
    resumed = run_campaign(PoisonExperiment(), jobs=1, resume=new)
    assert resumed.value == run_campaign(ToyExperiment(), jobs=1).value


def test_partial_journal_reruns_only_missing_jobs(tmp_path):
    checkpoint = tmp_path / "ckpt.jsonl"
    experiment = ToyExperiment()
    specs = experiment.job_specs()
    with CheckpointWriter(checkpoint) as writer:
        for spec in specs[:4]:
            writer.append(spec, execute_job(experiment, spec))
    resumed = run_campaign(experiment, jobs=1, resume=checkpoint)
    assert resumed.manifest["outcome"]["resume"]["jobs_skipped"] == 4
    assert resumed.manifest["outcome"]["resume"]["jobs_rerun"] == 2
    clean = run_campaign(experiment, jobs=1)
    assert resumed.value == clean.value
    assert (manifest_fingerprint(resumed.manifest)
            == manifest_fingerprint(clean.manifest))


def test_checkpoint_schema_is_versioned(tmp_path):
    experiment = ToyExperiment(n=1)
    [spec] = experiment.job_specs()
    path = tmp_path / "ckpt.jsonl"
    with CheckpointWriter(path) as writer:
        writer.append(spec, execute_job(experiment, spec))
    doc = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert doc["schema"] == CHECKPOINT_SCHEMA
