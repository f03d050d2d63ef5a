"""Microbenchmark: what does journaling every job cost a campaign?

The checkpoint journal (``repro.resilience.checkpoint``) appends one
JSON line per finished job and flushes it at once.  Durability is only
worth having if it is effectively free next to the simulated work, so
this benchmark runs the same pure-compute campaign bare, journaled and
resumed from that journal, and archives the per-job cost of each in a
run manifest for ``repro stats`` to track across revisions.
"""

from dataclasses import dataclass
from typing import ClassVar

from repro.resilience import load_checkpoint
from repro.runner import JobSpec, derive_seed, run_campaign

from _harness import emit, run_once, scale, telemetry_run

JOBS = scale(200, 2_000)


@dataclass(frozen=True)
class JournaledToy:
    """Minimal campaign: journal overhead dominates by construction."""

    name: ClassVar[str] = "checkpoint-bench"

    n: int = JOBS

    def campaign_config(self) -> dict:
        return {"n": self.n}

    def job_specs(self):
        return [JobSpec.make(self.name, (i,), derive_seed(9, (i,)),
                             index=i)
                for i in range(self.n)]

    def run_one(self, spec, ctx):
        return spec.param("index") * 3 + spec.seed % 11

    def reduce(self, results):
        return [r.value for r in results if r.ok]


def _timed_campaign(**kwargs) -> float:
    import time

    start = time.perf_counter()
    campaign = run_campaign(JournaledToy(), jobs=1, **kwargs)
    elapsed = time.perf_counter() - start
    assert not campaign.failures
    return elapsed


def test_checkpoint_journal_overhead(benchmark, tmp_path):
    def measure():
        with telemetry_run("bench-checkpoint-overhead",
                           jobs=JOBS) as manifest:
            bare_s = _timed_campaign()
            per_job_s = _timed_campaign(checkpoint=tmp_path / "ckpt.jsonl")
            resume_start_s = _timed_campaign(resume=tmp_path / "ckpt.jsonl")
            manifest.finish(
                "success",
                bare_us_per_job=bare_s / JOBS * 1e6,
                journaled_us_per_job=per_job_s / JOBS * 1e6,
                resume_us_per_job=resume_start_s / JOBS * 1e6)
        return bare_s, per_job_s, resume_start_s, manifest

    bare_s, per_job_s, resume_s, manifest = run_once(benchmark, measure)

    lines = [f"checkpoint journal overhead, {JOBS:,} jobs",
             f"{'variant':22s} {'us/job':>8s}",
             f"{'no journal':22s} {bare_s / JOBS * 1e6:8.1f}",
             f"{'journal every job':22s} {per_job_s / JOBS * 1e6:8.1f}",
             f"{'resume (all skipped)':22s} {resume_s / JOBS * 1e6:8.1f}"]
    emit("checkpoint_overhead", lines, manifest=manifest)

    # The journal captured every job.
    assert len(load_checkpoint(tmp_path / "ckpt.jsonl")) == JOBS
    # Durability must stay cheap: generous CI-noise bound against the
    # bare campaign (journaling is file appends, not simulation).
    assert per_job_s < bare_s * 5 + 0.5
