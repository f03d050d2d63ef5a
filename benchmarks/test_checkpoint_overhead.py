"""Microbenchmark: what does journaling every job cost a campaign?

The checkpoint journal (``repro.resilience.checkpoint``) appends one
JSON line per finished job and flushes it at once.  Durability is only
worth having if it is effectively free next to the simulated work, so
this benchmark runs the same pure-compute campaign bare, journaled and
resumed from a complete journal, and archives the per-job cost of each
in a run manifest for ``repro stats`` to track across revisions.

Whichever campaign runs third in one process reads 2-3x slower than
the same campaign run first, so the variants are timed in
:func:`repro.bench.paired_rounds`, whose rotating order runs each one
first, second and third equally often, and each one reports its
median.
"""

import itertools
from dataclasses import dataclass
from typing import ClassVar

from repro.bench import ROUNDS, paired_rounds
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


def _campaign(**kwargs):
    def run():
        campaign = run_campaign(JournaledToy(), jobs=1, **kwargs)
        assert not campaign.failures
    return run


def test_checkpoint_journal_overhead(benchmark, tmp_path):
    full_journal = tmp_path / "full.jsonl"
    _campaign(checkpoint=full_journal)()
    journals = (tmp_path / f"ckpt-{r}.jsonl" for r in itertools.count())
    variants = {
        "bare": _campaign,
        "journaled": lambda: _campaign(checkpoint=next(journals)),
        "resume": lambda: _campaign(resume=full_journal),
    }

    def measure():
        with telemetry_run("bench-checkpoint-overhead", jobs=JOBS,
                           rounds=ROUNDS) as manifest:
            rounds = paired_rounds(variants)
            medians = {name: rounds.median(name) for name in variants}
            manifest.finish(
                "success",
                bare_us_per_job=medians["bare"] / JOBS * 1e6,
                journaled_us_per_job=medians["journaled"] / JOBS * 1e6,
                resume_us_per_job=medians["resume"] / JOBS * 1e6)
        return (medians["bare"], medians["journaled"], medians["resume"],
                manifest)

    bare_s, per_job_s, resume_s, manifest = run_once(benchmark, measure)

    lines = [f"checkpoint journal overhead, {JOBS:,} jobs, "
             f"median of {ROUNDS} rotating rounds, CPU time",
             f"{'variant':22s} {'us/job':>8s}",
             f"{'no journal':22s} {bare_s / JOBS * 1e6:8.1f}",
             f"{'journal every job':22s} {per_job_s / JOBS * 1e6:8.1f}",
             f"{'resume (all skipped)':22s} {resume_s / JOBS * 1e6:8.1f}"]
    emit("checkpoint_overhead", lines, manifest=manifest)

    # Every journal captured every job.
    for r in range(ROUNDS):
        assert len(load_checkpoint(tmp_path / f"ckpt-{r}.jsonl")) == JOBS
    # Durability must stay cheap: generous CI-noise bound against the
    # bare campaign (journaling is file appends, not simulation).
    assert per_job_s < bare_s * 5 + 0.5
