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
from repro.runner.run import ExperimentRun

from _harness import emit, run_once, scale

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


def render(record):
    return [f"checkpoint journal overhead, {record['jobs']:,} jobs, "
            f"median of {record['rounds']} rotating rounds, CPU time",
            f"{'variant':22s} {'us/job':>8s}",
            f"{'no journal':22s} {record['bare_us_per_job']:8.1f}",
            f"{'journal every job':22s} "
            f"{record['journaled_us_per_job']:8.1f}",
            f"{'resume (all skipped)':22s} "
            f"{record['resume_us_per_job']:8.1f}"]


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
        with ExperimentRun("bench-checkpoint-overhead",
                           {"jobs": JOBS, "rounds": ROUNDS}) as run:
            rounds = paired_rounds(variants)
            numbers = {f"{name}_us_per_job": rounds.median(name) / JOBS * 1e6
                       for name in variants}
            run.finish("success", **numbers)
        return numbers, run.manifest

    numbers, manifest = run_once(benchmark, measure)
    record = emit("checkpoint_overhead",
                  {"jobs": JOBS, "rounds": ROUNDS, **numbers}, render,
                  manifest=manifest)

    # Every journal captured every job.
    for r in range(ROUNDS):
        assert len(load_checkpoint(tmp_path / f"ckpt-{r}.jsonl")) == JOBS
    # Durability must stay cheap: journaling is file appends, not
    # simulation, so it may cost at most 5x the bare campaign (20 runs
    # read 2.7-3.3x on a shared 2-vCPU host).
    assert record["journaled_us_per_job"] < record["bare_us_per_job"] * 5
