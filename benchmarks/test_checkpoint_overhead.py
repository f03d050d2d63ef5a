"""Microbenchmark: what does journaling every job cost a campaign?

The checkpoint journal (``repro.resilience.checkpoint``) appends one
JSON line per finished job and flushes it at once.  Durability is only
worth having if it is effectively free next to the simulated work, so
this benchmark runs the same pure-compute campaign bare, journaled and
resumed from a complete journal, and archives the per-job cost of each
in a run manifest for ``repro stats`` to track across revisions.

Whichever campaign runs third in one process reads 2-3x slower than
the same campaign run first, so the variants are timed over several
rounds in rotating order (each variant runs first, second and third
equally often) and each one reports its median.
"""

import statistics
from dataclasses import dataclass
from typing import ClassVar

from repro.resilience import load_checkpoint
from repro.runner import JobSpec, derive_seed, run_campaign

from _harness import emit, run_once, scale, telemetry_run

JOBS = scale(200, 2_000)
#: A multiple of the three variants: each runs in each slot equally often.
ROUNDS = 6


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
    full_journal = tmp_path / "full.jsonl"
    _timed_campaign(checkpoint=full_journal)
    variants = {
        "bare": lambda r: _timed_campaign(),
        "journaled": lambda r: _timed_campaign(
            checkpoint=tmp_path / f"ckpt-{r}.jsonl"),
        "resume": lambda r: _timed_campaign(resume=full_journal),
    }
    order = list(variants)

    def measure():
        times = {name: [] for name in order}
        with telemetry_run("bench-checkpoint-overhead", jobs=JOBS,
                           rounds=ROUNDS) as manifest:
            for r in range(ROUNDS):
                shift = r % len(order)
                for name in order[shift:] + order[:shift]:
                    times[name].append(variants[name](r))
            medians = {name: statistics.median(ts)
                       for name, ts in times.items()}
            manifest.finish(
                "success",
                bare_us_per_job=medians["bare"] / JOBS * 1e6,
                journaled_us_per_job=medians["journaled"] / JOBS * 1e6,
                resume_us_per_job=medians["resume"] / JOBS * 1e6)
        return (medians["bare"], medians["journaled"], medians["resume"],
                manifest)

    bare_s, per_job_s, resume_s, manifest = run_once(benchmark, measure)

    lines = [f"checkpoint journal overhead, {JOBS:,} jobs, "
             f"median of {ROUNDS} rotating rounds",
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
