"""Differential oracle: one program, every equivalence the repo claims.

For each µarch in the matrix (≥ 2 configs — by default one where the
decoder loses the resteer race and one where it wins), the oracle runs
the program under the naive interpreter and the fast-path engine and
compares the full :class:`~repro.fuzz.harness.Observables` — cycles,
registers, flags, PMC snapshot, episode list, data digest, outcome.
The naive run carries the PMC-monotonicity sink on the
``phantom.trace/1`` stream (architecturally invisible, so traced-slow
vs untraced-fast still has to match — the comparison doubles as a test
of that claim); it rides the slow engine because compiled dispatch
steps aside while any trace sink is attached, and the oracle's fast
run must exercise the fused path.
Both worlds are then subjected to the post-run invariant checks from
:mod:`repro.fuzz.invariants`.

The `--jobs 1` vs `--jobs N` axis is covered by
:class:`FuzzExperiment`, which shards a seed range into fixed-size
chunks through the campaign runner; equal
:func:`~repro.runner.manifest_fingerprint` at different worker counts
is the same determinism statement the rest of the repo makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..pipeline import by_name
from ..runner import JobSpec, derive_seed
from ..core.experiment import chunked, values
from ..telemetry.trace import TRACE
from .gen import generate
from .harness import build_world, compare_observables, run_world
from .invariants import (PMCMonotoneHook, check_cache_coherence,
                         check_episodes, check_no_transient_architectural_effect,
                         check_pmc_episode_consistency)
from .program import FuzzProgram

#: Default µarch matrix: Zen 2's decoder loses the resteer race
#: (phantom execute µops > 0), Zen 3's wins — the two engine-relevant
#: regimes of pipeline/config.py.
DEFAULT_UARCHES = ("zen2", "zen3")

#: Fixed shard size for the campaign decomposition (never a function
#: of --jobs; see repro.runner.spec).
CHUNK = 5


@dataclass(frozen=True)
class Divergence:
    """One oracle finding."""

    kind: str        # "engine" | "invariant"
    uarch: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}/{self.uarch}: {self.detail}"

    @property
    def klass(self) -> str:
        """Coarse class used by the shrinker to preserve the failure
        mode while minimizing: kind, µarch and the leading token of the
        detail (the differing field or violated invariant)."""
        head = self.detail.split(":", 1)[0].split(" ", 1)[0]
        return f"{self.kind}/{self.uarch}/{head}"


@dataclass
class Verdict:
    """Everything the oracle concluded about one program."""

    program: FuzzProgram
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({d.klass for d in self.divergences}))

    def to_dict(self) -> dict:
        return {"program": self.program.name, "ok": self.ok,
                "divergences": [str(d) for d in self.divergences]}


def check_program(program: FuzzProgram,
                  uarches: Sequence[str] = DEFAULT_UARCHES) -> Verdict:
    """Run the full oracle matrix over one program."""
    verdict = Verdict(program=program)
    report = verdict.divergences
    for name in uarches:
        uarch = by_name(name)
        # Build the slow world by hand so the monotonicity sink can be
        # bound to its CPU before the first instruction retires.  The
        # sink is attached around the *naive* run only: it is
        # architecturally passive (traced-slow vs untraced-fast still
        # has to match — the comparison doubles as a test of that
        # claim), and the fast engine must run untraced because
        # compiled dispatch steps aside whenever a trace sink is
        # attached — a traced fast run would silently stop exercising
        # the fused path.
        slow_world = build_world(program, uarch, fastpath=False)
        slow_world.cpu.record_episodes = True
        hook = PMCMonotoneHook(slow_world.cpu)
        with TRACE.sink(hook):
            slow = run_world(slow_world)

        fast_world = build_world(program, uarch, fastpath=True)
        fast_world.cpu.record_episodes = True
        fast = run_world(fast_world)

        for diff in compare_observables(slow, fast):
            report.append(Divergence("engine", uarch.name, diff))
        for violation in hook.violations:
            report.append(Divergence("invariant", uarch.name,
                                     str(violation)))
        for world in (slow_world, fast_world):
            for violation in check_cache_coherence(world):
                report.append(Divergence("invariant", uarch.name,
                                         str(violation)))
            world.cpu.release()
        for violation in check_episodes(fast, uarch):
            report.append(Divergence("invariant", uarch.name,
                                     str(violation)))
        for violation in check_pmc_episode_consistency(fast):
            report.append(Divergence("invariant", uarch.name,
                                     str(violation)))
        for violation in check_no_transient_architectural_effect(
                program, uarch, fast):
            report.append(Divergence("invariant", uarch.name,
                                     str(violation)))
    return verdict


def program_seed(campaign_seed: int, index: int) -> int:
    """Seed for the *index*-th generated program — a function of the
    campaign seed and the index only, never of chunking or workers."""
    return derive_seed(campaign_seed, ("program", index))


def check_range(campaign_seed: int, start: int, stop: int,
                uarches: Sequence[str] = DEFAULT_UARCHES,
                *, shape: str | None = None) -> list[Verdict]:
    """Generate and check programs *start*..*stop* of a campaign."""
    verdicts = []
    for index in range(start, stop):
        program = generate(program_seed(campaign_seed, index), shape)
        verdicts.append(check_program(program, uarches))
    return verdicts


@dataclass(frozen=True)
class FuzzExperiment:
    """The fuzz sweep as a campaign: shards a seed range through the
    parallel runner so `repro fuzz --jobs N` and the jobs-differential
    tests reuse the exact same decomposition."""

    seed: int = 0
    count: int = 50
    shape: str | None = None
    uarches: tuple[str, ...] = DEFAULT_UARCHES
    name: str = "fuzz"

    def campaign_config(self) -> dict:
        return {"seed": self.seed, "count": self.count,
                "shape": self.shape, "uarches": list(self.uarches)}

    def job_specs(self) -> list[JobSpec]:
        return [
            JobSpec.make("fuzz", key=(index,),
                         seed=derive_seed(self.seed, ("chunk", index)),
                         start=start, stop=stop)
            for index, start, stop in chunked(self.count, CHUNK)
        ]

    def run_one(self, spec: JobSpec, ctx) -> list[dict]:
        verdicts = check_range(self.seed, spec.param("start"),
                               spec.param("stop"), self.uarches,
                               shape=self.shape)
        return [
            {"index": spec.param("start") + offset, **verdict.to_dict()}
            for offset, verdict in enumerate(verdicts)
        ]

    def reduce(self, results) -> dict:
        rows = [row for value in values(results) for row in value]
        failures = [row for row in rows if not row["ok"]]
        return {"programs": len(rows), "failures": failures,
                "failed_indices": [row["index"] for row in failures]}
