"""The three benchmark workloads: experiments, set-up step and checks.

Each workload turns the benchmark's ``--seed`` into the experiments of
one repetition, each run by :func:`repro.runner.run_campaign` in turn
(the program sees only those experiments), names the set-up step a
fresh process pays before its first campaign, and checks every answer
the campaigns give.  Why each workload exists, and which layers it
stresses, is in ``README.md``.
"""

from __future__ import annotations

from repro.core import TrainKind, VictimKind
from repro.core.kaslr_image import KaslrImageExperiment
from repro.core.matrix import MatrixExperiment
from repro.fuzz.harness import build_world
from repro.fuzz.relational import ContractExperiment, generate_pair, pair_seed
from repro.kernel import Kaslr, Machine, MachineSpec
from repro.pipeline import (ALL_MICROARCHES, INTEL_MICROARCHES, Reach, ZEN1,
                            ZEN2, by_name)
from repro.runner import derive_seed

#: Program shapes of the contract repetition, one fixed-shape campaign
#: each, so the shape mix is the same for every seed.  ``smc`` brings
#: the self-modifying code that invalidates superblocks.  ``straddle``
#: (pairs cost ~6x the others) and ``syscall`` (rare pairs of several
#: seconds) are left out: with them the repetition's work moved by tens
#: of percent from seed to seed.
CONTRACT_SHAPES = ("branchy", "alias", "smc", "mixed")
#: Pairs per shape: 100 pairs, about one repetition per run.
CONTRACT_PAIRS_PER_SHAPE = 25
CONTRACT_UARCHES = ("zen2", "zen3")


class Workload:
    name: str
    #: Campaign worker count (``run_campaign(jobs=...)``).
    jobs: int
    #: What one checked operation is, for ``attempted``/``failed``.
    operation: str

    def campaign_seed(self, seed: int) -> int:
        return derive_seed(seed, ("perfbench", self.name))

    def experiments(self, campaign_seed: int) -> tuple:
        """The campaigns of one repetition, run one after the other."""
        raise NotImplementedError

    def first_boot(self, campaign_seed: int) -> None:
        """The first machine boot (or fuzz world build) of a fresh
        process: the set-up a user pays before any campaign work."""
        spec = self.experiments(campaign_seed)[0].job_specs()[0]
        Machine.from_spec(spec.machine)

    def check(self, campaigns, campaign_seed: int) -> tuple[int, int, object]:
        """``(attempted, failed, answer)`` for one finished repetition;
        *answer* is the JSON-able result that enters the digest."""
        raise NotImplementedError

    def sim_instructions(self, manifests) -> int | None:
        """Simulated instructions retired, where the manifests have PMCs."""
        return sum(m["pmc"]["instructions"] for m in manifests)


class Table1Matrix(Workload):
    name = "table1_matrix"
    jobs = 2
    operation = "cells"

    def experiments(self, campaign_seed):
        return (MatrixExperiment(
            uarches=tuple(u.name for u in ALL_MICROARCHES),
            seed=campaign_seed),)

    def check(self, campaigns, campaign_seed):
        [campaign] = campaigns
        cells = campaign.value
        attempted = len(campaign.results)
        failed = attempted - len(cells) + len(table1_violations(cells))
        answer = sorted((cell.to_dict() for cell in cells),
                        key=lambda d: (d["uarch"], d["train"], d["victim"]))
        return attempted, failed, answer


def table1_violations(cells) -> list:
    """Cells breaking Table 1's observations (the predicates
    ``benchmarks/test_table1_matrix.py`` asserts):

    * O1/O2: every combination reaches fetch and decode, except Intel
      parts on indirect-branch victims;
    * O3: transient execute exactly on Zen 1/2, plus the jcc
      straight-line-speculation case (non-branch trained, jcc victim);
    * Intel indirect victims never reach decode, and show nothing at all
      on parts without BPU-assisted prefetch.
    """
    intel = {u.name for u in INTEL_MICROARCHES}
    zen12 = {ZEN1.name, ZEN2.name}
    bad = []
    for cell in cells:
        intel_indirect = (cell.uarch in intel
                          and cell.victim is VictimKind.INDIRECT)
        jcc_sls = (cell.train is TrainKind.NON_BRANCH
                   and cell.victim is VictimKind.CONDITIONAL)
        ok = intel_indirect or cell.reach >= Reach.DECODE
        if cell.uarch in zen12:
            ok = ok and cell.reach is Reach.EXECUTE
        elif not jcc_sls:
            ok = ok and cell.reach < Reach.EXECUTE
        if intel_indirect:
            ok = ok and cell.reach < Reach.DECODE
            if not by_name(cell.uarch).bpu_prefetch:
                ok = ok and cell.reach is Reach.NONE
        if not ok:
            bad.append(cell)
    return bad


class KaslrBreak(Workload):
    name = "kaslr_break"
    jobs = 1
    operation = "breaks"

    def experiments(self, campaign_seed):
        return (KaslrImageExperiment(
            machine=MachineSpec(uarch="zen3", kaslr_seed=campaign_seed)),)

    def check(self, campaigns, campaign_seed):
        [campaign] = campaigns
        truth = Kaslr.randomize(campaign_seed).image_base
        failed = int(bool(campaign.failures)
                     or campaign.value.guessed_base != truth)
        return 1, failed, campaign.value.to_dict()


class ContractFuzz(Workload):
    name = "contract_fuzz"
    jobs = 1
    operation = "pairs"

    def experiments(self, campaign_seed):
        return tuple(
            ContractExperiment(seed=campaign_seed,
                               count=CONTRACT_PAIRS_PER_SHAPE,
                               contract="no-if-leak", shape=shape,
                               uarches=CONTRACT_UARCHES)
            for shape in CONTRACT_SHAPES)

    def first_boot(self, campaign_seed):
        pair = generate_pair(pair_seed(campaign_seed, 0), CONTRACT_SHAPES[0])
        build_world(pair.variant_a, by_name(CONTRACT_UARCHES[0]),
                    fastpath=True)

    def check(self, campaigns, campaign_seed):
        attempted = failed = 0
        answer = {}
        for shape, campaign in zip(CONTRACT_SHAPES, campaigns):
            value = campaign.value
            # Naive and fast engines must agree on every variant: any
            # ``engine/…`` divergence is a wrong answer, and pairs lost
            # with a failed job count as failed too.
            engine_faults = sum(
                any(klass.startswith("engine/") for klass in row["classes"])
                for row in value["violations"])
            attempted += CONTRACT_PAIRS_PER_SHAPE
            failed += CONTRACT_PAIRS_PER_SHAPE - value["pairs"] + engine_faults
            answer[shape] = {"pairs": value["pairs"],
                             "violated_indices": value["violated_indices"],
                             "classes": value["classes"]}
        return attempted, failed, answer

    def sim_instructions(self, manifests):
        return None


WORKLOADS = {w.name: w for w in (Table1Matrix(), KaslrBreak(),
                                 ContractFuzz())}
