"""Table 1: the training x victim type-confusion matrix.

For every asymmetric combination of training and victim instruction
(20 cross-type pairs plus the two same-type different-displacement
variants = 22), measure through the observation channels how far the
mispredicted target advances: IF, ID or EX.

Every channel measurement uses a fresh machine, mirroring the paper's
fresh victim processes: otherwise a branch victim's own architectural
execution would train a correct prediction and mask the phantom.
Fresh machines also make every cell an independent job: the matrix is
a campaign of :class:`MatrixExperiment` jobs the parallel runner
(:mod:`repro.runner`) shards across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from ..kernel import DEFAULT_MITIGATIONS, MachineSpec, MitigationConfig
from ..pipeline import Microarch, Reach
from ..runner import JobContext, JobSpec, run_campaign
from .observe import (ExperimentResult, TrainKind, TypeConfusionExperiment,
                      VictimKind)

#: The 22 combinations of Table 1 (asymmetric pairs + displacement
#: variants for jmp and jcc).
ASYMMETRIC_COMBOS: tuple[tuple[TrainKind, VictimKind], ...] = tuple(
    (t, v) for t in TrainKind for v in VictimKind
    if t.value != v.value
) + ((TrainKind.DIRECT, VictimKind.DIRECT),
     (TrainKind.CONDITIONAL, VictimKind.CONDITIONAL))

#: Explicit channel -> measurement dispatch (no stringly ``getattr``):
#: an unknown channel fails loudly instead of resolving to whatever
#: attribute happens to match.
CHANNEL_MEASUREMENTS: dict[
    str, Callable[[TypeConfusionExperiment], bool]] = {
    "fetch": TypeConfusionExperiment.measure_fetch,
    "decode": TypeConfusionExperiment.measure_decode,
    "execute": TypeConfusionExperiment.measure_execute,
}

#: Channel order of one cell measurement (ExperimentResult field order).
CHANNELS: tuple[str, ...] = ("fetch", "decode", "execute")


def measure_channel(experiment: TypeConfusionExperiment,
                    channel: str) -> bool:
    """Run one observation channel by name."""
    try:
        measure = CHANNEL_MEASUREMENTS[channel]
    except KeyError:
        raise ValueError(
            f"unknown observation channel {channel!r}; expected one of "
            f"{', '.join(sorted(CHANNEL_MEASUREMENTS))}") from None
    return measure(experiment)


@dataclass
class CellResult:
    """Measured reach for one (train, victim) cell on one µarch."""

    uarch: str
    train: TrainKind
    victim: VictimKind
    result: ExperimentResult

    @property
    def reach(self) -> Reach:
        return self.result.reach

    def to_dict(self) -> dict:
        return {"uarch": self.uarch, "train": self.train.value,
                "victim": self.victim.value, "fetch": self.result.fetch,
                "decode": self.result.decode,
                "execute": self.result.execute, "reach": self.reach.name}


@dataclass(frozen=True)
class MatrixExperiment:
    """The Table 1 campaign: one job per (µarch, train, victim) cell.

    ``uarches`` holds names or :class:`Microarch` models; a modified
    model reaches the workers intact (see :class:`MachineSpec`).
    """

    name: ClassVar[str] = "matrix"

    uarches: tuple[str | Microarch, ...]
    combos: tuple[tuple[TrainKind, VictimKind], ...] = ASYMMETRIC_COMBOS
    seed: int = 0
    mitigations: MitigationConfig = DEFAULT_MITIGATIONS

    def campaign_config(self) -> dict:
        return {"uarches": [getattr(u, "name", u) for u in self.uarches],
                "seed": self.seed, "combos": len(self.combos)}

    def job_specs(self) -> list[JobSpec]:
        specs = []
        for uarch in self.uarches:
            machine = MachineSpec(uarch=uarch, kaslr_seed=self.seed,
                                  rng_seed=self.seed,
                                  mitigations=self.mitigations,
                                  syscall_noise_evictions=0)
            for train, victim in self.combos:
                specs.append(JobSpec.make(
                    self.name, (machine.uarch, train.value, victim.value),
                    self.seed, machine=machine,
                    train=train.name, victim=victim.name))
        return specs

    def run_one(self, spec: JobSpec, ctx: JobContext) -> CellResult:
        train = TrainKind[spec.param("train")]
        victim = VictimKind[spec.param("victim")]
        outcomes = {}
        for channel in CHANNELS:
            with ctx.span(f"measure:{channel}"):
                machine = ctx.boot(spec.machine)
                experiment = TypeConfusionExperiment(machine, train, victim)
                outcomes[channel] = measure_channel(experiment, channel)
        return CellResult(spec.key[0], train, victim,
                          ExperimentResult(**outcomes))

    def reduce(self, results) -> list[CellResult]:
        return [r.value for r in results if r.ok]


def measure_cell(uarch: Microarch, train_kind: TrainKind,
                 victim_kind: VictimKind, *, seed: int = 0,
                 mitigations: MitigationConfig = DEFAULT_MITIGATIONS
                 ) -> ExperimentResult:
    """Measure one cell; fresh machine per channel (see module doc)."""
    experiment = MatrixExperiment(uarches=(uarch,),
                                  combos=((train_kind, victim_kind),),
                                  seed=seed, mitigations=mitigations)
    [spec] = experiment.job_specs()
    ctx = JobContext()
    cell = experiment.run_one(spec, ctx)
    ctx.release()
    return cell.result


def run_matrix(uarches, *, combos=ASYMMETRIC_COMBOS, seed: int = 0,
               mitigations: MitigationConfig = DEFAULT_MITIGATIONS,
               jobs: int = 1) -> list[CellResult]:
    """Run the full Table 1 experiment over *uarches*.

    ``jobs`` shards the cells across worker processes; results are
    byte-identical at any value (each cell is an independent fresh
    machine either way).  A failed cell raises, as the pre-runner API
    did — drive :class:`MatrixExperiment` through
    :func:`repro.runner.run_campaign` directly for failure capture.
    """
    experiment = MatrixExperiment(
        uarches=tuple(uarches), combos=tuple(combos),
        seed=seed, mitigations=mitigations)
    return run_campaign(experiment, jobs=jobs).raise_on_failure().value


_REACH_GLYPH = {"NONE": "-", "FETCH": "IF", "DECODE": "ID", "EXECUTE": "EX"}


def format_matrix(rows: list[dict]) -> str:
    """Render ``CellResult.to_dict()`` rows the way Table 1 does, one
    block per µarch."""
    lines = []
    for uarch in sorted({row["uarch"] for row in rows}):
        cells = {(row["train"], row["victim"]): row["reach"]
                 for row in rows if row["uarch"] == uarch}
        lines.append(f"=== {uarch} ===")
        lines.append("train \\ victim".ljust(16) + "".join(
            victim.value.ljust(12) for victim in VictimKind))
        for train in TrainKind:
            lines.append(train.value.ljust(16) + "".join(
                _REACH_GLYPH.get(cells.get((train.value, victim.value)),
                                 ".").ljust(12)
                for victim in VictimKind))
        lines.append("")
    return "\n".join(lines)
