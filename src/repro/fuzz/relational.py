"""Relational (pair-based) contract fuzzing.

Property-based testing finds programs where two *engines* disagree;
relational testing finds programs where two *inputs* disagree in ways a
:class:`~repro.fuzz.contracts.Contract` forbids.  A
:class:`RelationalPair` is one secret-tainted
:class:`~repro.fuzz.program.FuzzProgram` plus two secret regions that
are **public-equivalent** (identical ``data[:SECRET_OFFSET]``, same
code, same registers) and **secret-divergent** (they differ at every
secret byte the program's taint gadgets consume).  Running both
variants under the contract's mitigations and diffing the two
:class:`~repro.sidechannel.leaktrace.LeakTrace` records over the
contract's protected channels yields the violation verdict; each
variant additionally runs on both engines, so a contract campaign is
also a differential-engine campaign for free.

Sharding follows :class:`~repro.fuzz.oracle.FuzzExperiment` exactly:
pair *i* of a campaign is a pure function of ``(campaign_seed, i)``,
chunks are fixed-size, and the reduced violation manifest is
fingerprint-identical at any ``--jobs``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from ..core.experiment import chunked, values
from ..kernel.mitigations import Mitigation, mitigation_by_name
from ..pipeline import by_name
from ..runner import JobSpec, derive_seed
from ..sidechannel.leaktrace import LeakTrace, capture
from .contracts import Contract, contract_by_name
from .gen import generate
from .harness import build_world, compare_observables, run_world
from .oracle import CHUNK, DEFAULT_UARCHES, Divergence
from .program import BuiltProgram, FuzzProgram, SECRET_OFFSET, SECRET_SIZE

#: Schema tag on serialized pairs (clean corpus entries).
PAIR_SCHEMA = "phantom.fuzz-pair/1"

#: Mixed into the campaign-derived seed for secret material so the
#: secret stream is independent of the program-shape stream.
_SECRET_SALT = 0x5EC2E7


@dataclass(frozen=True)
class RelationalPair:
    """One program with two public-equivalent secret inputs."""

    program: FuzzProgram
    secret_a: bytes
    secret_b: bytes

    def __post_init__(self) -> None:
        if len(self.secret_a) != SECRET_SIZE or \
                len(self.secret_b) != SECRET_SIZE:
            raise ValueError(f"secrets must be {SECRET_SIZE} bytes")

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def consumed(self) -> tuple[int, ...]:
        """Secret bytes the program's annotated loads actually read."""
        return tuple(sorted({byte for _, byte
                             in self.program.secret_loads}))

    def _variant(self, secret: bytes) -> FuzzProgram:
        data = self.program.data.ljust(SECRET_OFFSET, b"\x00")
        return self.program.with_(
            data=data[:SECRET_OFFSET] + secret)

    @property
    def variant_a(self) -> FuzzProgram:
        return self._variant(self.secret_a)

    @property
    def variant_b(self) -> FuzzProgram:
        return self._variant(self.secret_b)

    def public_projection(self, variant: FuzzProgram) -> bytes:
        """The contract-visible projection of one variant's input."""
        return variant.data[:SECRET_OFFSET]

    def to_dict(self) -> dict:
        return {
            "schema": PAIR_SCHEMA,
            "name": self.name,
            "secret_a": self.secret_a.hex(),
            "secret_b": self.secret_b.hex(),
            "program": self.program.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RelationalPair":
        if doc.get("schema") != PAIR_SCHEMA:
            raise ValueError(
                f"not a {PAIR_SCHEMA} document: {doc.get('schema')!r}")
        return cls(program=FuzzProgram.from_dict(doc["program"]),
                   secret_a=bytes.fromhex(doc["secret_a"]),
                   secret_b=bytes.fromhex(doc["secret_b"]))

    def with_(self, **changes) -> "RelationalPair":
        return replace(self, **changes)


def pair_seed(campaign_seed: int, index: int) -> int:
    """Seed for the *index*-th pair — a function of the campaign seed
    and the index only, never of chunking or workers."""
    return derive_seed(campaign_seed, ("pair", index))


def generate_pair(seed: int, shape: str | None = None) -> RelationalPair:
    """Generate one relational pair.  Deterministic in *seed*.

    The program comes from the tainted generator (so it carries
    ``secret_loads`` annotations); ``secret_a`` is uniform random and
    ``secret_b`` equals it everywhere **except** the consumed bytes,
    where it is forced to differ.  Any observable difference between
    the variants is therefore attributable to the secret reads, and the
    public projections are equal by construction.
    """
    program = generate(seed, shape, taint=True)
    rng = random.Random(seed ^ _SECRET_SALT)
    secret_a = bytes(rng.randrange(256) for _ in range(SECRET_SIZE))
    flipped = bytearray(secret_a)
    for byte in sorted({b for _, b in program.secret_loads}):
        flipped[byte] ^= 1 + rng.randrange(255)
    secret_b = bytes(flipped)
    # Normalize the base program's data so variant A *is* the program
    # as serialized (replay of the bare program matches variant A).
    data = program.data.ljust(SECRET_OFFSET, b"\x00")[:SECRET_OFFSET]
    program = program.with_(data=data + secret_a)
    return RelationalPair(program=program, secret_a=secret_a,
                          secret_b=secret_b)


# -- checking --------------------------------------------------------------


@dataclass
class ContractVerdict:
    """Everything the relational oracle concluded about one pair."""

    pair: RelationalPair
    contract: Contract
    mitigation: Mitigation
    uarches: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # (uarch, "a"|"b") -> LeakTrace

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({d.klass for d in self.divergences}))

    @property
    def contract_classes(self) -> tuple[str, ...]:
        return tuple(c for c in self.classes if c.startswith("contract/"))

    def to_dict(self) -> dict:
        return {"pair": self.pair.name, "contract": self.contract.name,
                "mitigation": self.mitigation.name, "ok": self.ok,
                "classes": list(self.classes),
                "divergences": [str(d) for d in self.divergences]}


def _run_variant(variant: BuiltProgram, uarch, mitigation: Mitigation,
                 report: list[Divergence]) -> LeakTrace:
    """Run one assembled variant on both engines; cross-check them;
    return the fast engine's leak trace."""
    slow_world = build_world(variant, uarch, fastpath=False,
                             mitigations=mitigation.config)
    slow_world.cpu.record_episodes = True
    slow = run_world(slow_world)
    fast_world = build_world(variant, uarch, fastpath=True,
                             mitigations=mitigation.config)
    fast_world.cpu.record_episodes = True
    fast = run_world(fast_world)
    for diff in compare_observables(slow, fast):
        report.append(Divergence("engine", uarch.name, diff))
    slow_trace = capture(slow_world.cpu, slow_world.mem)
    fast_trace = capture(fast_world.cpu, fast_world.mem)
    slow_world.cpu.release()
    fast_world.cpu.release()
    for channel, summary in slow_trace.diff(fast_trace):
        report.append(Divergence("engine", uarch.name,
                                 f"trace-{channel}: {summary}"))
    return fast_trace


def check_pair(pair: RelationalPair, contract: Contract,
               uarches: Sequence[str] = DEFAULT_UARCHES, *,
               mitigation: Mitigation | None = None) -> ContractVerdict:
    """Run the pair under *contract* across the µarch matrix.

    *mitigation* overrides the contract's default mitigation setting
    (the ``repro fuzz --contract C --mitigation M`` axis: does mitigation
    M uphold contract C's clause?).
    """
    effective = mitigation if mitigation is not None \
        else contract.resolve_mitigation()
    verdict = ContractVerdict(pair=pair, contract=contract,
                              mitigation=effective,
                              uarches=tuple(uarches))
    report = verdict.divergences
    # Assembly reads only the code, which the variants share (they
    # differ only in ``data``, loaded from ``built.program``): build
    # once and hand the images to every world (variants x engines x
    # µarches).
    built_a = pair.variant_a.build()
    built_b = replace(built_a, program=pair.variant_b)
    for name in uarches:
        uarch = by_name(name)
        trace_a = _run_variant(built_a, uarch, effective, report)
        trace_b = _run_variant(built_b, uarch, effective, report)
        verdict.traces[(name, "a")] = trace_a
        verdict.traces[(name, "b")] = trace_b
        for channel, summary in trace_a.diff(trace_b, contract.protects):
            report.append(Divergence("contract", uarch.name,
                                     f"{channel}: {summary}"))
    return verdict


def check_pair_range(campaign_seed: int, start: int, stop: int,
                     contract: Contract,
                     uarches: Sequence[str] = DEFAULT_UARCHES, *,
                     shape: str | None = None,
                     mitigation: Mitigation | None = None
                     ) -> list[ContractVerdict]:
    """Generate and check pairs *start*..*stop* of a campaign."""
    verdicts = []
    for index in range(start, stop):
        pair = generate_pair(pair_seed(campaign_seed, index), shape)
        verdicts.append(check_pair(pair, contract, uarches,
                                   mitigation=mitigation))
    return verdicts


# -- campaign --------------------------------------------------------------


@dataclass(frozen=True)
class ContractExperiment:
    """The contract sweep as a campaign, sharded like
    :class:`~repro.fuzz.oracle.FuzzExperiment`: fixed-size seed-range
    chunks, worker-count-independent manifests."""

    seed: int = 0
    count: int = 50
    contract: str = "no-leak"
    shape: str | None = None
    uarches: tuple[str, ...] = DEFAULT_UARCHES
    mitigation: str | None = None     # override; None = contract default
    name: str = "contract-fuzz"

    def resolve(self) -> tuple[Contract, Mitigation | None]:
        contract = contract_by_name(self.contract)
        override = mitigation_by_name(self.mitigation) \
            if self.mitigation is not None else None
        return contract, override

    def campaign_config(self) -> dict:
        return {"seed": self.seed, "count": self.count,
                "contract": self.contract, "shape": self.shape,
                "uarches": list(self.uarches),
                "mitigation": self.mitigation}

    def job_specs(self) -> list[JobSpec]:
        return [
            JobSpec.make("contract", key=(index,),
                         seed=derive_seed(self.seed, ("chunk", index)),
                         start=start, stop=stop)
            for index, start, stop in chunked(self.count, CHUNK)
        ]

    def run_one(self, spec: JobSpec, ctx) -> list[dict]:
        contract, override = self.resolve()
        verdicts = check_pair_range(self.seed, spec.param("start"),
                                    spec.param("stop"), contract,
                                    self.uarches, shape=self.shape,
                                    mitigation=override)
        return [
            {"index": spec.param("start") + offset, **verdict.to_dict()}
            for offset, verdict in enumerate(verdicts)
        ]

    def reduce(self, results) -> dict:
        rows = [row for value in values(results) for row in value]
        violations = [row for row in rows if not row["ok"]]
        classes = sorted({klass for row in violations
                          for klass in row["classes"]})
        return {"pairs": len(rows), "violations": violations,
                "violated_indices": [row["index"] for row in violations],
                "classes": classes}


# -- pair persistence ------------------------------------------------------


def load_pair(path: Path | str) -> RelationalPair:
    """Load a pair from a pair document **or** a violation artifact."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") == "phantom.contract-violation/1":
        doc = doc["pair"]
    return RelationalPair.from_dict(doc)
