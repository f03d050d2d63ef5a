"""Run manifests: one JSON document per experiment run.

A manifest captures everything needed to compare two runs of the same
experiment without rerunning them: the configuration (µarch, seeds,
mitigations), a per-phase cycle/wall-time profile, a snapshot of the
metrics registry and the CPU's performance counters, and the outcome.

Schema id: ``phantom.run-manifest/1`` — the machine-checkable JSON
Schema lives in :mod:`repro.telemetry.schema` (and, checked into the
test tree, ``tests/data/run_manifest.schema.json``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .merge import merge_metric_snapshots, merge_pmc
from .metrics import REGISTRY

MANIFEST_SCHEMA = "phantom.run-manifest/1"


@dataclass
class PhaseProfile:
    """Cycle/wall-time cost of one named phase of a run."""

    name: str
    cycles: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "cycles": self.cycles,
                "wall_time_s": self.wall_time_s}


def machine_config(machine, **extra) -> dict:
    """The config block for a run driven by one :class:`Machine`."""
    mit = asdict(machine.mitigations)
    config = {
        "uarch": machine.uarch.name,
        "model": machine.uarch.model,
        "vendor": machine.uarch.vendor,
        "clock_ghz": machine.uarch.clock_ghz,
        "kaslr_seed": getattr(machine, "kaslr_seed", None),
        "mitigations": {k: bool(v) for k, v in mit.items()},
        "phys_mem_bytes": machine.mem.phys.size,
    }
    config.update(extra)
    return config


class RunManifest:
    """Builder/loader for one run's manifest document."""

    def __init__(self, command: str, config: dict | None = None) -> None:
        self.command = command
        self.config = dict(config or {})
        self.created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.phases: list[PhaseProfile] = []
        self.metrics: dict = {}
        self.pmc: dict[str, int] = {}
        self.outcome: dict = {"status": "unknown"}
        self.totals: dict = {"cycles": 0, "wall_time_s": 0.0,
                             "simulated_seconds": 0.0}
        self._wall_start = time.perf_counter()

    # -- building ----------------------------------------------------------

    @classmethod
    def begin(cls, command: str, config: dict | None = None,
              machine=None, **extra_config) -> "RunManifest":
        config = dict(config or {})
        if machine is not None:
            config.update(machine_config(machine))
        config.update(extra_config)
        return cls(command, config)

    @contextmanager
    def phase(self, name: str, machine=None):
        """Record one named phase's wall time (and cycles, if a machine
        is supplied)."""
        profile = PhaseProfile(name=name)
        cycles_before = machine.cycles if machine is not None else 0
        wall_before = time.perf_counter()
        try:
            yield profile
        finally:
            profile.wall_time_s = time.perf_counter() - wall_before
            if machine is not None:
                profile.cycles = machine.cycles - cycles_before
            self.phases.append(profile)

    def finish(self, status: str, machine=None, registry=None,
               **outcome) -> "RunManifest":
        """Seal the manifest: outcome, metric/PMC snapshots, totals."""
        self.outcome = {"status": status}
        self.outcome.update(outcome)
        registry = registry if registry is not None else REGISTRY
        self.metrics = registry.snapshot()
        if machine is not None:
            self.pmc = machine.cpu.pmc.snapshot()
            self.totals["cycles"] = machine.cycles
            self.totals["simulated_seconds"] = machine.seconds()
        self.totals["wall_time_s"] = time.perf_counter() - self._wall_start
        return self

    def absorb(self, doc: dict) -> "RunManifest":
        """Fold another manifest document (typically a merged campaign
        manifest from :mod:`repro.runner`) into this one: its phases are
        appended, metrics and PMC snapshots merged, its simulated
        totals added, and its resume lineage lifted into this outcome.
        Wall time stays this manifest's own."""
        for phase in doc.get("phases", ()):
            self.phases.append(PhaseProfile(**phase))
        self.metrics = merge_metric_snapshots(self.metrics,
                                              doc.get("metrics", {}))
        self.pmc = merge_pmc(self.pmc, doc.get("pmc", {}))
        totals = doc.get("totals", {})
        self.totals["cycles"] += totals.get("cycles", 0)
        self.totals["simulated_seconds"] += totals.get(
            "simulated_seconds", 0.0)
        if "resume" in doc.get("outcome", {}):
            self.outcome.setdefault("resume", doc["outcome"]["resume"])
        return self

    # -- export / import ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "created_at": self.created_at,
            "config": self.config,
            "phases": [p.to_dict() for p in self.phases],
            "metrics": self.metrics,
            "pmc": self.pmc,
            "outcome": self.outcome,
            "totals": self.totals,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, results_dir, *, name: str | None = None) -> Path:
        """Write the manifest under *results_dir*; returns the path."""
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        if name is None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            name = f"{self.command.replace(' ', '_')}-{stamp}.json"
        path = results_dir / name
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @staticmethod
    def load(path) -> dict:
        """Load a manifest document (as a plain dict) from disk."""
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
