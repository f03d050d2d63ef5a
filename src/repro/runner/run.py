"""One experiment run: a metered manifest around its campaigns.

The CLI's experiment commands and the campaign-driven paper benchmarks
build their ``phantom.run-manifest/1`` document the same way, through
:class:`ExperimentRun`:

* entering zeroes the process metrics registry, sets its base labels
  to the run's machine (or clears them) and switches it on, and begins
  the manifest with the run's config;
* :meth:`ExperimentRun.campaign` runs one experiment as a campaign —
  inside a named phase, or with none — holds its merged manifest back,
  and returns its reduced value (raising
  :class:`~repro.runner.CampaignError` if a job failed);
* :meth:`ExperimentRun.finish` seals the outcome and then folds the
  held-back campaign manifests in, in order, so every job's metrics
  enter the document exactly once;
* leaving seals a run that never finished as ``success`` and switches
  the registry off.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..telemetry import REGISTRY, RunManifest
from .executor import run_campaign


class ExperimentRun:
    """A manifest, the metrics registry and the campaigns of one run."""

    def __init__(self, command: str, config: dict | None = None, *,
                 machine=None, jobs=None, **extra_config) -> None:
        self.command = command
        self.machine = machine
        self.jobs = jobs
        #: Extra ``run_campaign`` keywords (checkpoint, resume,
        #: on_job_done).
        self.campaign_kwargs: dict = {}
        self.config = {**(config or {}), **extra_config}
        self.workers: int | None = None   # the last campaign's pool size
        self.manifest: RunManifest | None = None
        self._absorbed: list[dict] = []

    def __enter__(self) -> "ExperimentRun":
        REGISTRY.reset()
        REGISTRY.set_base_labels(**({} if self.machine is None else
                                    {"uarch": self.machine.uarch.name}))
        REGISTRY.enable()
        self.manifest = RunManifest.begin(self.command,
                                          machine=self.machine,
                                          **self.config)
        return self

    def phase(self, name: str):
        return self.manifest.phase(name, machine=self.machine)

    def campaign(self, phase: str | None, experiment):
        """Run *experiment* as a campaign and return its value.

        The registry is reset after the campaign — its jobs' metrics
        live in the held-back manifest — and re-enabled: an in-process
        campaign leaves it disabled after its last job, and work after
        the campaign (violation replay, shrinking) must be metered the
        same at every worker count."""
        with self.phase(phase) if phase else nullcontext():
            result = run_campaign(experiment, jobs=self.jobs,
                                  **self.campaign_kwargs)
        self._absorbed.append(result.manifest)
        REGISTRY.reset()
        REGISTRY.enable()
        self.workers = result.jobs
        return result.raise_on_failure().value

    def finish(self, status: str, **outcome) -> None:
        self.manifest.finish(status, machine=self.machine, **outcome)
        while self._absorbed:
            self.manifest.absorb(self._absorbed.pop(0))

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None \
                    and self.manifest.outcome.get("status") == "unknown":
                self.finish("success")
        finally:
            REGISTRY.disable()
        return False
