"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and prints
it in the paper's layout (run pytest with ``-s`` to see the tables).
``REPRO_FULL=1`` switches to the paper's full experiment scale; the
default scale is reduced so the whole bench suite stays in CI budgets.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


def scale(default, full):
    """Pick an experiment size: reduced by default, paper-scale FULL."""
    return full if FULL else default


def emit(name: str, lines: list[str], manifest=None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    When a :class:`repro.telemetry.RunManifest` — or a plain manifest
    document (dict), e.g. a merged campaign manifest from
    :mod:`repro.runner` — is supplied, its JSON is archived next to the
    table as ``<name>.manifest.json`` (a stable name, so ``repro
    stats`` can diff successive runs).  An archived manifest whose
    :func:`repro.runner.manifest_fingerprint` equals the new one's is
    kept as it is: the two differ only in timestamps and host wall
    times, so a rerun that simulated the same work leaves the file
    byte-identical and a changed cycle count shows up in ``git diff``.
    """
    import json

    from repro.runner import manifest_fingerprint

    text = "\n".join(lines)
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if manifest is None:
        return
    doc = manifest if isinstance(manifest, dict) else manifest.to_dict()
    new_text = json.dumps(doc, indent=2) + "\n"
    path = RESULTS_DIR / f"{name}.manifest.json"
    try:
        old = manifest_fingerprint(json.loads(path.read_text()))
    except (OSError, ValueError):
        old = None
    if old != manifest_fingerprint(json.loads(new_text)):
        path.write_text(new_text)


@contextmanager
def telemetry_run(command: str, **config):
    """Metrics-enabled manifest for one benchmark experiment."""
    from repro.telemetry import REGISTRY, RunManifest

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield RunManifest.begin(command, config)
    finally:
        REGISTRY.disable()


def finish_with_campaigns(manifest, status, campaigns, **outcome):
    """Seal a bench manifest and fold campaign manifests into it.

    The campaigns' jobs already carried their own metrics scopes (the
    last one is still sitting in the process registry), so the registry
    is reset before the final snapshot — the job metrics enter exactly
    once, through :meth:`RunManifest.absorb`.
    """
    from repro.telemetry import REGISTRY

    REGISTRY.reset()
    manifest.finish(status, **outcome)
    for campaign in campaigns:
        manifest.absorb(campaign.manifest)
    return manifest


def run_once(benchmark, fn):
    """Register *fn* with pytest-benchmark as a single-shot measurement."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
