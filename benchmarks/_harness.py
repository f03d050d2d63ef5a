"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper as a
result record — a JSON object whose rows are the experiment results'
``to_dict()`` plus the summary numbers the paper reports — and
:func:`emit` archives it as ``results/<name>.json``.  The table in
``results/<name>.txt`` (printed with pytest's ``-s``) is rendered from
that record as read back from its JSON, and the benchmark's asserts
read the same record, so every number is worked out once.
Campaign-driven benchmarks build their run manifest through
:class:`repro.runner.run.ExperimentRun`, the core the CLI commands
use, and archive it beside the record.  ``REPRO_FULL=1`` switches to
the paper's full experiment scale; the default scale is reduced so
the whole bench suite stays in CI budgets.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


def scale(default, full):
    """Pick an experiment size: reduced by default, paper-scale FULL."""
    return full if FULL else default


def emit(name: str, record: dict, render, manifest=None) -> dict:
    """Archive *record* and its table; returns the record as archived.

    The record is written to ``results/<name>.json``; ``render(record)``
    — called on the record read back from that JSON — gives the lines
    of ``results/<name>.txt``, which are also printed.

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
    from repro.runner import manifest_fingerprint

    RESULTS_DIR.mkdir(exist_ok=True)
    record_text = json.dumps(record, indent=2) + "\n"
    (RESULTS_DIR / f"{name}.json").write_text(record_text)
    record = json.loads(record_text)
    text = "\n".join(render(record))
    print(f"\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if manifest is None:
        return record
    doc = manifest if isinstance(manifest, dict) else manifest.to_dict()
    new_text = json.dumps(doc, indent=2) + "\n"
    path = RESULTS_DIR / f"{name}.manifest.json"
    try:
        old = manifest_fingerprint(json.loads(path.read_text()))
    except (OSError, ValueError):
        old = None
    if old != manifest_fingerprint(json.loads(new_text)):
        path.write_text(new_text)
    return record


def run_once(benchmark, fn):
    """Register *fn* with pytest-benchmark as a single-shot measurement."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
