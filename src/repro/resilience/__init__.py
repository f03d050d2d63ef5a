"""Resilient campaigns: checkpoint and resume.

The paper's headline tables come from campaign sweeps, and a single
worker crash, OOM kill or Ctrl-C used to throw all completed work away.
Two modules fix that:

* :mod:`~repro.resilience.checkpoint` — an append-only JSONL journal
  of finished jobs keyed by spec fingerprint;
  ``run_campaign(..., resume=path)`` skips journaled jobs and still
  produces a manifest fingerprint-identical to an uninterrupted run.
* :mod:`~repro.resilience.supervisor` — the plain pool loop behind
  pooled campaigns.  A broken pool is not recovered: the campaign fails
  with the journal flushed and a resume hint, and ``--resume`` is the
  one recovery path.

See ``docs/resilience.md``.
"""

from .checkpoint import (CHECKPOINT_SCHEMA, CheckpointRecord,
                         CheckpointWriter, load_checkpoint,
                         spec_fingerprint)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointRecord",
    "CheckpointWriter",
    "load_checkpoint",
    "spec_fingerprint",
]
