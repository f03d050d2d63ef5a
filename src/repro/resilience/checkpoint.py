"""Append-only campaign checkpoints: journal every finished job.

A campaign that dies halfway — worker crash, OOM kill, operator
Ctrl-C — used to throw away every completed job.  The checkpoint
journal fixes that: the executor appends one JSON line per finished
:class:`~repro.runner.JobResult`, keyed by a stable SHA-256 fingerprint
of its :class:`~repro.runner.JobSpec`, and a later run passed
``resume=path`` skips every job whose fingerprint is already journaled.
Because jobs are deterministic functions of their specs (the
``--jobs``-independence guarantee of :mod:`repro.runner.spec`), a
resumed campaign's merged manifest is fingerprint-identical to an
uninterrupted run's.

Design points:

* **Append-only JSONL.**  A crash mid-write corrupts at most the last
  line; :func:`load_checkpoint` skips unparsable or foreign lines
  instead of failing, so a torn journal degrades to re-running the
  torn job, never to losing the campaign.  A writer reopening a torn
  journal starts a fresh line first, so the record it appends next is
  never glued onto the torn one.
* **Last record wins.**  Re-journaling a job (e.g. when a resumed
  campaign copies inherited results into a fresh journal) is harmless.
* **Write failures degrade.**  ENOSPC (or any ``OSError``) on append
  is counted (``resilience.checkpoint_write_errors``), warned about
  once, and otherwise ignored — the campaign keeps running and the
  un-journaled job simply re-runs on resume.  Tests substitute a
  failing disk through ``fault_hook``.

One journal file can serve every campaign of a run (the CLI shares one
per ``--results-dir``): fingerprints cover the experiment name, key,
seed, machine and params, so records never collide across campaigns.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..runner.executor import JobResult
from ..runner.spec import JobSpec
from ..telemetry import metrics as _metrics
from ..telemetry.spans import SPANS

CHECKPOINT_SCHEMA = "phantom.checkpoint/1"


def spec_fingerprint(spec: JobSpec) -> str:
    """Stable hex fingerprint of one job spec.

    SHA-256 over a canonical JSON rendering (not ``hash()``, which is
    salted per process): equal fingerprints across processes, restarts
    and platforms are what make resume correct.  Param values go
    through ``repr`` so non-JSON scalars (enums, tuples) still key
    stably.
    """
    machine = spec.machine.describe() if spec.machine is not None else None
    blob = json.dumps(
        {"experiment": spec.experiment, "key": [repr(k) for k in spec.key],
         "seed": spec.seed, "machine": machine,
         "params": [[name, repr(value)] for name, value in spec.params]},
        sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


@dataclass
class CheckpointRecord:
    """One journaled job outcome (spec fingerprint + serialized result)."""

    fingerprint: str
    label: str
    status: str                       # "success" | "failure"
    value_b64: str | None = None      # pickled+base64 JobResult.value
    error: str | None = None
    error_kind: str | None = None
    wall_time_s: float = 0.0
    manifest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema": CHECKPOINT_SCHEMA, "fingerprint": self.fingerprint,
                "label": self.label, "status": self.status,
                "value_b64": self.value_b64, "error": self.error,
                "error_kind": self.error_kind,
                "wall_time_s": self.wall_time_s, "manifest": self.manifest}

    @classmethod
    def from_dict(cls, doc: dict) -> "CheckpointRecord":
        """Keys this record does not know are ignored, so older
        journals (whose records also carried retry bookkeeping) still
        resume."""
        return cls(fingerprint=doc["fingerprint"], label=doc.get("label", ""),
                   status=doc.get("status", "failure"),
                   value_b64=doc.get("value_b64"), error=doc.get("error"),
                   error_kind=doc.get("error_kind"),
                   wall_time_s=doc.get("wall_time_s", 0.0),
                   manifest=doc.get("manifest", {}))

    @classmethod
    def from_result(cls, spec: JobSpec, result: JobResult
                    ) -> "CheckpointRecord":
        value_b64 = None
        if result.ok:
            value_b64 = base64.b64encode(
                pickle.dumps(result.value)).decode("ascii")
        return cls(fingerprint=spec_fingerprint(spec), label=spec.label,
                   status="success" if result.ok else "failure",
                   value_b64=value_b64, error=result.error,
                   error_kind=result.error_kind,
                   wall_time_s=result.wall_time_s, manifest=result.manifest)

    def to_job_result(self, spec: JobSpec) -> JobResult:
        """Rehydrate the journaled outcome against its (re-expanded) spec."""
        value = None
        if self.value_b64 is not None:
            value = pickle.loads(base64.b64decode(self.value_b64))
        return JobResult(spec=spec, value=value, error=self.error,
                         error_kind=self.error_kind,
                         wall_time_s=self.wall_time_s,
                         manifest=dict(self.manifest))


class CheckpointWriter:
    """Appends one :class:`CheckpointRecord` line per finished job.

    Each record is flushed to the OS as it is appended, so it survives
    the process being killed, though not a power loss: the writer never
    calls ``fsync``.  ``fault_hook``, when set, runs before each append
    and may raise ``OSError`` (a test seam for a full or failing disk);
    real and injected write errors take the same degradation path.
    """

    def __init__(self, path, *, fault_hook=None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if _ends_torn(self.path):
            # A crash left a partial last line: terminate it, or the
            # next record would share (and be dropped with) that line.
            self._fh.write("\n")
        self._fault_hook = fault_hook
        self._warned = False
        self.write_errors = 0

    def append(self, spec: JobSpec, result: JobResult) -> None:
        record = CheckpointRecord.from_result(spec, result)
        line = json.dumps(record.to_dict(), sort_keys=True)
        try:
            if self._fault_hook is not None:
                self._fault_hook(record)
            self._fh.write(line + "\n")
            self._fh.flush()
            SPANS.event("checkpoint:flush", job=record.label)
        except OSError as exc:
            self.write_errors += 1
            _metrics.REGISTRY.counter(
                "resilience.checkpoint_write_errors").inc()
            SPANS.event("checkpoint:write_error", status="error",
                        job=record.label, error=str(exc))
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"checkpoint append to {self.path} failed ({exc}); "
                    "campaign continues, un-journaled jobs re-run on "
                    "resume", RuntimeWarning, stacklevel=2)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            self.write_errors += 1

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _ends_torn(path: Path) -> bool:
    """Whether *path* is non-empty and its last byte is not a newline."""
    with open(path, "rb") as fh:
        if fh.seek(0, 2) == 0:
            return False
        fh.seek(-1, 2)
        return fh.read(1) != b"\n"


def load_checkpoint(path) -> dict[str, CheckpointRecord]:
    """Journal → ``{fingerprint: record}``, last record winning.

    Tolerant by design: a missing file is an empty journal (resuming a
    never-started campaign runs everything), and lines that fail to
    parse or carry a foreign schema are skipped — an interrupted append
    costs one re-run, not the campaign.
    """
    path = Path(path)
    records: dict[str, CheckpointRecord] = {}
    if not path.exists():
        return records
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (not isinstance(doc, dict)
                    or doc.get("schema") != CHECKPOINT_SCHEMA
                    or "fingerprint" not in doc):
                continue
            record = CheckpointRecord.from_dict(doc)
            records[record.fingerprint] = record
    return records
