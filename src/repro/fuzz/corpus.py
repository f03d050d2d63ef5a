"""Regression corpus: committed reproducers and their on-disk format.

Corpus entries are :data:`~repro.fuzz.program.PROGRAM_SCHEMA` JSON
documents.  Two sources feed the directory:

* the **seed corpus** — one generated program per generator shape,
  pinned by ``(shape, seed)`` in :data:`SEED_CORPUS`, which
  :func:`~repro.fuzz.gen.generate` must regenerate bit-identically (a
  committed entry that stops matching its pin means the generator
  changed — version the pin, do not silently regenerate);
* **minimized counterexamples** — shrunk failing programs written by
  ``repro fuzz`` when the oracle diverges; commit them after fixing the
  bug so the regression replays forever in tier-1
  (``tests/fuzz/test_corpus_replay.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .program import FuzzProgram

#: Schema tag for minimized counterexamples written by ``repro fuzz``.
COUNTEREXAMPLE_SCHEMA = "phantom.fuzz-counterexample/1"

#: The committed seed corpus: one pinned program per generator shape.
#: Seeds were chosen so the set covers distinct outcomes (clean halts,
#: multi-run self-modifying programs, a user page fault) — see
#: tests/fuzz/test_corpus_replay.py.
SEED_CORPUS: tuple[tuple[str, int], ...] = (
    ("branchy", 9),     # episode-rich loop nest, clean halt
    ("alias", 14),      # overlapping pointers, store-forwarding heavy
    ("straddle", 17),   # code + data page-boundary straddles
    ("syscall", 4),     # kernel crossings, ends in a user page fault
    ("smc", 5),         # three runs, two code rewrites between them
    ("mixed", 16),      # kernel stub + dense speculation
)


def load_program(path: Path | str) -> FuzzProgram:
    """Load a corpus entry — a plain program document or a
    counterexample document wrapping one."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") == COUNTEREXAMPLE_SCHEMA:
        doc = doc["program"]
    return FuzzProgram.from_dict(doc)


def save_counterexample(program: FuzzProgram, divergences: list[str],
                        directory: Path | str, *,
                        shrink_checks: int = 0) -> Path:
    """Write a minimized failing program plus its oracle findings."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "divergences": divergences,
        "shrink_checks": shrink_checks,
        "program": program.to_dict(),
    }
    path = directory / f"counterexample-{program.name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


#: Schemas iter_corpus silently skips: relational-pair documents and
#: contract-violation artifacts live in the same directory but replay
#: through tests/fuzz/test_contract_corpus.py, not the program oracle.
_RELATIONAL_SCHEMAS = ("phantom.fuzz-pair/1", "phantom.contract-violation/1")


def iter_corpus(directory: Path | str) -> list[tuple[Path, FuzzProgram]]:
    """All *program* corpus entries under *directory*, sorted by file
    name (relational pair / violation documents are skipped)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("schema") in _RELATIONAL_SCHEMAS:
            continue
        entries.append((path, load_program(path)))
    return entries


def iter_pair_corpus(directory: Path | str) -> list[tuple[Path, dict]]:
    """All relational documents (pairs and violation artifacts) under
    *directory* as raw docs, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("schema") in _RELATIONAL_SCHEMAS:
            entries.append((path, doc))
    return entries
