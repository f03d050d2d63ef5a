"""The common Result interface every experiment outcome implements.

Each experiment's result dataclass (:class:`~repro.core.matrix.CellResult`,
:class:`~repro.core.covert.CovertResult`,
:class:`~repro.core.kaslr_image.KaslrImageResult`,
:class:`~repro.core.kaslr_physmap.PhysmapResult`,
:class:`~repro.core.physaddr.PhysAddrResult`,
:class:`~repro.core.mds.MdsLeakResult`) provides:

* ``to_dict()`` — a flat, JSON-safe dict of the result's headline
  numbers.  This is the *single* serialization: run manifests (the CLI
  ``--json`` path), ``repro stats`` summaries, campaign reducers and
  the benchmarks' result records all read it, and the CLI's text and
  the benchmark tables are written from those records —
  experiment-specific serialization code does not belong anywhere
  else.  Addresses render as hex strings; raw payloads (leaked bytes,
  per-candidate scores) are summarized, not dumped.

:func:`hexaddr` is the one formatting rule shared by all of them.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Result(Protocol):
    """Structural interface of every experiment result."""

    def to_dict(self) -> dict:
        """Flat, JSON-serializable view of the result."""
        ...   # pragma: no cover


def hexaddr(value: int | None) -> str | None:
    """Addresses in manifests are hex strings; absent ones stay None."""
    return None if value is None else f"{value:#x}"
