"""Attacker-observable state, extracted into one comparable record.

A :class:`LeakTrace` is the relational-testing counterpart of the
hardware traces in sca-fuzzer/Revizor: everything an attacker could in
principle observe after a victim ran, normalized into plain comparable
values.  The leakage contracts of :mod:`repro.fuzz.contracts` are
stated over its **channels**:

* ``cycles``        — the elapsed cycle count (timing);
* ``pmc``           — the speculation-related performance counters
  (resteers, phantom fetch/decode/execute, transient loads);
* ``episodes``      — the structural speculation-episode log (source,
  predicted/actual kind, target, pipeline reach);
* ``ret-episodes``  — the return-predictor slice of the episode log
  (anything predicted or decoded as ``ret``) — the Retbleed channel;
* ``icache``        — L1I Prime+Probe residue (per-set resident lines);
* ``dcache``        — L1D residue;
* ``l2``            — L2 residue (the paper's P2 huge-page channel).

Cache residue is recorded as full per-set line addresses in LRU order:
the simulator is deterministic, so two runs that differ only in secret
inputs produce byte-identical residue unless a secret-dependent access
happened — exactly the question a contract asks.  Artifacts store
digests plus the differing sets, never the full residue.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Every observation channel a contract can mention, in report order.
CHANNELS = ("cycles", "pmc", "episodes", "ret-episodes", "icache",
            "dcache", "l2")

#: The PMC events an attacker-side sampler would watch (speculation
#: machinery only — architectural counters like ``instructions`` are
#: not attacker-visible for a victim run).
SPEC_COUNTERS = ("branch_mispredict", "resteer_frontend",
                 "resteer_backend", "phantom_fetch", "phantom_decode",
                 "phantom_exec_uops", "transient_load")


def _residue(cache) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Non-empty sets of *cache* as ``(set, (line, ...))`` in LRU
    order (replacement order is itself attacker-observable)."""
    return tuple((index, tuple(lines))
                 for index, lines in cache.occupied_sets())


def _episode_tuple(episode) -> tuple:
    """Structural view of one episode (cycle stamps excluded — pure
    timing shifts are the ``cycles`` channel's business)."""
    return (episode.source_pc,
            episode.predicted_kind.value
            if episode.predicted_kind is not None else None,
            episode.actual_kind.value,
            episode.target, episode.reach.name,
            episode.frontend_resteer, episode.cross_privilege,
            episode.nested)


@dataclass(frozen=True)
class LeakTrace:
    """One victim run's attacker-observable state, per channel."""

    uarch: str
    cycles: int
    pmc: tuple[tuple[str, int], ...]
    episodes: tuple[tuple, ...]
    ret_episodes: tuple[tuple, ...]
    icache: tuple[tuple[int, tuple[int, ...]], ...]
    dcache: tuple[tuple[int, tuple[int, ...]], ...]
    l2: tuple[tuple[int, tuple[int, ...]], ...]

    def channel(self, name: str):
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r} "
                             f"(one of {CHANNELS})")
        return getattr(self, name.replace("-", "_"))

    def digest(self, name: str) -> str:
        """Stable short digest of one channel (artifact-friendly)."""
        blob = repr(self.channel(name)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def digests(self) -> dict[str, str]:
        return {name: self.digest(name) for name in CHANNELS}

    def diff(self, other: "LeakTrace",
             channels: tuple[str, ...] = CHANNELS) -> list[tuple[str, str]]:
        """Differing channels as ``(channel, summary)`` pairs."""
        out = []
        for name in CHANNELS:
            if name not in channels:
                continue
            mine, theirs = self.channel(name), other.channel(name)
            if mine != theirs:
                out.append((name, _summarize(name, mine, theirs)))
        return out


def _summarize(name: str, mine, theirs) -> str:
    if name == "cycles":
        return f"{mine} != {theirs}"
    if name == "pmc":
        da, db = dict(mine), dict(theirs)
        keys = sorted(k for k in set(da) | set(db)
                      if da.get(k) != db.get(k))
        pairs = ", ".join(f"{k} {da.get(k, 0)}!={db.get(k, 0)}"
                          for k in keys)
        return f"counters differ: {pairs}"
    if name in ("episodes", "ret-episodes"):
        first = next((i for i, pair in enumerate(zip(mine, theirs))
                      if pair[0] != pair[1]), min(len(mine), len(theirs)))
        return (f"{len(mine)} vs {len(theirs)} episode(s), first "
                f"difference at #{first}")
    # cache residue: report the differing sets, a few examples inline
    da, db = dict(mine), dict(theirs)
    sets = sorted(s for s in set(da) | set(db) if da.get(s) != db.get(s))
    examples = "; ".join(
        f"set {s}: {[hex(a) for a in da.get(s, ())]} != "
        f"{[hex(b) for b in db.get(s, ())]}" for s in sets[:2])
    return f"{len(sets)} set(s) differ ({examples})"


def capture(cpu, mem) -> LeakTrace:
    """Extract the trace from a finished run's CPU + memory system.

    Works on the bare fuzz-harness world and the booted
    :class:`~repro.kernel.Machine` alike — both expose the same CPU and
    hierarchy objects.  Enable ``cpu.record_episodes`` before the run
    or the episode channels stay empty.
    """
    hier = mem.hier
    episodes = tuple(_episode_tuple(e) for e in cpu.episodes)
    ret_episodes = tuple(
        e for e in episodes if "ret" in (e[1], e[2]))
    snapshot = cpu.pmc.snapshot()
    counters = tuple((name, snapshot[name]) for name in SPEC_COUNTERS
                     if name in snapshot)
    return LeakTrace(
        uarch=cpu.uarch.name,
        cycles=cpu.cycles,
        pmc=counters,
        episodes=episodes,
        ret_episodes=ret_episodes,
        icache=_residue(hier.l1i),
        dcache=_residue(hier.l1d),
        l2=_residue(hier.l2),
    )
