"""Process-wide metrics registry of labelled counters.

Every simulator layer binds its counters once (at construction) and
emits into them on the hot path.  Emission is a no-op while the
registry is disabled — one attribute load and a branch — so leaving the
hooks compiled in costs effectively nothing when nobody is measuring
(the instrumentation contract every later perf PR relies on).

Counters carry **labels** (``uarch="zen2"``, ``level="L1I"``),
resolved at bind time; the registry additionally applies *base labels*
(set once per run, e.g. the µarch under test) to every snapshot.

The registry is deliberately simulator-agnostic: it never touches
cycles or machine state, so enabling or disabling telemetry cannot
change any experiment's simulated behaviour.
"""

from __future__ import annotations


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count, bound to one label set."""

    __slots__ = ("_registry", "name", "labels", "value")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: dict[str, str]) -> None:
        self._registry = registry
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if self._registry.enabled:
            self.value += n


class MetricsRegistry:
    """A process-wide bank of named, labelled counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.base_labels: dict[str, str] = {}
        self._instruments: dict[tuple, Counter] = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every counter (bindings stay valid)."""
        for inst in self._instruments.values():
            inst.value = 0

    def set_base_labels(self, **labels: str) -> None:
        """Labels applied to the whole snapshot (e.g. ``uarch='zen2'``)."""
        self.base_labels = {k: str(v) for k, v in labels.items()}

    # -- binding -----------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Counter(self, name, labels)
            self._instruments[key] = inst
        return inst

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump of the non-zero counters:
        ``{"counters": {name{labels}: value}, "base_labels": {…}}``."""
        counters: dict[str, int] = {}
        for inst in self._instruments.values():
            if not inst.value:
                continue
            label_txt = ",".join(f"{k}={v}"
                                 for k, v in sorted(inst.labels.items()))
            key = f"{inst.name}{{{label_txt}}}" if label_txt else inst.name
            counters[key] = inst.value
        return {"counters": counters, "base_labels": dict(self.base_labels)}


#: The process-wide registry every simulator layer binds against.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: str) -> Counter:
    return REGISTRY.counter(name, **labels)
