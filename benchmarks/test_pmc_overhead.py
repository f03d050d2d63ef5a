"""Microbenchmark: PMC counter bump on the simulator's hottest path.

``PMC.add``/``read`` run on every simulated memory access.  The
counters are interned: event names map to fixed integer indices into a
plain list (``EVENT_INDEX``), and the pipeline pre-resolves the indices
it uses so its hot loops bump list slots directly.  This benchmark
measures the per-call cost of the interned implementation against the
previous dict-of-names variant in :func:`repro.bench.paired_rounds`
and archives the delta in a run manifest, so ``repro stats`` can track
it across revisions.
"""

from repro.bench import ROUNDS, paired_rounds
from repro.pipeline.pmc import EVENTS, PMC
from repro.runner.run import ExperimentRun

from _harness import emit, run_once, scale

CALLS = scale(50_000, 500_000)
#: The worst-case event under the old tuple-membership check: last in
#: EVENTS (for the interned dict probe the position is irrelevant).
LAST_EVENT = EVENTS[-1]
_EVENT_SET = frozenset(EVENTS)


class DictPMC:
    """The pre-interning implementation, kept for comparison."""

    def __init__(self) -> None:
        self._counts = {name: 0 for name in EVENTS}

    def add(self, event: str, n: int = 1) -> None:
        if event not in _EVENT_SET:
            raise KeyError(f"unknown PMC event {event!r}")
        self._counts[event] += n

    def read(self, event: str) -> int:
        return self._counts[event]


def _calls(add):
    def run():
        for _ in range(CALLS):
            add(LAST_EVENT)
    return run


def render(record):
    return [f"PMC.add per-call cost, {record['calls']:,} calls "
            f"(event {record['event']!r}, median of {record['rounds']} "
            f"paired rounds)",
            f"{'variant':14s} {'ns/call':>10s}",
            f"{'interned':14s} {record['interned_ns_per_call']:10.1f}",
            f"{'dict':14s} {record['dict_ns_per_call']:10.1f}",
            f"speedup: {record['speedup']:.2f}x "
            f"(IQR {record['speedup_iqr']:.2f}x)"]


def test_pmc_add_interned_counters(benchmark):
    pmc = PMC()
    legacy = DictPMC()

    def measure():
        with ExperimentRun("bench-pmc-overhead", calls=CALLS,
                           rounds=ROUNDS) as run:
            rounds = paired_rounds({"interned": lambda: _calls(pmc.add),
                                    "dict": lambda: _calls(legacy.add)})
            speedup, iqr = rounds.ratio("dict", "interned")
            numbers = {
                "interned_ns_per_call":
                    rounds.median("interned") / CALLS * 1e9,
                "dict_ns_per_call": rounds.median("dict") / CALLS * 1e9,
                "speedup": speedup, "speedup_iqr": iqr}
            run.finish("success", **numbers)
        return numbers, run.manifest

    numbers, manifest = run_once(benchmark, measure)
    record = emit("pmc_overhead", {"calls": CALLS, "event": LAST_EVENT,
                                   "rounds": ROUNDS, **numbers},
                  render, manifest=manifest)

    # Both implementations must count identically.
    assert pmc.read(LAST_EVENT) == legacy.read(LAST_EVENT) == ROUNDS * CALLS
    # Interning must beat the dict variant it replaced (20 runs read
    # dict/interned 1.3-1.6x on a shared 2-vCPU host).
    assert record["interned_ns_per_call"] < record["dict_ns_per_call"]
