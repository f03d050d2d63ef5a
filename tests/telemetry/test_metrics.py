"""Metrics registry: counters, labels, enable/disable, snapshots."""

from repro.telemetry import REGISTRY
from repro.telemetry.metrics import Counter, MetricsRegistry


def test_disabled_registry_is_a_noop():
    c = REGISTRY.counter("test_noop")
    c.inc()
    c.inc(10)
    assert c.value == 0


def test_counter_counts_when_enabled():
    REGISTRY.enable()
    c = REGISTRY.counter("test_counts")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_direct_attribute_bump_respects_manual_guard():
    # The hot-path idiom: `if REGISTRY.enabled: inst.value += 1`.
    c = REGISTRY.counter("test_guarded")
    if REGISTRY.enabled:
        c.value += 1
    assert c.value == 0
    REGISTRY.enable()
    if REGISTRY.enabled:
        c.value += 1
    assert c.value == 1


def test_same_name_and_labels_share_one_instrument():
    a = REGISTRY.counter("test_shared", level="L1I")
    b = REGISTRY.counter("test_shared", level="L1I")
    other = REGISTRY.counter("test_shared", level="L2")
    assert a is b
    assert a is not other


def test_snapshot_format_and_zero_suppression():
    REGISTRY.enable()
    REGISTRY.counter("test_snap_zero")          # stays zero: suppressed
    REGISTRY.counter("test_snap", level="L1I").inc(3)
    snap = REGISTRY.snapshot()
    assert set(snap) == {"counters", "base_labels"}
    assert "test_snap{level=L1I}" in snap["counters"]
    assert snap["counters"]["test_snap{level=L1I}"] == 3
    assert "test_snap_zero" not in snap["counters"]


def test_base_labels_in_snapshot():
    REGISTRY.set_base_labels(uarch="Zen 2")
    assert REGISTRY.snapshot()["base_labels"] == {"uarch": "Zen 2"}


def test_reset_zeroes_but_keeps_bindings():
    REGISTRY.enable()
    c = REGISTRY.counter("test_reset")
    c.inc(5)
    REGISTRY.reset()
    assert c.value == 0
    c.inc()
    assert c.value == 1
    assert REGISTRY.counter("test_reset") is c


def test_registries_are_independent():
    mine = MetricsRegistry()
    mine.enable()
    c = mine.counter("test_private")
    c.inc()
    assert c.value == 1
    assert ("test_private", ()) not in REGISTRY._instruments



def test_instrument_kinds():
    # Counters are the only instrument: point-in-time values and
    # timings belong in a manifest's outcome, not in the registry.
    assert isinstance(REGISTRY.counter("test_kind_c"), Counter)
    assert not hasattr(REGISTRY, "gauge")
    assert not hasattr(REGISTRY, "histogram")


def test_one_line_summary_sums_probe_rounds_over_channels():
    from repro.telemetry import one_line_summary

    REGISTRY.enable()
    REGISTRY.counter("sidechannel_probe_rounds", channel="L1I").inc(2)
    REGISTRY.counter("sidechannel_probe_rounds", channel="FR").inc(3)
    REGISTRY.counter("sidechannel_prime_rounds", channel="L1I").inc(7)
    assert "5 probe rounds" in one_line_summary()
