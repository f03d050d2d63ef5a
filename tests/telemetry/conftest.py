"""Telemetry tests share the process-wide registry/collector; give each
test a clean, disabled slate."""

import pytest

from repro.telemetry import REGISTRY, SPANS, TRACE


@pytest.fixture(autouse=True)
def clean_telemetry():
    REGISTRY.reset()
    REGISTRY.set_base_labels()
    yield
    REGISTRY.disable()
    REGISTRY.reset()
    REGISTRY.set_base_labels()
    SPANS.finish()
    for sink in list(TRACE._sinks):
        TRACE.remove_sink(sink)
