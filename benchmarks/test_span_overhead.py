"""Microbenchmark: what does span tracing cost the hot simulator path?

The observability layer's contract is that disabled telemetry is a
no-op branch and *enabled* telemetry only brackets coarse phases (jobs,
boots, fast-path compiles) — never per-instruction work.  This guard
runs the ``branch_heavy`` bench workload (the mispredict-and-recover
steady state the experiments live in) with the span recorder off and
on, and fails if enabling capture costs more than a few percent of
wall clock.

Tolerance: 3% by default (the acceptance bar), overridable through
``REPRO_SPAN_OVERHEAD_TOL`` (fraction, e.g. ``0.10``) for noisy CI
runners.  The off/on rounds are *interleaved* (off, on, off, on, ...)
and best-of-N is taken per variant, so slow clock drift — thermal
throttling, a neighbour landing on the core — hits both variants
equally instead of being billed to whichever batch ran second.
"""

import os

from repro.bench import _branch_heavy, _run_program
from repro.telemetry import SPANS

from _harness import emit, run_once, scale

ITERS = scale(3_000, 20_000)
REPEATS = 5
TOLERANCE = float(os.environ.get("REPRO_SPAN_OVERHEAD_TOL", "0.03"))


def _one_round(tracing: bool, span_dir) -> float:
    if not tracing:
        return _run_program(_branch_heavy, ITERS, fastpath=True)[1]
    SPANS.start(span_dir, name="bench")
    try:
        with SPANS.span("branch_heavy", iters=ITERS):
            _, wall, _ = _run_program(_branch_heavy, ITERS, fastpath=True)
    finally:
        SPANS.finish()
    return wall


def test_span_capture_overhead_is_bounded(benchmark, tmp_path):
    def measure():
        _one_round(False, None)                    # warm both engines
        _one_round(True, tmp_path / "warmup")
        baseline_s = traced_s = float("inf")
        for round_ in range(REPEATS):
            baseline_s = min(baseline_s, _one_round(False, None))
            traced_s = min(
                traced_s, _one_round(True, tmp_path / f"round{round_}"))
        return baseline_s, traced_s

    baseline_s, traced_s = run_once(benchmark, measure)
    overhead = traced_s / baseline_s - 1.0

    lines = [f"span capture overhead, branch_heavy x {ITERS:,} "
             f"(best of {REPEATS})",
             f"{'variant':14s} {'seconds':>9s}",
             f"{'spans off':14s} {baseline_s:9.4f}",
             f"{'spans on':14s} {traced_s:9.4f}",
             f"overhead: {overhead * 100:+.2f}% "
             f"(tolerance {TOLERANCE * 100:.0f}%)"]
    emit("span_overhead", lines)

    assert not SPANS.enabled          # benchmark left no recorder behind
    assert overhead < TOLERANCE, (
        f"span capture cost {overhead * 100:.2f}% on branch_heavy, "
        f"over the {TOLERANCE * 100:.0f}% budget")
