"""Microbenchmark: what does span tracing cost the hot simulator path?

The observability layer's contract is that disabled telemetry is a
no-op branch and *enabled* telemetry only brackets coarse phases (jobs,
boots, fast-path compiles) — never per-instruction work.  This guard
runs the ``branch_heavy`` bench workload (the mispredict-and-recover
steady state the experiments live in) with the span recorder off and
on in :func:`repro.bench.paired_rounds`, and fails if enabling capture
costs more than 3 % of CPU time (median per-round ratio).  The
deterministic half of the contract, spans per retired instruction, is
pinned by ``tests/telemetry/test_spans.py``.
"""

import itertools

from repro.bench import ROUNDS, _branch_heavy, _program, paired_rounds
from repro.telemetry import SPANS

from _harness import emit, run_once, scale

ITERS = scale(3_000, 20_000)
TOLERANCE = 0.03


def _untraced():
    return _program(_branch_heavy, ITERS, fastpath=True)


def _traced(span_dirs):
    def setup():
        run = _untraced()
        span_dir = next(span_dirs)

        def traced():
            SPANS.start(span_dir, name="bench")
            try:
                with SPANS.span("branch_heavy", iters=ITERS):
                    return run()
            finally:
                SPANS.finish()
        return traced
    return setup


def test_span_capture_overhead_is_bounded(benchmark, tmp_path):
    span_dirs = (tmp_path / f"round{r}" for r in itertools.count())

    def measure():
        return paired_rounds({"spans off": _untraced,
                              "spans on": _traced(span_dirs)})

    rounds = run_once(benchmark, measure)
    ratio, iqr = rounds.ratio("spans on", "spans off")
    overhead = ratio - 1.0

    lines = [f"span capture overhead, branch_heavy x {ITERS:,} "
             f"(median of {ROUNDS} paired rounds, CPU time)",
             f"{'variant':14s} {'seconds':>9s}",
             f"{'spans off':14s} {rounds.median('spans off'):9.4f}",
             f"{'spans on':14s} {rounds.median('spans on'):9.4f}",
             f"overhead: {overhead * 100:+.2f}% "
             f"(IQR {iqr * 100:.2f} pp, tolerance {TOLERANCE * 100:.0f}%)"]
    emit("span_overhead", lines)

    assert not SPANS.enabled          # benchmark left no recorder behind
    assert overhead < TOLERANCE, (
        f"span capture cost {overhead * 100:.2f}% on branch_heavy, "
        f"over the {TOLERANCE * 100:.0f}% budget")
