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


def render(record):
    """Each round's on/off ratio — the series whose median is gated —
    then the variants' medians, which are unpaired and can disagree
    with the gated figure."""
    lines = [f"span capture overhead, branch_heavy x {record['iters']:,} "
             f"({record['rounds']} paired rounds, CPU time)",
             f"{'round':>5s} {'spans off':>10s} {'spans on':>10s} "
             f"{'on/off':>8s}"]
    for r, (off, on) in enumerate(zip(record["spans_off_rounds_s"],
                                      record["spans_on_rounds_s"]), 1):
        lines.append(f"{r:5d} {off:10.4f} {on:10.4f} "
                     f"{(on / off - 1) * 100:+7.2f}%")
    return lines + [
        f"unpaired medians (not gated): spans off "
        f"{record['spans_off_s']:.4f} s, spans on "
        f"{record['spans_on_s']:.4f} s",
        f"overhead: {record['overhead'] * 100:+.2f}% (median per-round "
        f"ratio, IQR {record['overhead_iqr'] * 100:.2f} pp, tolerance "
        f"{TOLERANCE * 100:.0f}%)"]


def test_span_capture_overhead_is_bounded(benchmark, tmp_path):
    span_dirs = (tmp_path / f"round{r}" for r in itertools.count())

    def measure():
        return paired_rounds({"spans off": _untraced,
                              "spans on": _traced(span_dirs)})

    rounds = run_once(benchmark, measure)
    ratio, iqr = rounds.ratio("spans on", "spans off")
    record = emit("span_overhead", {
        "iters": ITERS, "rounds": ROUNDS,
        "spans_off_rounds_s": rounds.seconds["spans off"],
        "spans_on_rounds_s": rounds.seconds["spans on"],
        "spans_off_s": rounds.median("spans off"),
        "spans_on_s": rounds.median("spans on"),
        "overhead": ratio - 1.0, "overhead_iqr": iqr}, render)

    assert not SPANS.enabled          # benchmark left no recorder behind
    assert record["overhead"] < TOLERANCE, (
        f"span capture cost {record['overhead'] * 100:.2f}% on "
        f"branch_heavy, over the {TOLERANCE * 100:.0f}% budget")
