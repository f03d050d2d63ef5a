"""Ablation A2: phantom reach as a latency race.

DESIGN.md models the IF/ID/EX split as a race between the decoder's
resteer and the µop queue's issue: ``phantom_exec_uops =
max(0, frontend_resteer_latency - issue_latency)``.  Sweeping the
resteer latency across the issue latency must flip the observed reach
from decode-only to execute exactly at the boundary — i.e. Zen 1/2 vs
Zen 3/4 is one parameter, not two mechanisms.
"""

from dataclasses import replace

from repro.core import TrainKind, VictimKind, measure_cell
from repro.pipeline import Reach, ZEN2

from _harness import emit, run_once

SWEEP = range(2, 11)


def render(record):
    sweep = record["reach"]
    return [f"Ablation — reach vs frontend resteer latency "
            f"(issue latency = {record['issue_latency']})",
            "resteer latency : " + "  ".join(f"{int(l):2d}" for l in sweep),
            "observed reach  : " + "  ".join(f"{reach[:2]}"
                                             for reach in sweep.values())]


def test_ablation_resteer_latency_race(benchmark):
    def experiment():
        return {latency: measure_cell(
            replace(ZEN2, frontend_resteer_latency=latency),
            TrainKind.INDIRECT, VictimKind.NON_BRANCH).reach.name
            for latency in SWEEP}

    record = emit("ablation_resteer", {
        "issue_latency": ZEN2.issue_latency,
        "reach": run_once(benchmark, experiment)}, render)

    for latency, reach in record["reach"].items():
        if int(latency) <= record["issue_latency"]:
            assert reach == Reach.DECODE.name, latency
        else:
            assert reach == Reach.EXECUTE.name, latency
