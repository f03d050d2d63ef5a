"""Section 6.3: performance overhead of SuppressBPOnNonBr.

Reproduction target (shape): a sub-1 % geometric-mean overhead on the
UnixBench-style suite (paper: 0.69 % single-core, 0.42 % multi-core
on Zen 2), and exactly zero on Zen 1, which does not implement the MSR.
"""

from repro.kernel import MitigationConfig
from repro.pipeline import ZEN1, ZEN2
from repro.workloads import mitigation_overhead, run_suite

from _harness import emit, run_once, scale

RUNS = scale(2, 5)


def render(record):
    return [
        "§6.3 — SuppressBPOnNonBr overhead (UnixBench-style suite, "
        f"geomean of {record['runs']} runs)",
        f"Zen 2 single-core: {record['zen2_single'] * 100:5.2f}%   "
        f"(paper: 0.69%)",
        f"Zen 2 multi-core:  {record['zen2_multi'] * 100:5.2f}%   "
        f"(paper: 0.42%)",
        f"Zen 1 (MSR not implemented): {record['zen1'] * 100:5.2f}%",
    ]


def test_suppress_bp_on_non_br_overhead(benchmark):
    def experiment():
        single = mitigation_overhead(ZEN2, runs=RUNS)
        multi = mitigation_overhead(ZEN2, runs=RUNS, sibling_load=True)
        zen1_base = run_suite(ZEN1, runs=1)
        zen1_hard = run_suite(ZEN1, runs=1, mitigations=MitigationConfig(
            suppress_bp_on_non_br=True))
        return {"runs": RUNS, "zen2_single": single, "zen2_multi": multi,
                "zen1": (zen1_hard.geometric_mean()
                         / zen1_base.geometric_mean() - 1),
                "zen1_cycles": {"base": zen1_base.cycles,
                                "suppress_bp": zen1_hard.cycles}}

    record = emit("mitigation_overhead", run_once(benchmark, experiment),
                  render)

    assert 0.0 < record["zen2_single"] < 0.01    # sub-1 %, like the paper
    assert 0.0 < record["zen2_multi"] < 0.01
    cycles = record["zen1_cycles"]               # Zen 1: bit is a no-op
    assert cycles["suppress_bp"] == cycles["base"]
