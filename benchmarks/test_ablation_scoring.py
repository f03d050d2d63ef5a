"""Ablation A1: the §7.3 noise-handling machinery.

DESIGN.md calls out two design choices in the KASLR exploit: bounded
multi-set differencing with median repetition, and signal amplification
via a second speculative branch on the syscall path.  This ablation
removes them one at a time and measures derandomization accuracy under
heavier syscall noise, showing each ingredient earns its keep.
"""

from repro.core import break_kernel_image_kaslr
from repro.kernel import Machine
from repro.pipeline import ZEN3

from _harness import emit, run_once, scale

RUNS = scale(3, 10)
#: Heavier-than-default syscall thrash to stress the scoring.
NOISE = 24


def accuracy(**kwargs) -> float:
    ok = 0
    for run in range(RUNS):
        machine = Machine(ZEN3, kaslr_seed=5000 + run, rng_seed=run,
                          syscall_noise_evictions=NOISE)
        result = break_kernel_image_kaslr(machine, **kwargs)
        ok += result.correct(machine.kaslr)
    return ok / RUNS


def render(record):
    lines = [f"Ablation — §7.3 scoring under heavy syscall noise "
             f"({record['noise']} evictions/syscall), {record['runs']} runs "
             f"each"]
    for name, acc in record["accuracy"].items():
        lines.append(f"  {name:36s} accuracy {acc * 100:6.1f}%")
    return lines


def test_ablation_scoring(benchmark):
    def experiment():
        return {
            "full (2 sets, 3 repeats, amplified)": accuracy(),
            "no amplification": accuracy(amplify=False),
            "single repeat": accuracy(repeats=1),
            "single set, single repeat": accuracy(sets=(44,), repeats=1),
        }

    record = emit("ablation_scoring", {
        "runs": RUNS, "noise": NOISE,
        "accuracy": run_once(benchmark, experiment)}, render)

    full = record["accuracy"]["full (2 sets, 3 repeats, amplified)"]
    weakest = record["accuracy"]["single set, single repeat"]
    assert full >= weakest
    assert full >= 2 / 3   # the full machinery stays reliable
