"""Table 4: physmap KASLR derandomization with P2 (Zen 1/2 only).

Reproduction target (shape): high accuracy on Zen 1 and Zen 2 (paper:
100 %/90 %); the search space is 25 600 slots — 52x the kernel image's
488, which is why the paper's physmap times (~100 s) dwarf its image
KASLR times (~4 s).  We assert the structural version of that shape:
the ascending scan stops exactly at the true slot, so its expected cost
is ~12 800 probes versus 488 candidates for the image exploit.
"""

from statistics import median

from repro.core import break_kernel_image_kaslr, break_physmap_kaslr
from repro.kernel import Machine
from repro.pipeline import ZEN1, ZEN2

from _harness import emit, run_once, scale

RUNS = scale(2, 10)
PHYS_MEM = {ZEN1: scale(1 << 30, 8 << 30),
            ZEN2: scale(1 << 30, 64 << 30)}


def render(record):
    lines = [f"Table 4 — physmap KASLR via P2, {record['runs']} runs",
             f"{'uarch':7s} {'model':20s} {'accuracy':>9s} "
             f"{'median simulated time':>22s} {'median scanned':>15s}"]
    for row in record["rows"]:
        lines.append(f"{row['uarch']:7s} {row['model']:20s} "
                     f"{row['accuracy'] * 100:8.1f}% "
                     f"{row['median_ms']:18.3f} ms "
                     f"{row['median_scanned']:15.0f}")
    return lines


def test_table4_physmap_kaslr(benchmark):
    def experiment():
        rows = []
        for uarch in (ZEN1, ZEN2):
            results, runs = [], []
            for attempt in range(RUNS):
                machine = Machine(uarch, kaslr_seed=2000 + attempt,
                                  rng_seed=attempt,
                                  phys_mem=PHYS_MEM[uarch])
                image = break_kernel_image_kaslr(machine)
                result = break_physmap_kaslr(machine, image.guessed_base)
                results.append(result)
                runs.append({**result.to_dict(),
                             "correct": result.correct(machine.kaslr),
                             "true_slot": machine.kaslr.physmap_slot})
            rows.append({
                "uarch": uarch.name, "model": uarch.model,
                "accuracy": sum(r["correct"] for r in runs) / RUNS,
                "median_ms": median(r.seconds for r in results) * 1000,
                "median_scanned": median(r["candidates_scanned"]
                                         for r in runs),
                "runs": runs})
        return rows

    rows = run_once(benchmark, experiment)
    record = emit("table4", {"runs": RUNS, "rows": rows}, render)

    for row in record["rows"]:
        assert row["accuracy"] >= 0.9, row["uarch"]   # paper: 100 % / 90 %
        for run in row["runs"]:
            # The ascending scan stops exactly at the true slot: the
            # expected search cost scales with the 25 600-slot space.
            assert run["candidates_scanned"] == run["true_slot"] + 1
