"""Figure 7: reverse engineering the Zen 3/4 cross-privilege BTB
functions from collision observations.

Reproduction targets:
* brute force with bit 47 plus a few extra flips finds nothing (§6.2's
  negative result);
* random sampling + GF(2) solving (our Z3 substitute) recovers a
  function space containing all 12 published functions, with every
  basis element at the paper's n=4 coefficient bound;
* both published alias masks (`0xffffbff800000000`,
  `0xffff8003ff800000`) collide on the simulated BTB.
"""

import random

from repro.frontend import (BTB, ZEN3_ALIAS_PATTERNS, ZEN3_BTB_FUNCTIONS,
                            ZEN3_TAG_FUNCTIONS)
from repro.isa import BranchKind
from repro.pipeline import ZEN3
from repro.revtools import (brute_force_patterns, gf2, recover_functions,
                            solve_alias_pattern)

from _harness import emit, run_once, scale

KERNEL_ADDR = 0xFFFF_FFFF_8123_4AC0 & ((1 << 48) - 1)
SAMPLES = scale(200_000, 400_000)


def btb_oracle(a: int, b: int) -> bool:
    btb = BTB(ZEN3.btb)
    btb.train(a, BranchKind.INDIRECT, 0x4000, kernel_mode=False)
    return btb.lookup(b, kernel_mode=False) is not None


def render(record):
    lines = ["Figure 7 — recovered cross-privilege BTB functions (Zen 3)",
             f"brute force: {record['brute_force_tested']} patterns tested, "
             f"{len(record['brute_force_collisions'])} collisions "
             f"(expected 0)"]
    lines += [f"  {line}" for line in record["functions"]]
    lines.append(f"solved alias pattern: {record['alias']:#018x}")
    for row in record["published"]:
        lines.append(f"published mask {row['mask']:#018x} collides: "
                     f"{row['collides']}")
    return lines


def test_figure7_btb_function_recovery(benchmark):
    def experiment():
        brute = brute_force_patterns(btb_oracle, KERNEL_ADDR, max_bits=3)
        rng = random.Random(7)
        recovered = recover_functions(
            btb_oracle, [KERNEL_ADDR, KERNEL_ADDR ^ 0x40_0000],
            samples_per_addr=SAMPLES, rng=rng)
        return brute, recovered

    brute, recovered = run_once(benchmark, experiment)
    record = emit("figure7", {
        "brute_force_tested": brute.tested,
        "brute_force_collisions": brute.patterns,
        "masks": recovered.masks,
        "functions": recovered.formatted(),
        "alias": solve_alias_pattern(recovered.masks),
        "published": [{"mask": pattern, "collides": btb_oracle(
            KERNEL_ADDR, KERNEL_ADDR ^ (pattern & (1 << 48) - 1))}
            for pattern in ZEN3_ALIAS_PATTERNS]}, render)
    masks, alias = record["masks"], record["alias"]

    # Negative result: small flips around bit 47 never collide.
    assert record["brute_force_collisions"] == []
    # Full recovery: the function space equals the modelled BTB's.
    assert gf2.row_reduce(masks) == gf2.row_reduce(ZEN3_BTB_FUNCTIONS)
    # Every published Figure 7 function is recovered (span membership).
    for fn in ZEN3_TAG_FUNCTIONS:
        assert gf2.in_span(fn, masks)
    # All functions at the paper's n=4 coefficient bound.
    assert all(gf2.popcount(m) <= 4 for m in masks)
    # Both published masks collide, and the solved alias works and
    # crosses the privilege boundary.
    assert all(row["collides"] for row in record["published"])
    assert alias >> 47 & 1
    assert btb_oracle(KERNEL_ADDR, KERNEL_ADDR ^ alias)
