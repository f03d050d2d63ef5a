"""Figure 6: detecting speculative decode via the µop cache.

Train a non-branch victim with jmp* and sweep the page offset of the
target C across 0x000..0xf00.  A jmp-series priming one fixed µop-cache
set observes evictions only when C's offset selects the same set —
reproducing the single spike of Figure 6 (the paper places the series
at page offset 0xac0; we do the same) on Zen 2 and Zen 4.
"""

from repro.core import AttackerRuntime
from repro.isa import Assembler, Reg
from repro.kernel import Machine
from repro.params import PAGE_SIZE
from repro.pipeline import ZEN2, ZEN4

from _harness import emit, run_once

SERIES_OFFSET = 0xAC0
# Victim/trainer sit in a different µop-cache set (offset 0x648, set 25)
# so only the phantom decode of C can touch the series' set.
TRAIN_SRC = 0x0000_0000_0410_0648
TARGET_PAGE = 0x0000_0000_0480_0000
SERIES_BASE = 0x0000_0000_0500_0000
SWEEP = [off * 0x100 + (SERIES_OFFSET & 0xC0)
         for off in range(16)]  # 0x0c0, 0x1c0 ... matching line bits [6:12)


def measure_misses(uarch, c_offset: int) -> int:
    """One Figure 6 data point: µop-cache misses re-running the series
    after the victim, with C at page offset *c_offset*."""
    machine = Machine(uarch, syscall_noise_evictions=0)
    attacker = AttackerRuntime(machine)
    victim_src = (TRAIN_SRC ^ machine.uarch.btb.user_alias_mask())

    # Fixed series at page offset 0xac0 (7 jmps 4096 bytes apart).
    asm = Assembler(SERIES_BASE + SERIES_OFFSET)
    for i in range(7):
        asm.jmp(SERIES_BASE + (i + 1) * PAGE_SIZE + SERIES_OFFSET)
        asm.pad_to(SERIES_BASE + (i + 1) * PAGE_SIZE + SERIES_OFFSET)
    asm.hlt()
    segment, _ = asm.finish()
    attacker.write_code(segment.base, segment.data)

    target = TARGET_PAGE + c_offset
    attacker.write_code(target, b"\x90\xf4")          # nop ; hlt
    attacker.write_code(victim_src, b"\x90" * 4 + b"\xf4")

    attacker.train_indirect(TRAIN_SRC, target)
    machine.run_user(SERIES_BASE + SERIES_OFFSET)     # prime the set
    machine.run_user(victim_src)                      # phantom decode
    with machine.cpu.pmc.sample("op_cache_miss") as sample:
        machine.run_user(SERIES_BASE + SERIES_OFFSET)
    return sample["op_cache_miss"]


def render(record):
    lines = ["Figure 6 — µop-cache misses vs page offset of C "
             f"(series at {record['series_offset']:#x})",
             "offset    " + "".join(f"{off:>6x}" for off in record["offsets"])]
    for uarch, misses in record["misses"].items():
        lines.append(f"{uarch:8s}  " + "".join(f"{m:6d}" for m in misses))
    return lines


def test_figure6_speculative_decode_sweep(benchmark):
    def experiment():
        return {uarch.name: [measure_misses(uarch, off) for off in SWEEP]
                for uarch in (ZEN2, ZEN4)}

    record = emit("figure6", {"series_offset": SERIES_OFFSET,
                              "offsets": SWEEP,
                              "misses": run_once(benchmark, experiment)},
                  render)

    matching_index = SWEEP.index(SERIES_OFFSET)
    for uarch, misses in record["misses"].items():
        # The spike sits exactly at the matching offset...
        assert misses[matching_index] > 0, uarch
        # ...and nowhere else.
        for i, m in enumerate(misses):
            if i != matching_index:
                assert m == 0, (uarch, hex(SWEEP[i]))
