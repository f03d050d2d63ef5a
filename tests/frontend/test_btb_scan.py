"""``BTB.scan_block`` looks a byte's set up before hashing it; that must
answer exactly what the exhaustive per-byte definition does: hash every
byte with ``BTBIndexing.index`` and report each byte whose ``(set, tag)``
holds an entry, in address order."""

import random

import pytest

from repro.frontend import BTB
from repro.isa import BranchKind
from repro.params import VA_MASK
from repro.pipeline import ALL_MICROARCHES

USER_BASE = 0x0000_0040_1000
KERNEL_BASE = 0xFFFF_FFFF_8112_3000 & VA_MASK
KINDS = (BranchKind.DIRECT, BranchKind.INDIRECT, BranchKind.CONDITIONAL,
         BranchKind.RETURN)


def exhaustive_scan(btb: BTB, start: int, length: int,
                    kernel_mode: bool) -> list:
    found = []
    for pc in range(start, start + length):
        set_index, tag = btb.indexing.index(pc, kernel_mode)
        entry = btb._sets.get(set_index, {}).get(tag)
        if entry is not None:
            found.append((pc, entry))
    return found


def alias_masks(indexing) -> list[int]:
    masks = [indexing.user_alias_mask()]
    if not indexing.privilege_in_tag:
        masks.append(indexing.kernel_alias_mask())
    return masks


def fill(btb: BTB, rng: random.Random, bases: list[int]) -> None:
    """Train sources on, aliasing onto and sharing sets with *bases*."""
    masks = alias_masks(btb.indexing)
    for _ in range(rng.randrange(20, 120)):
        pc = rng.choice(bases) + rng.randrange(256)
        roll = rng.random()
        if roll < 0.3:
            pc ^= rng.choice(masks)            # same key, other address
        elif roll < 0.5:
            pc ^= rng.randrange(1, 1 << 20) << 12   # same set, other tag
        btb.train(pc & VA_MASK, rng.choice(KINDS), rng.randrange(1 << 47),
                  kernel_mode=rng.random() < 0.5)
    for _ in range(rng.randrange(5)):
        btb.evict(rng.choice(bases) + rng.randrange(256),
                  kernel_mode=rng.random() < 0.5)


@pytest.mark.parametrize("kernel_mode", [False, True],
                         ids=["user", "kernel"])
@pytest.mark.parametrize("uarch", ALL_MICROARCHES, ids=lambda u: u.btb.name)
def test_scan_block_matches_the_per_byte_definition(uarch, kernel_mode):
    rng = random.Random(f"{uarch.btb.name}-{kernel_mode}")
    for _ in range(6):
        # Anywhere in the page, so blocks cover every set-index bit.
        bases = [USER_BASE + rng.randrange(4096),
                 KERNEL_BASE + rng.randrange(4096)]
        btb = BTB(uarch.btb, ways=rng.choice((2, 8)))
        fill(btb, rng, bases)
        assert btb.live_keys
        hits = 0
        for _ in range(60):
            start = rng.choice(bases) + rng.randrange(-16, 256)
            length = rng.randrange(1, 17)
            want = exhaustive_scan(btb, start, length, kernel_mode)
            got = btb.scan_block(start, length, kernel_mode=kernel_mode)
            assert got == want, (hex(start), length)
            hits += len(want)
        assert hits, "the random contents never met a scanned block"
