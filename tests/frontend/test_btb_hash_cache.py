"""The process-wide ``(set, tag)`` hash cache is invisible: every BTB
answers exactly what its uncached ``BTBIndexing.index`` computes, in
both privilege modes, however the shared cache was filled."""

import pytest

from repro.frontend import BTB
from repro.frontend import btb as btb_module
from repro.isa import BranchKind
from repro.params import VA_MASK
from repro.pipeline import INTEL_12TH, ZEN2, ZEN3

USER = 0x0000_0010_0000
KERNEL = 0xFFFF_FFFF_8112_3AC0 & VA_MASK
VAS = [USER + off for off in (0, 1, 0x7F, 0x1234)] + \
      [KERNEL + off for off in (0, 5, 0x40)] + \
      [USER ^ (1 << 47) ^ (1 << 23), KERNEL ^ 0xFFFFBFF800000000]

UARCHES = [ZEN2, ZEN3, INTEL_12TH]


@pytest.mark.parametrize("uarch", UARCHES, ids=lambda u: u.name)
def test_every_mode_gets_its_own_uncached_index(uarch):
    indexing = uarch.btb
    btb = BTB(indexing)
    # Interleave the modes so each probe may be served from an entry
    # the other mode (or another BTB) just cached.
    for _ in range(2):
        for va in VAS:
            for kernel in (False, True):
                expected = indexing.index(va, kernel)
                assert btb._key(va, kernel) == expected
                assert btb.block_keys(va, 1, kernel_mode=kernel) == \
                    frozenset({expected})
    if indexing.privilege_in_tag:
        assert btb._key(USER, False) != btb._key(USER, True)
    else:
        assert btb._key(USER, False) == btb._key(USER, True)


@pytest.mark.parametrize("uarch", UARCHES, ids=lambda u: u.name)
def test_predictions_keep_their_privilege_semantics(uarch):
    """A user trainer predicts for a kernel victim at the same va only
    where privilege is not part of the tag — with the cache shared by
    a BTB that hashed the va in the other mode first."""
    warm = BTB(uarch.btb)
    warm.lookup(USER, kernel_mode=True)
    btb = BTB(uarch.btb)
    btb.train(USER, BranchKind.INDIRECT, USER + 0x100, kernel_mode=False)
    assert btb.lookup(USER, kernel_mode=False) is not None
    hit = btb.lookup(USER, kernel_mode=True)
    assert (hit is None) == uarch.btb.privilege_in_tag


def test_btbs_of_one_indexing_share_a_cache():
    assert BTB(ZEN3.btb)._hash_cache is BTB(ZEN3.btb)._hash_cache
    assert BTB(ZEN2.btb)._hash_cache is not BTB(ZEN3.btb)._hash_cache


def test_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(btb_module, "HASH_CACHE_SIZE", 16)
    btb = BTB(INTEL_12TH.btb)
    btb._hash_cache.clear()
    btb.train(KERNEL, BranchKind.INDIRECT, KERNEL, kernel_mode=True)
    assert btb.scan_block(USER, 64, kernel_mode=True) == []
    assert len(btb._hash_cache) <= 16
    keys = btb.block_keys(USER, 64, kernel_mode=False)
    assert keys == {INTEL_12TH.btb.index(USER + off, False)
                    for off in range(64)}
    assert len(btb._hash_cache) <= 16
