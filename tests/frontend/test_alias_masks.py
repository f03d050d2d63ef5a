"""BTBIndexing alias-mask solvers (kernel->user and user->user)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import BTBIndexing, btb
from repro.params import VA_MASK
from repro.revtools.collider import solve_alias_pattern
from repro.pipeline import (ALL_MICROARCHES, AMD_MICROARCHES,
                            INTEL_MICROARCHES, ZEN1, ZEN3)

KERNEL = 0xFFFF_FFFF_9234_5AC0 & VA_MASK
USER = 0x0000_5678_9ABC_D040


class TestKernelAliasMask:
    @pytest.mark.parametrize("uarch", AMD_MICROARCHES,
                             ids=lambda u: u.name)
    def test_solved_mask_collides(self, uarch):
        mask = uarch.btb.kernel_alias_mask()
        assert mask >> 47 & 1              # crosses the privilege bit
        assert mask & 0xFFF == 0           # preserves the set index
        alias = (KERNEL ^ mask) & VA_MASK
        assert alias >> 47 == 0            # lands in user space
        assert uarch.btb.collides(KERNEL, alias)

    @pytest.mark.parametrize("uarch", INTEL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_intel_raises(self, uarch):
        with pytest.raises(ValueError):
            uarch.btb.kernel_alias_mask()

    def test_zen1_mask_is_cheap(self):
        """Retbleed-era folding: Zen 1/2 aliases need only 2 bit flips."""
        mask = ZEN1.btb.kernel_alias_mask()
        assert bin(mask).count("1") == 2

    def test_zen3_mask_is_expensive(self):
        """Figure 7: bit 47 is in every function, so the alias must
        repair all of them — many more flips."""
        mask = ZEN3.btb.kernel_alias_mask()
        assert bin(mask).count("1") >= 12


class TestUserAliasMask:
    @pytest.mark.parametrize("uarch", ALL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_user_alias_collides_same_privilege(self, uarch):
        mask = uarch.btb.user_alias_mask()
        assert mask != 0
        assert mask >> 47 == 0
        assert mask & 0xFFF == 0
        alias = (USER ^ mask) & VA_MASK
        assert uarch.btb.collides(USER, alias)

    def test_user_alias_differs_from_kernel_alias(self):
        assert ZEN3.btb.user_alias_mask() != ZEN3.btb.kernel_alias_mask()


@given(st.integers(min_value=0, max_value=(1 << 47) - 1))
@settings(max_examples=100)
def test_user_alias_property(addr):
    """The user alias mask works for *every* user address."""
    idx = ZEN3.btb
    mask = idx.user_alias_mask()
    assert idx.collides(addr, addr ^ mask)


class TestAliasMaskMemo:
    """Both masks are solved once per indexing and process."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        btb._user_alias_memo.clear()
        btb._kernel_alias_memo.clear()
        yield
        btb._user_alias_memo.clear()
        btb._kernel_alias_memo.clear()

    @pytest.mark.parametrize("uarch", ALL_MICROARCHES,
                             ids=lambda u: u.name)
    def test_memoized_masks_equal_fresh_solves(self, uarch):
        indexing = uarch.btb
        for _ in range(2):              # a miss, then a hit
            assert indexing.user_alias_mask() == \
                indexing._solve_user_alias_mask()
            if not indexing.privilege_in_tag:
                assert indexing.kernel_alias_mask() == solve_alias_pattern(
                    indexing.tag_functions, keep_low_bits=indexing.set_bits)
        assert btb._user_alias_memo == {
            indexing: indexing._solve_user_alias_mask()}

    def test_equal_indexings_share_an_entry_and_errors_are_not_kept(self):
        a = BTBIndexing("a", tag_functions=ZEN1.btb.tag_functions)
        b = BTBIndexing("a", tag_functions=ZEN1.btb.tag_functions)
        a.user_alias_mask()
        b.user_alias_mask()
        assert len(btb._user_alias_memo) == 1
        intel = INTEL_MICROARCHES[0].btb
        for _ in range(2):
            with pytest.raises(ValueError):
                intel.kernel_alias_mask()
        assert intel not in btb._kernel_alias_memo

    def test_full_memo_is_dropped_wholesale(self, monkeypatch):
        monkeypatch.setattr(btb, "ALIAS_MEMO_SIZE", 2)
        for uarch in AMD_MICROARCHES[:3]:
            uarch.btb.user_alias_mask()
        assert list(btb._user_alias_memo) == [AMD_MICROARCHES[2].btb]
