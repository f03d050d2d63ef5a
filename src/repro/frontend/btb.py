"""Branch Target Buffer with XOR-linear index/tag functions.

Entries are stored under ``(set, tag)`` keys computed by per-µarch
XOR functions of the branch-source virtual address, so *aliasing* —
two different source addresses selecting the same entry — emerges from
the hash functions exactly as on hardware.  The Zen 3/4 tag functions
are the cross-privilege functions the paper reverse engineered
(Figure 7); Zen 1/2 use Retbleed-style folding without bit 47; Intel
mixes the privilege mode into the tag, which is why the paper found no
user->kernel reuse on Intel parts.

Entries record the *semantics* the training branch had (kind, target
encoding).  A prediction served for a different instruction therefore
carries the trainer's semantics — the root of Phantom.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from ..isa import BranchKind
from ..params import MASK64, VA_MASK, canonical
from ..revtools.gf2 import parity
from ..telemetry import metrics as _metrics

_REG = _metrics.REGISTRY

#: Figure 7 — Zen 3/4 cross-privilege tag functions (bit 47 in each).
ZEN3_TAG_FUNCTIONS: tuple[int, ...] = (
    (1 << 47) | (1 << 35) | (1 << 23),
    (1 << 47) | (1 << 36) | (1 << 24) | (1 << 12),
    (1 << 47) | (1 << 37) | (1 << 25) | (1 << 13),
    (1 << 47) | (1 << 38) | (1 << 26) | (1 << 14),
    (1 << 47) | (1 << 39) | (1 << 26) | (1 << 13),
    (1 << 47) | (1 << 39) | (1 << 27) | (1 << 15),
    (1 << 47) | (1 << 40) | (1 << 28) | (1 << 16),
    (1 << 47) | (1 << 41) | (1 << 29) | (1 << 17),
    (1 << 47) | (1 << 42) | (1 << 30) | (1 << 18),
    (1 << 47) | (1 << 43) | (1 << 31) | (1 << 19),
    (1 << 47) | (1 << 44) | (1 << 32) | (1 << 20),
    (1 << 47) | (1 << 45) | (1 << 33) | (1 << 21),
)

#: The two published user/kernel alias patterns for Zen 3/4 (paper §6.2).
ZEN3_ALIAS_PATTERNS: tuple[int, ...] = (
    0xFFFFBFF800000000, 0xFFFF8003FF800000,
)

#: One supplemental tag function covering the bits (22, 34, 46) that
#: appear in none of the twelve published functions.  The paper notes
#: its recovered set is incomplete ("We did not find some of the
#: functions, potentially because they do not involve bit 47"); the
#: modelled BTB includes this one so that single-bit flips of those
#: bits do not alias.  It vanishes on both published alias patterns,
#: so every published result is preserved.
ZEN3_SUPPLEMENTAL_FUNCTION: int = (1 << 46) | (1 << 34) | (1 << 22)

#: The functions the modelled Zen 3/4 BTB actually uses.
ZEN3_BTB_FUNCTIONS: tuple[int, ...] = (
    ZEN3_TAG_FUNCTIONS + (ZEN3_SUPPLEMENTAL_FUNCTION,)
)

#: Zen 1/2 tag functions (Retbleed-style 12-bit folding, no bit 47):
#: g_i = b(12+i) ^ b(24+i) ^ b(36+i).
ZEN1_TAG_FUNCTIONS: tuple[int, ...] = tuple(
    (1 << (12 + i)) | (1 << (24 + i)) | (1 << (36 + i)) for i in range(12)
)

#: A compact Zen 1/2 user/kernel alias: flip b47 and compensate in g11
#: by flipping b23.  Weight 2 — cross-privilege aliasing is easy on
#: Zen 1/2, as Retbleed found.
ZEN1_ALIAS_PATTERN: int = (1 << 47) | (1 << 23)


@dataclass(frozen=True)
class BTBIndexing:
    """Index/tag hash description for one microarchitecture."""

    name: str
    set_bits: int = 12                   # set index = va[0:set_bits]
    tag_functions: tuple[int, ...] = ZEN3_BTB_FUNCTIONS
    privilege_in_tag: bool = False       # Intel: user/kernel cannot alias

    def index(self, va: int, kernel_mode: bool) -> tuple[int, int]:
        """Return the ``(set, tag)`` the address selects."""
        va = canonical(va) & VA_MASK
        set_idx = va & ((1 << self.set_bits) - 1)
        tag = 0
        for i, fn in enumerate(self.tag_functions):
            tag |= parity(fn & va) << i
        if self.privilege_in_tag:
            tag |= int(kernel_mode) << len(self.tag_functions)
        return set_idx, tag

    def collides(self, va_a: int, va_b: int, *, kernel_a: bool = False,
                 kernel_b: bool = False) -> bool:
        """True if the two source addresses select the same BTB entry."""
        return self.index(va_a, kernel_a) == self.index(va_b, kernel_b)

    def kernel_alias_mask(self) -> int:
        """Minimal flip pattern turning a kernel source into a colliding
        user source (what the exploits XOR kernel addresses with).

        Raises ValueError when no such pattern exists (Intel: the
        privilege mode is part of the tag).
        """
        if self.privilege_in_tag:
            raise ValueError(f"{self.name}: no cross-privilege aliasing")
        mask = _kernel_alias_memo.get(self)
        if mask is None:
            from ..revtools.collider import solve_alias_pattern

            mask = solve_alias_pattern(self.tag_functions,
                                       keep_low_bits=self.set_bits)
            _remember_mask(_kernel_alias_memo, self, mask)
        return mask

    def user_alias_mask(self) -> int:
        """Minimal nonzero user-to-user alias flip pattern (bit 47 clear,
        low set-index bits clear, every tag function preserved)."""
        mask = _user_alias_memo.get(self)
        if mask is None:
            mask = self._solve_user_alias_mask()
            _remember_mask(_user_alias_memo, self, mask)
        return mask

    def _solve_user_alias_mask(self) -> int:
        """Uncached :meth:`user_alias_mask`: one GF(2) solve."""
        from ..revtools import gf2

        width = 47 - self.set_bits  # bits [set_bits, 47): user space only
        shifted = [(m >> self.set_bits) & ((1 << width) - 1)
                   for m in self.tag_functions]
        # Only masks fully expressible below bit 47 constrain this space;
        # functions involving bit 47 must see it unchanged (it stays 0),
        # so their lower bits form the constraint as well.
        kernel = gf2.orthogonal_complement(shifted, width)
        candidates = sorted((v for v in kernel if v),
                            key=lambda v: (gf2.popcount(v), v))
        if not candidates:
            raise ValueError(f"{self.name}: no user-space alias exists")
        return candidates[0] << self.set_bits


#: Bound on each alias-mask memo, in indexings.  The masks are pure
#: functions of the (frozen, hashable) :class:`BTBIndexing`, of which the
#: µarch table has eight; a memo that reaches the bound is dropped
#: wholesale.
ALIAS_MEMO_SIZE = 32

_user_alias_memo: dict[BTBIndexing, int] = {}
_kernel_alias_memo: dict[BTBIndexing, int] = {}


def _remember_mask(memo: dict[BTBIndexing, int], indexing: BTBIndexing,
                   mask: int) -> None:
    if len(memo) >= ALIAS_MEMO_SIZE:
        memo.clear()
    memo[indexing] = mask


#: Bound on each shared ``(set, tag)`` hash cache, in addresses.  At
#: most every fetched byte is hashed (scans skip bytes whose set is
#: empty): a contract-fuzz pair touches ~500 addresses (~12,000 for
#: page-straddling programs), a KASLR break ~12,000.  A cache that
#: reaches the bound is dropped wholesale, so it never pins more than
#: that working set.
HASH_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=16)
def _shared_hash_cache(indexing: BTBIndexing) -> dict:
    """The process-wide ``(set, tag)`` memo of one hash description.

    :meth:`BTBIndexing.index` is a pure function of the address (and,
    for privilege-tagged indexings, the mode), so every BTB built on
    equal indexing shares one memo instead of re-hashing per world.
    """
    return {}


@dataclass
class BTBEntry:
    """One predicted branch source."""

    kind: BranchKind
    target: int                 # absolute target, or displacement if pc_rel
    pc_rel: bool                # direct branches are stored PC-relative
    trained_kernel: bool        # privilege mode of the trainer (AutoIBRS)
    source_pc: int              # trainer's source pc (diagnostics only)

    def predicted_target(self, source_pc: int) -> int:
        """Resolve the stored target for a (possibly aliased) source.

        PC-relative entries reproduce the paper's observation that a
        direct-branch prediction lands at the *same relative distance*
        from the victim as the trained target had from the trainer
        (Figure 5 A: C' = B + (C - A)).
        """
        if self.pc_rel:
            return canonical((source_pc + self.target) & MASK64)
        return canonical(self.target)


#: Branch kinds whose BTB target is stored PC-relative.
_PCREL_KINDS = frozenset({BranchKind.DIRECT, BranchKind.CONDITIONAL,
                          BranchKind.CALL_DIRECT})


class BTB:
    """The branch target buffer proper: set-associative with LRU.

    Entries live in per-set LRU lists of at most *ways* entries keyed
    by tag.  Heavy branch activity in one set evicts older entries —
    the "undesired BTB aliasing" effect behind the paper's occasional
    no-signal runs (§7.4), and the reason exploits re-inject their
    prediction every round.
    """

    def __init__(self, indexing: BTBIndexing, *, ways: int = 8,
                 shared_hashes: bool = True) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.indexing = indexing
        self.ways = ways
        from collections import OrderedDict

        self._sets: dict[int, "OrderedDict[int, BTBEntry]"] = {}
        #: ``(set, tag)`` memo: the process-wide one of *indexing*, or a
        #: private one (the naive engine's, which keeps it an
        #: independent oracle for the shared memo).
        self._hash_cache = _shared_hash_cache(indexing) if shared_hashes \
            else {}
        #: Every ``(set, tag)`` currently holding an entry.  Mirror of
        #: ``_sets`` maintained at all mutation points so the superblock
        #: engine can test a block's key footprint against the live
        #: population with one set intersection instead of re-scanning
        #: each byte (see :meth:`block_keys`).
        self.live_keys: set[tuple[int, int]] = set()
        self.evictions = 0
        self._m_installs = _metrics.counter("btb_installs")
        self._m_hits = _metrics.counter("btb_hits")
        self._m_evictions = _metrics.counter("btb_evictions")

    def _key(self, va: int, kernel_mode: bool) -> tuple[int, int]:
        # Cache key: the bare va when privilege can't alter the hash
        # (the common case — avoids a tuple allocation per probe),
        # (va, True) for privilege-tagged kernel lookups.
        cache_key = (va, True) if (kernel_mode
                                   and self.indexing.privilege_in_tag) else va
        key = self._hash_cache.get(cache_key)
        if key is None:
            key = self._hash(cache_key, va, kernel_mode)
        return key

    def _hash(self, cache_key, va: int, kernel_mode: bool) -> tuple[int, int]:
        """Hash-cache miss: compute *va*'s key and remember it."""
        key = self.indexing.index(va, kernel_mode)
        cache = self._hash_cache
        if len(cache) >= HASH_CACHE_SIZE:
            cache.clear()
        cache[cache_key] = key
        return key

    def _ways_of(self, set_index: int):
        ways = self._sets.get(set_index)
        if ways is None:
            from collections import OrderedDict

            ways = OrderedDict()
            self._sets[set_index] = ways
        return ways

    def train(self, source_pc: int, kind: BranchKind, target: int, *,
              kernel_mode: bool) -> None:
        """Install/overwrite the entry for a taken branch at *source_pc*."""
        if not kind.is_branch:
            raise ValueError("cannot train a non-branch")
        pc_rel = kind in _PCREL_KINDS
        stored = ((target - source_pc) & MASK64) if pc_rel \
            else canonical(target)
        set_index, tag = self._key(source_pc, kernel_mode)
        ways = self._ways_of(set_index)
        ways[tag] = BTBEntry(kind=kind, target=stored, pc_rel=pc_rel,
                             trained_kernel=kernel_mode,
                             source_pc=source_pc)
        ways.move_to_end(tag)
        self.live_keys.add((set_index, tag))
        if len(ways) > self.ways:
            evicted_tag, _ = ways.popitem(last=False)
            self.live_keys.discard((set_index, evicted_tag))
            self.evictions += 1
            if _REG.enabled:
                self._m_evictions.value += 1
        if _REG.enabled:
            self._m_installs.value += 1

    def evict(self, source_pc: int, *, kernel_mode: bool) -> None:
        """Drop the entry a source address selects (untraining)."""
        set_index, tag = self._key(source_pc, kernel_mode)
        ways = self._sets.get(set_index)
        if ways is not None and ways.pop(tag, None) is not None:
            self.live_keys.discard((set_index, tag))

    def lookup(self, source_pc: int, *, kernel_mode: bool) -> BTBEntry | None:
        """Query the predictor for a branch at *source_pc*."""
        set_index, tag = self._key(source_pc, kernel_mode)
        ways = self._sets.get(set_index)
        if ways is None:
            return None
        entry = ways.get(tag)
        if entry is not None:
            ways.move_to_end(tag)
            if _REG.enabled:
                self._m_hits.value += 1
        return entry

    def scan_block(self, block_start: int, block_len: int, *,
                   kernel_mode: bool) -> list[tuple[int, BTBEntry]]:
        """All predicted branch sources inside a fetch block, in order.

        This is the pre-decode query the Phantom frontend performs: the
        BTB decides *whether* any byte of the block is a branch before
        the bytes are decoded.
        """
        found = []
        sets = self._sets
        if not sets:
            return found
        # Set first: every indexing takes the set from the address's low
        # bits, so a byte whose set holds no entry is never hashed.  This
        # scan runs for every byte of every fetched instruction, the
        # hottest loop in the frontend.
        set_mask = (1 << self.indexing.set_bits) - 1
        cache = self._hash_cache
        miss = self._hash
        priv = kernel_mode and self.indexing.privilege_in_tag
        for pc in range(block_start, block_start + block_len):
            ways = sets.get(pc & set_mask)
            if not ways:
                continue
            cache_key = (pc, True) if priv else pc
            key = cache.get(cache_key)
            if key is None:
                key = miss(cache_key, pc, kernel_mode)
            entry = ways.get(key[1])
            if entry is not None:
                found.append((pc, entry))
        return found

    def block_keys(self, block_start: int, block_len: int, *,
                   kernel_mode: bool) -> frozenset[tuple[int, int]]:
        """The ``(set, tag)`` footprint of a code block's byte addresses.

        The footprint is a pure function of the address range and the
        hash functions — independent of BTB contents — so the superblock
        engine computes it once at compile time and later decides
        "would :meth:`scan_block` find anything?" by intersecting with
        :attr:`live_keys`.  Matching in key space rather than stored-pc
        space is what keeps aliasing (the Phantom mechanism) visible: a
        trainer at an unrelated va that hashes onto one of these keys
        must still force the block onto the scanning slow path.
        """
        cache = self._hash_cache
        miss = self._hash
        priv = kernel_mode and self.indexing.privilege_in_tag
        keys = set()
        for pc in range(block_start, block_start + block_len):
            cache_key = (pc, True) if priv else pc
            key = cache.get(cache_key)
            if key is None:
                key = miss(cache_key, pc, kernel_mode)
            keys.add(key)
        return frozenset(keys)

    def flush(self) -> None:
        """IBPB: drop all predictions."""
        self._sets.clear()
        self.live_keys.clear()

    def set_occupancy(self, set_index: int) -> int:
        ways = self._sets.get(set_index)
        return len(ways) if ways else 0

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
