"""The simulated CPU: decoupled frontend semantics with transient episodes.

Execution model
===============

Architectural execution is functional (instruction at a time) with cycle
accounting; microarchitectural speculation is modelled as *episodes*
expanded inline at the moment the real frontend would have performed
them.  Per instruction the CPU:

1. consults the µop cache (hit bypasses fetch+decode, as on hardware);
2. on a µop-cache miss, fetches the instruction bytes through the
   MMU/L1I and decodes them;
3. queries the BPU for a predicted branch source anywhere inside the
   instruction's byte span — the pre-decode prediction of Figure 2.
   Disagreement between the prediction's recorded semantics and the
   decoded reality triggers a **phantom episode** (decoder-detected,
   frontend resteer): transient fetch of the predicted target, transient
   decode into the µop cache, and — if the µarch loses the latency race
   (Zen 1/2) — transient execution of a few µops;
4. executes the instruction architecturally;
5. resolves execute-dependent predictions: wrong indirect/return targets
   and wrong conditional directions trigger **backend episodes**
   (classic Spectre windows) that transiently execute the wrong path,
   with nested phantom episodes allowed inside the window (paper §7.4);
6. trains the BPU with the architectural outcome.

Cache fills performed by episodes are never rolled back — they are the
observation channels and the attack surface.

Execution engines
=================

Two engines implement the model above with identical architectural
results (cycles, PMCs, episodes — pinned by the differential tests):

* the **naive path** (``_step_slow``) interprets every step from
  scratch: µop-cache probe, decode-cache lookup, ``execute()``'s
  mnemonic dispatch.  It is the oracle the fast path is checked
  against;
* the **fast path** keeps one compiled-code cache per privilege level,
  mapping a pc to its **step closure**.  A pc's first visit runs
  ``_step_slow``, which decodes it; the dispatch that finds the pc
  already decoded (its second visit) compiles the closure, which holds
  the decoded instruction, a specialised executor thunk
  (:func:`~repro.isa.semantics.compile_executor`, generated from the
  per-mnemonic table :data:`~repro.isa.semantics.SEMANTICS` while
  ``execute`` stays hand-written) and pre-resolved PMC counter slots.
  A pure BTB probe of the instruction's (set, tag) footprint against
  the live predictor keys skips the prediction query when it cannot
  hit; when it can, the closure makes the same ``predict_in_block``
  call as the naive path, so phantom episodes replay exactly.  While a
  trace sink is attached, dispatch runs ``_step_slow`` instead.
  Stateful shared models (µop cache, BPU, cache hierarchy) are still
  consulted per step — only Python-level dispatch, allocation and
  attribute traffic is removed, which is what keeps the fast path
  architecturally invisible.

Step closures hold only decode-cache instructions, address-pure BTB
keys and live callbacks, so they stay valid exactly as long as the
decode cache both engines step from: :meth:`CPU.invalidate_code` drops
them and nothing else does.  Privilege is part of the cache key, so
kernel and user executions of the same bytes never share a closure.

Speculative windows (``_transient_run``) have one fast layer of their
own: a per-µop transient decode cache of executor thunks, BTB key
footprints and translations, cleared wholesale when the page tables
change and per pc by :meth:`CPU.invalidate_code`.  Nothing is fused
inside a window, so nested phantom episodes replay µop by µop on both
engines, which predict a µop whose key footprint meets a live BTB key
with the same ``BPU.predict_in_block`` call.  ``PHANTOM_REPRO_FASTPATH=0``
selects the naive path (see ``docs/performance.md``).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable

from ..errors import (DecodeError, HaltRequested, PageFault, ReproError,
                      SimulationLimit, TruncatedError)
from ..fastpath import fastpath_enabled
from ..frontend import BPU, Prediction, UopCache
from ..isa import (ArchState, BranchKind, Instruction, compile_executor,
                   decode, execute, uop_count)
from ..isa.semantics import TRAP_MNEMONICS
from ..memory import MemorySystem
from ..params import MASK64, PAGE_SHIFT, PAGE_SIZE, canonical
from ..telemetry import metrics as _metrics
from ..telemetry.spans import SPANS as _SPANS
from ..telemetry.trace import TRACE as _TRACE
from .config import Microarch
from .pmc import PMC

_REG = _metrics.REGISTRY

_MAX_INSTR_BYTES = 16

#: Pre-resolved PMC counter slots (see :meth:`PMC.index`): the hot path
#: bumps ``pmc.counts`` entries directly instead of hashing event names.
_IDX_INSTRUCTIONS = PMC.index("instructions")
_IDX_OP_HIT = PMC.index("op_cache_hit")
_IDX_OP_MISS = PMC.index("op_cache_miss")
_IDX_DE_DIS = PMC.index("de_dis_uops_from_decoder")
_IDX_L1I_ACCESS = PMC.index("l1i_access")
_IDX_L1I_MISS = PMC.index("l1i_miss")
_IDX_L1D_ACCESS = PMC.index("l1d_access")
_IDX_L1D_MISS = PMC.index("l1d_miss")
_IDX_BRANCH_RETIRED = PMC.index("branch_retired")
_IDX_BRANCH_MISPREDICT = PMC.index("branch_mispredict")
_IDX_RESTEER_FRONTEND = PMC.index("resteer_frontend")
_IDX_RESTEER_BACKEND = PMC.index("resteer_backend")
_IDX_PHANTOM_FETCH = PMC.index("phantom_fetch")
_IDX_PHANTOM_DECODE = PMC.index("phantom_decode")
_IDX_PHANTOM_EXEC_UOPS = PMC.index("phantom_exec_uops")
_IDX_TRANSIENT_LOAD = PMC.index("transient_load")

#: Branch kinds for which a missing prediction means straight-line
#: speculation (the only kinds :meth:`CPU._sequential_speculation` acts
#: on) — lets step closures skip the call entirely otherwise.
_SLS_KINDS = frozenset((BranchKind.DIRECT, BranchKind.CALL_DIRECT,
                        BranchKind.INDIRECT, BranchKind.CALL_INDIRECT,
                        BranchKind.RETURN))

#: Transient-cache miss sentinel (``None`` is a valid cached value
#: there: "bytes at this pc do not decode").
_UNCOMPILED = object()

class Reach(enum.IntEnum):
    """How far a transient episode advanced in the pipeline."""

    NONE = 0
    FETCH = 1
    DECODE = 2
    EXECUTE = 3


#: Names of the ``episode`` trace event's fields, slot for slot with
#: :meth:`EpisodeRecord.key` (the resteer side spelled as a flavour).
EPISODE_EVENT_FIELDS = ("source_pc", "predicted_kind", "actual_kind",
                        "target", "reach", "flavour", "cross_privilege",
                        "nested")


@dataclass
class EpisodeRecord:
    """Diagnostic record of one speculation episode (tests only —
    exploits must use the observation channels instead)."""

    source_pc: int
    predicted_kind: BranchKind | None
    actual_kind: BranchKind
    target: int
    reach: Reach
    frontend_resteer: bool
    cross_privilege: bool = False
    nested: bool = False
    cycle: int = 0

    def key(self) -> tuple:
        """The one structural encoding of an episode, shared by the
        ``episode`` trace event, :class:`~repro.sidechannel.LeakTrace`
        and the fuzz oracle's observables: plain values (kinds as
        their mnemonics, ``None`` for no prediction; reach by name),
        cycle stamp excluded."""
        return (self.source_pc,
                self.predicted_kind.value
                if self.predicted_kind is not None else None,
                self.actual_kind.value, self.target, self.reach.name,
                self.frontend_resteer, self.cross_privilege, self.nested)

    def event_fields(self) -> dict:
        """:meth:`key` as the ``episode`` event's named fields."""
        fields = dict(zip(EPISODE_EVENT_FIELDS, self.key()))
        fields["flavour"] = "phantom" if self.frontend_resteer \
            else "spectre"
        return fields

    @classmethod
    def from_event(cls, event) -> "EpisodeRecord":
        """Rebuild the record an ``episode`` trace event was made from."""
        (source_pc, predicted, actual, target, reach, flavour,
         cross_privilege, nested) = (event.fields[name]
                                     for name in EPISODE_EVENT_FIELDS)
        return cls(source_pc,
                   BranchKind(predicted) if predicted is not None else None,
                   BranchKind(actual), target, Reach[reach],
                   flavour == "phantom", cross_privilege, nested,
                   event.cycle)


@dataclass
class MSRState:
    """Model-specific-register bits controlling the mitigations."""

    suppress_bp_on_non_br: bool = False
    auto_ibrs: bool = False


class _TransientState:
    """Register/store state of an in-flight transient path.

    The load/store callbacks the executor needs are bound here once per
    window.  The store buffer keeps *program order*:
    a store to an address that already has a buffered entry re-inserts
    it, so youngest-first scans (store-to-load forwarding) see the
    latest write last-inserted.  The callbacks close over the buffer
    and the CPU's bound ``_transient_load``, never over the state
    itself, so a finished window is freed by reference count.
    """

    __slots__ = ("arch", "load", "store")

    def __init__(self, cpu: "CPU", arch: ArchState) -> None:
        self.arch = arch
        stores: dict[int, tuple[int, int]] = {}
        user = not cpu.kernel_mode
        transient_load = cpu._transient_load

        def load(addr: int, size: int) -> int:
            return transient_load(addr, size, stores, user)

        def store(addr: int, size: int, value: int) -> None:
            if addr in stores:
                del stores[addr]
            stores[addr] = (size, value)

        self.load = load
        self.store = store


class CPU:
    """One simulated core."""

    def __init__(self, uarch: Microarch, mem: MemorySystem,
                 rng: random.Random | None = None,
                 fastpath: bool | None = None) -> None:
        self.uarch = uarch
        self.mem = mem
        self.rng = rng or random.Random(0)
        self.uopcache = UopCache()
        self.pmc = PMC()
        self.state = ArchState()
        self.msr = MSRState()
        self.pc = 0
        self.cycles = 0
        self.kernel_mode = False
        self.episodes: list[EpisodeRecord] = []
        self.record_episodes = False
        #: Set by the Machine: handle syscall/sysret/hlt/ud2 traps.
        self.trap_handler = None
        self._decode_cache: dict[int, Instruction] = {}
        #: Engine selection; defaults to the memory system's, so one
        #: PHANTOM_REPRO_FASTPATH read governs the whole machine.  The
        #: variable is parsed even when overridden, so a bad setting
        #: fails loudly at the first CPU build.
        fastpath_enabled()
        self._fastpath = mem.fastpath if fastpath is None else bool(fastpath)
        #: Only the fast path shares the process-wide BTB hash memo.
        self.bpu = BPU(uarch.btb, btb_ways=uarch.btb_ways,
                       shared_hashes=self._fastpath)
        #: Memoized (or naive — same results) translation entry point.
        self._translate = mem.translate
        #: L1-miss heuristic threshold, read once: an access is a miss
        #: when its service latency reached L2.
        self._l1_miss_threshold = mem.hier.params.l2_latency
        self._counts = self.pmc.counts
        #: Compiled code: pc -> step closure, split per privilege
        #: level.  Calling the closure retires the instruction at pc.
        self._code_user: dict[int, Callable[[], None]] = {}
        self._code_kernel: dict[int, Callable[[], None]] = {}
        #: Transient-path decode cache: pc -> the tuple described in
        #: ``_transient_entry``, or None for undecodable bytes.  Valid
        #: only for the page-table generation it was filled under.
        self._transient_cache: dict[int, tuple | None] = {}
        self._transient_gen = mem.aspace.generation
        #: Page -> pcs with any cached artifact on that page, so
        #: invalidate_code touches only the affected pages.
        self._code_pages: dict[int, set[int]] = {}
        #: Always 0; profilers sum them across CPUs.  The ``sb_*``
        #: trio counted superblocks, a retired compiled layer.
        self.sb_compiled = 0
        self.sb_invalidated = 0
        self.sb_probe_bails = 0
        self.tb_compiled = 0
        self.cycles_skipped = 0
        self._m_phantom = _metrics.counter("speculation_episodes",
                                           flavour="phantom")
        self._m_spectre = _metrics.counter("speculation_episodes",
                                           flavour="spectre")

    def release(self) -> None:
        """End of life: drop what ties the CPU into reference cycles.

        Step closures capture the CPU, and the trap handler is its
        machine's bound ``_trap`` (or a fuzz world's closure), so a
        finished machine would otherwise wait for the cyclic collector.
        Clearing the compiled and transient caches only costs a
        recompile; cycles, PMCs and episodes stay readable, but running
        the CPU again raises "unhandled trap" at its next trap.  Owners
        call this once they are done with the machine, never on a
        per-instruction path.
        """
        self._code_user.clear()
        self._code_kernel.clear()
        self._transient_cache.clear()
        self.trap_handler = None

    # ------------------------------------------------------------------
    # decode path
    # ------------------------------------------------------------------

    def invalidate_code(self, lo: int, hi: int) -> None:
        """Drop cached artifacts overlapping [lo, hi) (self-modifying code).

        Removes decoded instructions, compiled entries and transient
        decode entries whose bytes may intersect the
        written range, and invalidates the µop-cache windows covering it
        — µops cracked from the old bytes must not serve hits after a
        code rewrite.  Cached pcs are indexed by page, so the walk
        touches only the pages the write spans instead of scanning every
        cached decode.  A step closure covers only its own pc, so it
        goes with that pc's decode.
        """
        if hi <= lo:
            return
        decode_cache = self._decode_cache
        transient = self._transient_cache
        code_user = self._code_user
        code_kernel = self._code_kernel
        code_pages = self._code_pages
        lo_reach = lo - _MAX_INSTR_BYTES
        for page in range((lo_reach + 1) >> PAGE_SHIFT,
                          ((hi - 1) >> PAGE_SHIFT) + 1):
            pcs = code_pages.get(page)
            if not pcs:
                continue
            stale = [pc for pc in pcs if lo_reach < pc < hi]
            for pc in stale:
                pcs.discard(pc)
                decode_cache.pop(pc, None)
                transient.pop(pc, None)
                code_user.pop(pc, None)
                code_kernel.pop(pc, None)
            if not pcs:
                del code_pages[page]
        self.uopcache.invalidate_range(lo_reach + 1, hi)

    def _register_code_pc(self, pc: int) -> None:
        """Index *pc* for page-granular invalidation."""
        page = pc >> PAGE_SHIFT
        pcs = self._code_pages.get(page)
        if pcs is None:
            pcs = self._code_pages[page] = set()
        pcs.add(pc)

    def _count_l1(self, cyc: int, access_idx: int, miss_idx: int) -> None:
        """Count one L1 access, classifying it as a miss when its
        service latency reached L2 — the shared heuristic of the I- and
        D-side paths (pinned by tests/pipeline/test_step_cache.py)."""
        counts = self._counts
        counts[access_idx] += 1
        if cyc >= self._l1_miss_threshold:
            counts[miss_idx] += 1

    def _fetch_bytes(self, pc: int, length: int) -> bytes:
        """Fetch *length* raw bytes at *pc* through the MMU and L1I."""
        raw, cyc = self.mem.fetch_code(pc, length,
                                       user_mode=not self.kernel_mode)
        self.cycles += cyc
        self._count_l1(cyc, _IDX_L1I_ACCESS, _IDX_L1I_MISS)
        return raw

    def _decode_at(self, pc: int) -> Instruction:
        """Decode the instruction at *pc*, fetching block by block.

        Fetch granularity is the µarch's aligned fetch block: the block
        after the instruction is only touched when the instruction
        actually crosses the boundary — matching hardware and keeping
        the fall-through line cold for Phantom's observation channels.
        """
        instr = self._decode_cache.get(pc)
        if instr is not None:
            return instr
        block = self.uarch.fetch_block
        block_end = (pc & ~(block - 1)) + block
        raw = self._fetch_bytes(pc, min(block_end - pc, _MAX_INSTR_BYTES))
        try:
            instr = decode(raw)
        except TruncatedError:
            try:
                raw += self._fetch_bytes(pc + len(raw),
                                         _MAX_INSTR_BYTES - len(raw))
            except PageFault as exc:
                raise PageFault(canonical(pc + len(raw)), present=False,
                                user=not self.kernel_mode, exec_=True) \
                    from exc
            instr = decode(raw)   # DecodeError propagates
        self._decode_cache[pc] = instr
        self._register_code_pc(pc)
        self.cycles += self.uarch.decode_latency
        if self.uarch.next_line_prefetch:
            self._prefetch_target((pc & ~63) + 64, count_event=False)
        return instr

    # ------------------------------------------------------------------
    # memory callbacks for the executor
    # ------------------------------------------------------------------

    def _load(self, addr: int, size: int) -> int:
        value, cyc = self.mem.read_data(addr, size,
                                        user_mode=not self.kernel_mode)
        self.cycles += cyc
        self._count_l1(cyc, _IDX_L1D_ACCESS, _IDX_L1D_MISS)
        return value

    def _store(self, addr: int, size: int, value: int) -> None:
        cyc = self.mem.write_data(addr, size, value,
                                  user_mode=not self.kernel_mode)
        self.cycles += cyc
        self._counts[_IDX_L1D_ACCESS] += 1

    def _rdtsc(self) -> int:
        return self.cycles

    # ------------------------------------------------------------------
    # architectural stepping
    # ------------------------------------------------------------------

    def run(self, pc: int | None = None, *,
            max_instructions: int = 2_000_000) -> None:
        """Run until ``hlt`` (raises HaltRequested) or the budget expires."""
        if pc is not None:
            self.pc = canonical(pc)
        if self._fastpath:
            self._run_compiled(max_instructions)
        else:
            for _ in range(max_instructions):
                self._step_slow()
        raise SimulationLimit(
            f"exceeded {max_instructions} instructions at pc={self.pc:#x}")

    def _run_compiled(self, max_instructions: int) -> None:
        """The fast engine's run loop.

        Per instruction: look up the step closure for the current
        ``(pc, privilege)``, compiling one when the pc is already
        decoded (its second visit), and call it; otherwise run one
        ``_step_slow``.  Either way one instruction retires, so the
        "limit" outcome fires after precisely *max_instructions* steps,
        as on the naive engine.  Compiled code is skipped while the
        trace collector has a sink: ``retire`` events observe
        individual steps, which only ``_step_slow`` reports.
        """
        user_cache = self._code_user
        kernel_cache = self._code_kernel
        decoded = self._decode_cache
        step_slow = self._step_slow
        for _ in range(max_instructions):
            if not _TRACE.enabled:
                kernel_mode = self.kernel_mode
                cache = kernel_cache if kernel_mode else user_cache
                pc = self.pc
                step = cache.get(pc)
                if step is None and pc in decoded:
                    with _SPANS.span("fastpath:compile", pc=hex(pc)):
                        step = cache[pc] = self._compile_step(
                            pc, decoded[pc], kernel_mode)
                if step is not None:
                    step()
                    continue
            step_slow()

    def _step_slow(self) -> None:
        """The naive engine: interpret one step from scratch."""
        pc = self.pc
        uop_hit = self.uopcache.access(pc)
        if uop_hit:
            self._counts[_IDX_OP_HIT] += 1
            self.cycles += 1
        else:
            self._counts[_IDX_OP_MISS] += 1
            if self.msr.suppress_bp_on_non_br \
                    and self.uarch.supports_suppress_bp_on_non_br:
                # SuppressBPOnNonBr withholds next-fetch predictions
                # until bytes are known to be a branch, costing a little
                # frontend lookahead on the decode path (measured at
                # well under 1% by the paper's UnixBench runs, §6.3).
                self.cycles += 2
        instr = self._decode_at(pc)
        if not uop_hit:
            self._counts[_IDX_DE_DIS] += uop_count(instr)
        if _TRACE.enabled:
            _TRACE.emit("retire", self.cycles, pc=pc, text=str(instr),
                        kernel_mode=self.kernel_mode)

        prediction = self.bpu.predict_in_block(
            pc, instr.length, kernel_mode=self.kernel_mode)

        # Phantom: decoder-detectable disagreement between the
        # prediction's semantics and the decoded instruction.
        prediction = self._frontend_check(pc, instr, prediction)

        result = execute(instr, pc, self.state, self._load, self._store,
                         rdtsc=self._rdtsc)
        self._counts[_IDX_INSTRUCTIONS] += 1
        self.cycles += 1

        self._resolve_and_train(pc, instr, result, prediction)

        if result.trap is not None:
            self._handle_trap(result.trap, instr, result)
            return
        self.pc = canonical(result.next_pc)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def _compile_step(self, pc: int, instr: Instruction,
                      kernel_mode: bool) -> Callable[[], None]:
        """Fuse one steady-state step of *instr* at *pc* into a closure.

        Everything derivable from the decoded instruction is resolved
        here: the executor thunk, µop count, branch kind, trap
        potential.  The closure still consults every stateful shared
        model (µop cache, BPU, PMC, cache hierarchy) — its results must
        be byte-identical to ``_step_slow`` on a decode-cache hit.  It
        never runs while the trace collector has a sink (the dispatch
        loop steps slowly then), so it emits no ``retire`` events.

        The dispatch loop brackets compilation by a ``fastpath:compile``
        span, but it is deliberately *not* a metrics counter: only the
        fast engine compiles, and engine manifests must stay
        fingerprint-identical.
        """
        cpu = self
        counts = self._counts
        uop_access = self.uopcache.access
        predict = self.bpu.predict_in_block
        frontend_check = self._frontend_check
        resolve = self._resolve_and_train
        msr = self.msr
        state = self.state
        load = self._load
        store = self._store
        rdtsc = self._rdtsc
        suppress_supported = self.uarch.supports_suppress_bp_on_non_br
        exec_thunk = compile_executor(instr, pc)
        n_uops = uop_count(instr)
        length = instr.length
        kind = instr.branch_kind
        is_branch = kind is not BranchKind.NONE
        sls_candidate = kind in _SLS_KINDS
        can_trap = instr.mnemonic in TRAP_MNEMONICS
        # Pure pre-probe: the instruction's (set, tag) footprint —
        # every byte address it spans, hashed exactly as scan_block
        # would — is a static function of its address range, and
        # predict_in_block on a full miss returns None with zero side
        # effects.  The probe is in key space, not stored-pc space, so
        # an aliasing trainer at an unrelated address still meets it.
        # Intersecting the footprint with the BTB's live key set —
        # re-read every step, so training and eviction are seen
        # immediately — skips the per-byte scan for the overwhelmingly
        # common untrained pc.
        keys = self.bpu.btb.block_keys(pc, length, kernel_mode=kernel_mode)
        live = self.bpu.btb.live_keys

        def step() -> None:
            if uop_access(pc):
                counts[_IDX_OP_HIT] += 1
                cpu.cycles += 1
            else:
                counts[_IDX_OP_MISS] += 1
                if msr.suppress_bp_on_non_br and suppress_supported:
                    cpu.cycles += 2
                counts[_IDX_DE_DIS] += n_uops
            if keys.isdisjoint(live):
                prediction = None
                if sls_candidate:
                    cpu._sequential_speculation(pc, instr)
            else:
                prediction = predict(pc, length, kernel_mode=kernel_mode)
                if prediction is not None:
                    prediction = frontend_check(pc, instr, prediction)
                elif sls_candidate:
                    cpu._sequential_speculation(pc, instr)
            result = exec_thunk(state, load, store, rdtsc)
            counts[_IDX_INSTRUCTIONS] += 1
            cpu.cycles += 1
            if is_branch:
                resolve(pc, instr, result, prediction)
            if can_trap and result.trap is not None:
                cpu._handle_trap(result.trap, instr, result)
                return
            cpu.pc = canonical(result.next_pc)

        return step

    # ------------------------------------------------------------------
    # frontend (pre-decode) prediction handling
    # ------------------------------------------------------------------

    def _frontend_check(self, pc: int, instr: Instruction,
                        prediction: Prediction | None) -> Prediction | None:
        """Handle decoder-detectable mispredictions.

        Returns the prediction if it survives decode (execute-dependent
        semantics agree) so the backend can verify it; returns None when
        the decoder already resteered (phantom episode performed).
        """
        if prediction is None:
            self._sequential_speculation(pc, instr)
            return None
        actual_kind = instr.branch_kind if prediction.source_pc == pc \
            else BranchKind.NONE
        predicted_kind = prediction.kind

        if predicted_kind is actual_kind:
            if actual_kind in (BranchKind.DIRECT, BranchKind.CALL_DIRECT,
                               BranchKind.CONDITIONAL):
                # PC-relative displacements are decodable: the decoder
                # verifies the target immediately (the asymmetric
                # different-displacement cases of Table 1).  For jcc the
                # *direction* still resolves at execute.
                if prediction.target != instr.target(pc):
                    self._phantom(pc, prediction, actual_kind)
                    return None
            if (self.msr.auto_ibrs and self.uarch.supports_auto_ibrs
                    and prediction.cross_privilege
                    and actual_kind.is_execute_dependent):
                # AutoIBRS refuses cross-privilege predictions, but only
                # after the predicted target was fetched and decoded
                # (§8.1): model as a phantom-style frontend episode with
                # no execute window.
                self._phantom(pc, prediction, actual_kind)
                return None
            return prediction  # backend will verify target/direction
        # Branch-type confusion: detected at decode, not at execute.
        self._phantom(pc, prediction, actual_kind)
        return None

    def _sequential_speculation(self, pc: int, instr: Instruction) -> None:
        """No prediction: fetch ran sequentially past this instruction.

        For architecturally taken unconditional branches this is
        straight-line speculation of the fall-through bytes, resteered
        by decode (jmp/call) or dispatch (jmp*/ret).  Conditional
        mispredictions are handled by the backend path instead.
        """
        kind = instr.branch_kind
        if kind in _SLS_KINDS:
            if (self.uarch.indirect_victim_opaque
                    and kind in (BranchKind.INDIRECT,
                                 BranchKind.CALL_INDIRECT)):
                # Intel quirk (§6): jmp* victims show no phantom/SLS
                # pipeline signal; prefetching parts still warm the
                # fall-through line.
                if self.uarch.bpu_prefetch:
                    self._prefetch_target((pc + instr.length) & MASK64)
                return
            fall_through = (pc + instr.length) & MASK64
            exec_uops = self.uarch.phantom_exec_uops
            if self.msr.suppress_bp_on_non_br \
                    and self.uarch.supports_suppress_bp_on_non_br:
                # SLS follows from the *absence* of a branch prediction,
                # which is exactly what this bit suppresses speculation
                # on; transient execute stops, fetch/decode do not (O4).
                exec_uops = 0
            reach = self._transient_target(fall_through, exec_uops,
                                           state=None)
            self._counts[_IDX_RESTEER_FRONTEND] += 1
            self.cycles += self.uarch.frontend_resteer_latency
            self._record(pc, None, kind, fall_through, reach,
                         frontend=True)

    def _phantom(self, pc: int, prediction: Prediction,
                 actual_kind: BranchKind) -> None:
        """Decoder-detected misprediction: the Phantom episode."""
        exec_uops = self.uarch.phantom_exec_uops
        if (self.msr.suppress_bp_on_non_br
                and self.uarch.supports_suppress_bp_on_non_br
                and actual_kind is BranchKind.NONE):
            exec_uops = 0    # O4: IF and ID still happen
        if (self.msr.auto_ibrs and self.uarch.supports_auto_ibrs
                and prediction.cross_privilege):
            exec_uops = 0    # O5: IF (and ID) still happen
        if (self.uarch.indirect_victim_opaque
                and actual_kind in (BranchKind.INDIRECT,
                                    BranchKind.CALL_INDIRECT)):
            # Intel quirk: jmp* victims show no phantom *pipeline*
            # signal (§6) — but parts with BPU-assisted prefetch still
            # pull the predicted target into the I-cache ("sometimes
            # not even IF" distinguishes the parts without it).
            reach = Reach.NONE
            if self.uarch.bpu_prefetch:
                reach = self._prefetch_target(prediction.target)
            self._counts[_IDX_RESTEER_FRONTEND] += 1
            self._record(pc, prediction.kind, actual_kind,
                         prediction.target, reach, frontend=True,
                         cross_privilege=prediction.cross_privilege)
            return
        reach = self._transient_target(prediction.target, exec_uops,
                                       state=None)
        self._counts[_IDX_RESTEER_FRONTEND] += 1
        self._counts[_IDX_BRANCH_MISPREDICT] += 1
        self.cycles += self.uarch.frontend_resteer_latency
        self._record(pc, prediction.kind, actual_kind, prediction.target,
                     reach, frontend=True,
                     cross_privilege=prediction.cross_privilege)

    # ------------------------------------------------------------------
    # backend resolution and training
    # ------------------------------------------------------------------

    def _resolve_and_train(self, pc: int, instr: Instruction, result,
                           prediction: Prediction | None) -> None:
        kind = instr.branch_kind
        if kind is BranchKind.NONE:
            return
        self._counts[_IDX_BRANCH_RETIRED] += 1

        if kind.is_call:
            self.bpu.call_executed((pc + instr.length) & MASK64)
        rsb_prediction = None
        if kind is BranchKind.RETURN:
            rsb_prediction = self.bpu.ret_executed()

        # Backend verification of execute-dependent predictions.
        if prediction is not None and kind.is_execute_dependent:
            predicted_target = prediction.target
            if kind is BranchKind.CONDITIONAL:
                if result.taken:
                    pass  # predicted taken w/ correct target: correct
                else:
                    # Predicted taken, actually not taken: the taken
                    # path ran transiently (Spectre-v1 windows).
                    self._backend_mispredict(pc, prediction.kind,
                                             kind, predicted_target)
            elif predicted_target != result.target:
                self._backend_mispredict(pc, prediction.kind, kind,
                                         predicted_target)
        elif prediction is None and kind is BranchKind.CONDITIONAL \
                and result.taken:
            # Predicted not-taken (default), actually taken: the
            # fall-through path ran transiently.
            self._backend_mispredict(pc, None, kind,
                                     (pc + instr.length) & MASK64)
        elif prediction is None and kind is BranchKind.RETURN \
                and rsb_prediction is not None \
                and rsb_prediction != result.target:
            self._backend_mispredict(pc, BranchKind.RETURN, kind,
                                     rsb_prediction)

        self.bpu.train_branch(pc, kind, result.target, bool(result.taken),
                              kernel_mode=self.kernel_mode)

    def _backend_mispredict(self, pc: int, predicted_kind,
                            actual_kind: BranchKind,
                            wrong_target: int) -> None:
        """Execute-detected misprediction: the classic Spectre window."""
        self._counts[_IDX_RESTEER_BACKEND] += 1
        self._counts[_IDX_BRANCH_MISPREDICT] += 1
        transient = _TransientState(self, self.state.copy())
        executed = self._transient_run(wrong_target,
                                       self.uarch.backend_window_uops,
                                       transient, allow_nested=True)
        self.cycles += 18 + executed  # resteer + pipeline refill
        self._record(pc, predicted_kind, actual_kind, wrong_target,
                     Reach.EXECUTE, frontend=False)

    # ------------------------------------------------------------------
    # transient machinery
    # ------------------------------------------------------------------

    def _prefetch_target(self, target: int, *,
                         count_event: bool = True) -> Reach:
        """I-prefetch of an address: the line is cached but nothing
        enters the pipeline (no decode, no µops)."""
        try:
            pa = self._translate(canonical(target), exec_=True,
                                 user_mode=not self.kernel_mode)
        except PageFault:
            return Reach.NONE
        self.mem.hier.prefetch_instr(pa & ~63)
        if count_event:
            self._counts[_IDX_PHANTOM_FETCH] += 1
        return Reach.FETCH

    def _transient_target(self, target: int, exec_uops: int,
                          state: _TransientState | None,
                          nested: bool = False) -> Reach:
        """Fetch/decode/execute a speculative target; returns the reach.

        This is the phantom pipeline walk: instruction fetch through the
        MMU (exec permission enforced, faults squashed), decode into the
        µop cache, then at most *exec_uops* µops of transient execution.
        """
        target = canonical(target)
        user = not self.kernel_mode
        # --- IF ---------------------------------------------------------
        block = target & ~(self.uarch.fetch_block - 1)
        try:
            pa = self._translate(target, exec_=True, user_mode=user)
        except PageFault:
            return Reach.NONE
        line = pa & ~63
        self.mem.hier.prefetch_instr(line)
        end_pa = pa + (block + self.uarch.fetch_block - target)
        if (end_pa - 1) & ~63 != line:
            self.mem.hier.prefetch_instr((end_pa - 1) & ~63)
        self._counts[_IDX_PHANTOM_FETCH] += 1
        reach = Reach.FETCH
        # --- ID ---------------------------------------------------------
        raw = self.mem.phys.read(pa, min(self.uarch.fetch_block,
                                         PAGE_SIZE - (pa & (PAGE_SIZE - 1))))
        decoded: list[tuple[int, Instruction]] = []
        pos = 0
        while pos < len(raw):
            try:
                instr = decode(raw, pos)
            except DecodeError:
                break
            decoded.append((target + pos, instr))
            pos += instr.length
        if decoded:
            self.uopcache.fill(target)
            last_pc = decoded[-1][0]
            if (last_pc >> 6) != (target >> 6):
                self.uopcache.fill(last_pc)
            self._counts[_IDX_PHANTOM_DECODE] += 1
            reach = Reach.DECODE
        # --- EX ---------------------------------------------------------
        if exec_uops > 0 and decoded:
            transient = state or _TransientState(self, self.state.copy())
            executed = self._transient_run(target, exec_uops, transient,
                                           allow_nested=False)
            if executed > 0:
                self._counts[_IDX_PHANTOM_EXEC_UOPS] += executed
                reach = Reach.EXECUTE
        if nested:
            self._counts[_IDX_RESTEER_FRONTEND] += 1
        return reach

    def _transient_entry(self, pc: int, pa: int) -> tuple | None:
        """Decode (and memoize) the transient instruction at *pc*.

        Caches ``(instr, executor thunk, µop count, ends_window, length,
        branch kind, BTB key footprint, entry privilege, physical
        address)``, or ``None`` when the bytes do not decode — the
        lookup must reproduce the naive path's break-on-DecodeError
        without re-reading physical memory every µop.  The key
        footprint lets ``_transient_run`` answer the nested prediction
        query with one set intersection (see ``_compile_step`` for
        the soundness argument).  The entry privilege tags both the
        footprint (Intel mixes privilege into the BTB tag) and the
        memoized translation (permission checks differ by mode); a
        privilege mismatch falls back to live calls.  Caching the
        physical address is sound because any mapping or permission
        change bumps the page-table generation, which clears this cache
        wholesale.  Entries are also dropped by ``invalidate_code``.
        """
        window = min(_MAX_INSTR_BYTES, PAGE_SIZE - (pa & (PAGE_SIZE - 1)))
        raw = self.mem.phys.read(pa, window)
        try:
            instr = decode(raw)
        except DecodeError:
            entry = None
        else:
            ends_window = instr.is_fence or instr.mnemonic in TRAP_MNEMONICS
            kernel_mode = self.kernel_mode
            keys = self.bpu.btb.block_keys(pc, instr.length,
                                           kernel_mode=kernel_mode)
            entry = (instr, compile_executor(instr, pc), uop_count(instr),
                     ends_window, instr.length, instr.branch_kind,
                     keys, kernel_mode, pa)
        self._transient_cache[pc] = entry
        self._register_code_pc(pc)
        return entry

    def _transient_run(self, pc: int, uop_budget: int,
                       transient: _TransientState,
                       allow_nested: bool) -> int:
        """Transiently execute from *pc* until the µop budget runs out.

        Loads pull real data through the D-cache (filling it — the
        leak); stores stay in a private store buffer; faults, fences,
        traps and undecodable bytes end the window.  Returns µops
        executed.
        """
        kernel_mode = self.kernel_mode
        user = not kernel_mode
        executed = 0
        pc = canonical(pc)
        translate = self._translate
        t_load = transient.load
        t_store = transient.store
        rdtsc = self._rdtsc
        arch = transient.arch
        fast = self._fastpath
        # Intra-window memoization (fast path only): consecutive µops
        # share I-cache lines and µop-cache windows, and re-prefetching
        # a line known present / re-filling the MRU window are state
        # no-ops — *unless* something invalidated in between.  The L2
        # tick detects back-invalidation (every L2 access moves it; an
        # L1 hit never touches L2), and nested episodes reset both
        # memos below.
        hier = self.mem.hier
        prefetch = hier.prefetch_instr
        l2 = hier.l2
        uop_fill = self.uopcache.fill
        live = self.bpu.btb.live_keys
        last_line = -1
        last_l2_tick = -1
        last_window = -1
        keys = None
        keys_kernel = False
        if fast:
            generation = self.mem.aspace.generation
            if self._transient_gen != generation:
                self._transient_cache.clear()
                self._transient_gen = generation
            cache = self._transient_cache
        while uop_budget > 0:
            if fast:
                entry = cache.get(pc, _UNCOMPILED)
                if entry is _UNCOMPILED:
                    try:
                        pa = translate(pc, exec_=True, user_mode=user)
                    except PageFault:
                        break
                    entry = self._transient_entry(pc, pa)
                if entry is None:
                    break
                (instr, exec_thunk, n, ends_window, length, kind,
                 keys, keys_kernel, entry_pa) = entry
                if keys_kernel == kernel_mode:
                    pa = entry_pa
                else:
                    try:
                        pa = translate(pc, exec_=True, user_mode=user)
                    except PageFault:
                        break
                line = pa & ~63
                if line != last_line or l2._tick != last_l2_tick:
                    prefetch(line)
                    last_line = line
                    last_l2_tick = l2._tick
                window = pc >> 6
                if window != last_window:
                    uop_fill(pc)
                    last_window = window
                if ends_window:
                    break
                if n > uop_budget:
                    break
            else:
                try:
                    pa = translate(pc, exec_=True, user_mode=user)
                except PageFault:
                    break
                window = min(_MAX_INSTR_BYTES,
                             PAGE_SIZE - (pa & (PAGE_SIZE - 1)))
                raw = self.mem.phys.read(pa, window)
                try:
                    instr = decode(raw)
                except DecodeError:
                    break
                self.mem.hier.prefetch_instr(pa & ~63)
                self.uopcache.fill(pc)
                if instr.is_fence or instr.mnemonic in TRAP_MNEMONICS:
                    break
                n = uop_count(instr)
                if n > uop_budget:
                    break
                length = instr.length
                kind = instr.branch_kind

            if allow_nested:
                if keys is not None and keys_kernel == kernel_mode \
                        and keys.isdisjoint(live):
                    # Pure pre-probe: no live BTB key matches any byte
                    # of this instruction, so the scan below would
                    # return None with zero side effects — skip it.
                    nested_pred = None
                else:
                    nested_pred = self.bpu.predict_in_block(
                        pc, length, kernel_mode=kernel_mode)
                if nested_pred is not None and \
                        nested_pred.kind is not kind:
                    # Phantom nested inside a Spectre window (§7.4):
                    # the decoder will resteer, but the phantom target
                    # advances with the *transient* register state.
                    reach = self._transient_target(
                        nested_pred.target, self.uarch.phantom_exec_uops,
                        transient, nested=True)
                    self._record(pc, nested_pred.kind, kind,
                                 nested_pred.target, reach, frontend=True,
                                 cross_privilege=nested_pred.cross_privilege,
                                 nested=True)
                    # The nested walk touched I-side caches: drop the
                    # intra-window memos.
                    last_line = -1
                    last_window = -1

            try:
                if fast:
                    result = exec_thunk(arch, t_load, t_store, rdtsc)
                else:
                    result = execute(instr, pc, arch, t_load, t_store,
                                     rdtsc=rdtsc)
            except PageFault:
                break
            executed += n
            uop_budget -= n
            if result.trap is not None:
                break
            pc = canonical(result.next_pc)
        return executed

    def _transient_load(self, addr: int, size: int,
                        stores: dict[int, tuple[int, int]],
                        user: bool) -> int:
        if stores:
            # Store-to-load forwarding: the youngest buffered store that
            # fully contains the load forwards its bytes (hardware
            # forwards from the store buffer; the old exact-(addr, size)
            # match let contained reloads read stale memory).  Loads
            # only *partially* overlapping a store read memory —
            # documented in tests/pipeline/test_transient_forwarding.py.
            end = addr + size
            for start, (s_size, s_value) in reversed(stores.items()):
                if start <= addr and end <= start + s_size:
                    return (s_value >> ((addr - start) << 3)) \
                        & ((1 << (size << 3)) - 1)
        pa = self._translate(addr, user_mode=user)
        access_data = self.mem.hier.access_data
        access_data(pa & ~63)
        self._counts[_IDX_TRANSIENT_LOAD] += 1
        read = self.mem.phys.read_int
        head = PAGE_SIZE - (addr & (PAGE_SIZE - 1))
        if size <= head:
            return read(pa, size)
        # A load straddling a page reads its tail from the next page's
        # frame; a fault there ends the window like any other.
        tail_pa = self._translate(addr + head, user_mode=user)
        access_data(tail_pa)
        return read(pa, head) | (read(tail_pa, size - head) << (head << 3))

    # ------------------------------------------------------------------
    # traps and diagnostics
    # ------------------------------------------------------------------

    def _handle_trap(self, trap: str, instr: Instruction, result) -> None:
        if trap == "hlt":
            raise HaltRequested("hlt executed")
        if self.trap_handler is None:
            raise ReproError(f"unhandled trap {trap!r} at {self.pc:#x}")
        self.trap_handler(self, trap, instr, result)

    def _record(self, source_pc: int, predicted_kind, actual_kind,
                target: int, reach: Reach, *, frontend: bool,
                cross_privilege: bool = False, nested: bool = False) -> None:
        if _REG.enabled:
            (self._m_phantom if frontend else self._m_spectre).value += 1
        if not (_TRACE.enabled or self.record_episodes):
            return
        episode = EpisodeRecord(source_pc, predicted_kind, actual_kind,
                                target, reach, frontend, cross_privilege,
                                nested, self.cycles)
        if _TRACE.enabled:
            _TRACE.emit("episode", self.cycles, **episode.event_fields())
            _TRACE.emit("resteer", self.cycles,
                        source="frontend" if frontend else "backend",
                        pc=source_pc)
        if self.record_episodes:
            self.episodes.append(episode)
