"""Branch Prediction Unit: BTB + RSB + conditional predictor.

The BPU answers one question for the fetch unit, *before any byte is
decoded*: "does this fetch block contain a branch, and where does it
go?"  Whatever semantics the BTB entry carries — installed by whatever
instruction trained it — become the frontend's belief about the victim
instruction (paper observation: "the training instruction always
determines the prediction semantics of the victim instruction").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import BranchKind
from ..telemetry import metrics as _metrics
from .btb import BTB, BTBEntry, BTBIndexing
from .cond import ConditionalPredictor
from .rsb import RSB

_REG = _metrics.REGISTRY


@dataclass(frozen=True)
class Prediction:
    """A frontend prediction for a branch source inside a fetch block."""

    source_pc: int          # where the predicted branch source sits
    kind: BranchKind        # semantics recorded by the trainer
    target: int             # predicted next fetch address
    cross_privilege: bool   # trainer privilege != current privilege
    from_rsb: bool = False  # target served by the return stack


class BPU:
    """Pre-decode next-fetch prediction and post-execute training."""

    def __init__(self, indexing: BTBIndexing, *, rsb_depth: int = 32,
                 pht_entries: int = 4096, btb_ways: int = 8,
                 shared_hashes: bool = True) -> None:
        self.btb = BTB(indexing, ways=btb_ways, shared_hashes=shared_hashes)
        self.rsb = RSB(rsb_depth)
        self.cond = ConditionalPredictor(pht_entries)
        self._m_predictions = _metrics.counter("bpu_predictions")
        self._m_cross_priv = _metrics.counter(
            "bpu_predictions", cross_privilege="true")

    # -- prediction (frontend, pre-decode) ---------------------------------

    def predict_in_block(self, block_start: int, length: int, *,
                         kernel_mode: bool,
                         from_pc: int | None = None) -> Prediction | None:
        """First predicted branch source in ``[from_pc, block_start+length)``.

        Returns None when the BTB believes the block is branch-free
        (fetch continues sequentially).
        """
        start = block_start if from_pc is None else max(block_start, from_pc)
        for pc, entry in self.btb.scan_block(block_start, length,
                                             kernel_mode=kernel_mode):
            if pc < start:
                continue
            prediction = self._resolve(pc, entry, kernel_mode)
            if prediction is not None:
                if _REG.enabled:
                    self._m_predictions.value += 1
                    if prediction.cross_privilege:
                        self._m_cross_priv.value += 1
                return prediction
        return None

    def predict_at(self, pc: int, *, kernel_mode: bool) -> Prediction | None:
        """Prediction for a branch source at exactly *pc* (if any)."""
        entry = self.btb.lookup(pc, kernel_mode=kernel_mode)
        if entry is None:
            return None
        return self._resolve(pc, entry, kernel_mode)

    def _resolve(self, pc: int, entry: BTBEntry,
                 kernel_mode: bool) -> Prediction | None:
        kind = entry.kind
        if kind is BranchKind.CONDITIONAL and not self.cond.predict(pc):
            return None  # predicted not-taken: no redirect from this source
        if kind is BranchKind.RETURN:
            target = self.rsb.peek()
            if target is None:
                return None
            return Prediction(pc, kind, target,
                              entry.trained_kernel != kernel_mode,
                              from_rsb=True)
        return Prediction(pc, kind, entry.predicted_target(pc),
                          entry.trained_kernel != kernel_mode)

    # -- training (backend, post-execute) ----------------------------------

    def train_branch(self, pc: int, kind: BranchKind, target: int | None,
                     taken: bool, *, kernel_mode: bool) -> None:
        """Record an architecturally executed branch.

        Taken branches install/refresh their BTB entry; conditional
        direction updates the PHT; calls push the RSB (the matching pop
        happens in :meth:`predict_return_pop` / at ret execution).
        """
        if kind is BranchKind.CONDITIONAL:
            self.cond.update(pc, taken)
        if taken and target is not None:
            self.btb.train(pc, kind, target, kernel_mode=kernel_mode)

    def call_executed(self, return_address: int) -> None:
        self.rsb.push(return_address)

    def ret_executed(self) -> int | None:
        """Pop the RSB at ret execution; returns the predicted target."""
        return self.rsb.pop()

    # -- barriers ------------------------------------------------------------

    def ibpb(self) -> None:
        """Indirect Branch Prediction Barrier: flush all predictions."""
        self.btb.flush()
        self.rsb.clear()
        self.cond.clear()
