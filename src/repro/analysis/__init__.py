"""Analysis toolkit: disassembly, CFGs, gadget scanning, tracing,
software-mitigation codegen."""

from ..isa.hardening import (emit_lfence_guard, emit_retpoline,
                             emit_retpoline_call)
from .cfg import build_cfg, conditional_blocks, paths_after
from .corpus import (Corpus, CorpusFunction, DEFAULT_MIX, generate_corpus)
from .disasm import BasicBlock, DecodedInstr, Disassembler
from .gadgets import (ATTACKER_REGS, GadgetKind, GadgetReport, ScanSummary,
                      scan_corpus, scan_function, scan_path)
from .rewrite import (FunctionCode, RewriteItem, emit_function,
                      harden_function, insert_lfence_after_conditionals,
                      lift_function, retpoline_indirect_branches)
from .tracer import TraceEntry, Tracer

__all__ = [
    "ATTACKER_REGS",
    "BasicBlock",
    "Corpus",
    "CorpusFunction",
    "DEFAULT_MIX",
    "DecodedInstr",
    "Disassembler",
    "GadgetKind",
    "GadgetReport",
    "ScanSummary",
    "TraceEntry",
    "Tracer",
    "build_cfg",
    "conditional_blocks",
    "emit_lfence_guard",
    "emit_retpoline",
    "emit_retpoline_call",
    "emit_function",
    "FunctionCode",
    "RewriteItem",
    "generate_corpus",
    "harden_function",
    "insert_lfence_after_conditionals",
    "lift_function",
    "paths_after",
    "retpoline_indirect_branches",
    "scan_corpus",
    "scan_function",
    "scan_path",
]
