"""x86-64 subset ISA: instruction model, encoder/decoder, assembler, µops."""

from .assembler import Assembler, Image, Segment
from .decoder import decode
from .encoder import NOPL_SEQUENCES, encode, encode_with_length
from .instructions import BranchKind, Cond, Instruction, Mnemonic, Reg
from .semantics import (ArchState, ExecResult, Flags, compile_executor,
                        condition_met, execute)
from .uops import Uop, UopKind, crack, uop_count

__all__ = [
    "Assembler",
    "ArchState",
    "BranchKind",
    "Cond",
    "ExecResult",
    "Flags",
    "Image",
    "Instruction",
    "Mnemonic",
    "NOPL_SEQUENCES",
    "Reg",
    "Segment",
    "Uop",
    "UopKind",
    "compile_executor",
    "condition_met",
    "crack",
    "decode",
    "encode",
    "encode_with_length",
    "execute",
    "uop_count",
]
