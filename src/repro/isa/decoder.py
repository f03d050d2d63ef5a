"""Decode x86-64 bytes back into :class:`Instruction` objects.

The decoder is the exact inverse of :mod:`repro.isa.encoder` over the
implemented subset.  Decoding arbitrary (e.g. speculatively fetched)
bytes may raise :class:`DecodeError`; the pipeline's ID unit treats such
bytes as undecodable garbage, which is what a real decoder does with a
phantom target that holds data rather than code.
"""

from __future__ import annotations

import struct
from dataclasses import replace

from ..errors import DecodeError, TruncatedError
from .encoder import NOPL_SEQUENCES
from .instructions import Cond, Instruction, Mnemonic, Reg

_NOPL_BY_BYTES = sorted(NOPL_SEQUENCES.items(), key=lambda kv: -kv[0])


class _Cursor:
    """Byte reader with bounds checking over an immutable buffer."""

    def __init__(self, buf: bytes, offset: int) -> None:
        self._buf = buf
        self._start = offset
        self._pos = offset

    def u8(self) -> int:
        if self._pos >= len(self._buf):
            raise TruncatedError("truncated instruction")
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def peek(self) -> int:
        if self._pos >= len(self._buf):
            raise TruncatedError("truncated instruction")
        return self._buf[self._pos]

    def s8(self) -> int:
        return struct.unpack("<b", bytes([self.u8()]))[0]

    def s32(self) -> int:
        raw = self._take(4)
        return struct.unpack("<i", raw)[0]

    def u64(self) -> int:
        raw = self._take(8)
        return struct.unpack("<Q", raw)[0]

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            raise TruncatedError("truncated instruction")
        raw = self._buf[self._pos:self._pos + n]
        self._pos += n
        return raw

    @property
    def length(self) -> int:
        return self._pos - self._start


def _reg(num: int) -> Reg:
    return Reg(num)


def _mem_operand(cur: _Cursor, rex_r: int, rex_b: int) -> tuple[Reg, Reg, int]:
    """Parse a mod=10 ``[base+disp32]`` ModRM.  Returns (reg, base, disp)."""
    modrm = cur.u8()
    mod = modrm >> 6
    if mod != 0b10:
        raise DecodeError(f"unsupported ModRM mod={mod:#b} for memory operand")
    reg = _reg(((modrm >> 3) & 7) | (rex_r << 3))
    rm = modrm & 7
    if rm == 4:
        sib = cur.u8()
        if sib != 0x24:
            raise DecodeError(f"unsupported SIB byte {sib:#x}")
        base = _reg(4 | (rex_b << 3))
    else:
        base = _reg(rm | (rex_b << 3))
    disp = cur.s32()
    return reg, base, disp


def _reg_operand(cur: _Cursor, rex_r: int, rex_b: int) -> tuple[int, Reg]:
    """Parse a mod=11 register-direct ModRM.  Returns (reg_field, rm_reg)."""
    modrm = cur.u8()
    if modrm >> 6 != 0b11:
        raise DecodeError("expected register-direct ModRM")
    reg_field = ((modrm >> 3) & 7) | (rex_r << 3)
    rm = _reg((modrm & 7) | (rex_b << 3))
    return reg_field, rm


_RR_OPCODES = {
    0x89: Mnemonic.MOV_RR,
    0x01: Mnemonic.ADD_RR,
    0x29: Mnemonic.SUB_RR,
    0x31: Mnemonic.XOR_RR,
    0x09: Mnemonic.OR_RR,
    0x39: Mnemonic.CMP_RR,
}

_GROUP81 = {0: Mnemonic.ADD_RI, 5: Mnemonic.SUB_RI, 4: Mnemonic.AND_RI,
            7: Mnemonic.CMP_RI}


#: Bytes of the window that keys the decode memo.  At least the longest
#: encoding in the subset (10 bytes, ``mov r64, imm64``), so decoding
#: the window equals decoding the whole buffer; 16 is the pipeline's
#: fetch window, so its raw fetches key the memo without a copy.
_MEMO_WINDOW = 16

#: Bound on the process-wide decode memo, in distinct windows.  The
#: eight worlds of a contract-fuzz pair share ~130 windows, and a KASLR
#: break on one booted machine decodes ~3,900; the memo is dropped
#: wholesale when full, so it never pins more than that working set.
DECODE_MEMO_SIZE = 4096

_memo: dict[bytes, Instruction] = {}


def decode(buf: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction starting at ``buf[offset]``.

    Returns an :class:`Instruction` with ``length`` set to the number of
    bytes consumed.  Raises :class:`DecodeError` on invalid encodings.

    Decoding is a pure function of the bytes, so successful decodes are
    memoized process-wide on the byte window at *offset* (instructions
    are immutable and safe to share between CPUs).  Errors are never
    memoized: invalid or truncated bytes raise on every call.
    """
    window = bytes(buf[offset:offset + _MEMO_WINDOW])
    instr = _memo.get(window)
    if instr is None:
        instr = _decode(window, 0)
        if len(_memo) >= DECODE_MEMO_SIZE:
            _memo.clear()
        _memo[window] = instr
    return instr


def _decode(buf: bytes, offset: int) -> Instruction:
    """Uncached :func:`decode`."""
    for length, seq in _NOPL_BY_BYTES:
        available = buf[offset:offset + length]
        if available == seq:
            return Instruction(Mnemonic.NOPL, imm=length, length=length)
        if len(available) < length and available \
                and seq.startswith(available):
            raise TruncatedError("truncated multi-byte nop")

    cur = _Cursor(buf, offset)
    rex = 0
    first = cur.u8()
    if 0x40 <= first <= 0x4F:
        rex = first
        first = cur.u8()
    rex_w = (rex >> 3) & 1
    rex_r = (rex >> 2) & 1
    rex_b = rex & 1

    def done(instr: Instruction) -> Instruction:
        # Strict decoding: the consumed bytes must be the canonical
        # encoding (rejects e.g. meaningless REX prefixes), so that
        # decode is the exact inverse of encode over the subset.
        out = replace(instr, length=cur.length)
        from .encoder import encode

        consumed = buf[offset:offset + cur.length]
        if encode(instr) != consumed:
            raise DecodeError(f"non-canonical encoding: {consumed.hex()}")
        return out

    if first == 0x90 and not rex:
        return done(Instruction(Mnemonic.NOP))
    if first == 0xE9:
        return done(Instruction(Mnemonic.JMP, disp=cur.s32()))
    if first == 0xEB:
        return done(Instruction(Mnemonic.JMP_SHORT, disp=cur.s8()))
    if first == 0xE8:
        return done(Instruction(Mnemonic.CALL, disp=cur.s32()))
    if first == 0xC3:
        return done(Instruction(Mnemonic.RET))
    if first == 0xF4:
        return done(Instruction(Mnemonic.HLT))
    if first == 0xFF:
        reg_field, rm = _reg_operand(cur, 0, rex_b)
        if reg_field == 4:
            return done(Instruction(Mnemonic.JMP_REG, dest=rm))
        if reg_field == 2:
            return done(Instruction(Mnemonic.CALL_REG, dest=rm))
        if reg_field == 0 and rex_w:
            return done(Instruction(Mnemonic.INC, dest=rm))
        if reg_field == 1 and rex_w:
            return done(Instruction(Mnemonic.DEC, dest=rm))
        raise DecodeError(f"unsupported FF /{reg_field}")
    if first == 0xF7:
        if not rex_w:
            raise DecodeError("F7 group requires REX.W")
        reg_field, rm = _reg_operand(cur, 0, rex_b)
        if reg_field == 3:
            return done(Instruction(Mnemonic.NEG, dest=rm))
        if reg_field == 2:
            return done(Instruction(Mnemonic.NOT, dest=rm))
        raise DecodeError(f"unsupported F7 /{reg_field}")
    if first in (0x85, 0x87):
        if not rex_w:
            raise DecodeError("64-bit op requires REX.W")
        reg_field, rm = _reg_operand(cur, rex_r, rex_b)
        mnemonic = Mnemonic.TEST_RR if first == 0x85 else Mnemonic.XCHG_RR
        return done(Instruction(mnemonic, dest=rm, src=_reg(reg_field)))
    if 0x50 <= first <= 0x57:
        return done(Instruction(Mnemonic.PUSH, dest=_reg((first & 7) | (rex_b << 3))))
    if 0x58 <= first <= 0x5F:
        return done(Instruction(Mnemonic.POP, dest=_reg((first & 7) | (rex_b << 3))))
    if 0xB8 <= first <= 0xBF:
        if not rex_w:
            raise DecodeError("mov reg, imm64 requires REX.W")
        dest = _reg((first & 7) | (rex_b << 3))
        return done(Instruction(Mnemonic.MOV_RI, dest=dest, imm=cur.u64()))
    if first == 0x8B:
        if not rex_w:
            raise DecodeError("mov reg, [mem] requires REX.W")
        reg, base, disp = _mem_operand(cur, rex_r, rex_b)
        return done(Instruction(Mnemonic.MOV_RM, dest=reg, base=base, disp=disp))
    if first == 0x8A:
        if rex_w:
            raise DecodeError("byte load must not set REX.W")
        reg, base, disp = _mem_operand(cur, rex_r, rex_b)
        return done(Instruction(Mnemonic.MOVB_RM, dest=reg, base=base, disp=disp))
    if first == 0x8D:
        if not rex_w:
            raise DecodeError("lea requires REX.W")
        reg, base, disp = _mem_operand(cur, rex_r, rex_b)
        return done(Instruction(Mnemonic.LEA, dest=reg, base=base, disp=disp))
    if first == 0x89:
        if not rex_w:
            raise DecodeError("mov requires REX.W")
        if cur.peek() >> 6 == 0b11:
            reg_field, rm = _reg_operand(cur, rex_r, rex_b)
            return done(Instruction(Mnemonic.MOV_RR, dest=rm, src=_reg(reg_field)))
        reg, base, disp = _mem_operand(cur, rex_r, rex_b)
        return done(Instruction(Mnemonic.MOV_MR, src=reg, base=base, disp=disp))
    if first in _RR_OPCODES and first != 0x89:
        if not rex_w:
            raise DecodeError("64-bit ALU op requires REX.W")
        reg_field, rm = _reg_operand(cur, rex_r, rex_b)
        return done(Instruction(_RR_OPCODES[first], dest=rm, src=_reg(reg_field)))
    if first == 0x81:
        if not rex_w:
            raise DecodeError("group-81 op requires REX.W")
        reg_field, rm = _reg_operand(cur, 0, rex_b)
        if reg_field not in _GROUP81:
            raise DecodeError(f"unsupported 81 /{reg_field}")
        return done(Instruction(_GROUP81[reg_field], dest=rm, imm=cur.s32()))
    if first == 0xC1:
        if not rex_w:
            raise DecodeError("shift requires REX.W")
        reg_field, rm = _reg_operand(cur, 0, rex_b)
        if reg_field == 4:
            return done(Instruction(Mnemonic.SHL_RI, dest=rm, imm=cur.u8()))
        if reg_field == 5:
            return done(Instruction(Mnemonic.SHR_RI, dest=rm, imm=cur.u8()))
        raise DecodeError(f"unsupported C1 /{reg_field}")
    if first == 0x0F:
        second = cur.u8()
        if 0x80 <= second <= 0x8F:
            return done(Instruction(Mnemonic.JCC, cc=Cond(second & 0xF),
                                    disp=cur.s32()))
        if second == 0xAE:
            third = cur.u8()
            if third == 0xE8:
                return done(Instruction(Mnemonic.LFENCE))
            if third == 0xF0:
                return done(Instruction(Mnemonic.MFENCE))
            raise DecodeError(f"unsupported 0F AE {third:#x}")
        if second == 0x05:
            return done(Instruction(Mnemonic.SYSCALL))
        if second == 0x07:
            if not rex_w:
                raise DecodeError("sysret requires REX.W")
            return done(Instruction(Mnemonic.SYSRET))
        if second == 0x31:
            return done(Instruction(Mnemonic.RDTSC))
        if second == 0x0B:
            return done(Instruction(Mnemonic.UD2))
        if second == 0xAF:
            if not rex_w:
                raise DecodeError("imul requires REX.W")
            reg_field, rm = _reg_operand(cur, rex_r, rex_b)
            return done(Instruction(Mnemonic.IMUL_RR, dest=_reg(reg_field),
                                    src=rm))
        if 0x40 <= second <= 0x4F:
            if not rex_w:
                raise DecodeError("cmov requires REX.W")
            reg_field, rm = _reg_operand(cur, rex_r, rex_b)
            return done(Instruction(Mnemonic.CMOV, dest=_reg(reg_field),
                                    src=rm, cc=Cond(second & 0xF)))
        raise DecodeError(f"unsupported two-byte opcode 0F {second:#x}")
    raise DecodeError(f"unsupported opcode {first:#x}")
