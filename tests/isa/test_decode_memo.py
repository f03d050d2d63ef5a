"""The process-wide decode memo is invisible: a memoized ``decode``
equals uncached decoding byte window for byte window, errors are never
served from the memo, and rewritten bytes decode afresh."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodeError, TruncatedError
from repro.fuzz import iter_corpus, iter_pair_corpus, load_pair
from repro.isa import Instruction, Mnemonic, Reg, decode, encode
from repro.isa import decoder

CORPUS_DIR = Path(__file__).parents[1] / "fuzz" / "corpus"


def _corpus_code() -> list[bytes]:
    """Every code segment (and patch) of the fuzz corpus, the relational
    pair and violation entries included."""
    programs = [program for _, program in iter_corpus(CORPUS_DIR)]
    programs += [load_pair(path).program
                 for path, _ in iter_pair_corpus(CORPUS_DIR)]
    blobs = []
    for program in programs:
        built = program.build()
        images = [built.user_image, built.kernel_image]
        blobs += [seg.data for image in images if image is not None
                  for seg in image.segments]
        blobs += [built.patch_bytes(patch)[1] for patch in program.patches]
    return blobs


CORPUS_CODE = _corpus_code()


def _outcome(fn, buf: bytes, offset: int):
    try:
        return fn(buf, offset)
    except DecodeError as exc:
        return type(exc)


@pytest.fixture(autouse=True)
def empty_memo():
    decoder._memo.clear()
    yield
    decoder._memo.clear()


def test_corpus_has_code():
    assert len(CORPUS_CODE) >= 10


def test_memoized_decode_matches_uncached_over_the_corpus():
    decoded = 0
    for blob in CORPUS_CODE:
        for offset in range(len(blob)):
            expected = _outcome(decoder._decode, blob, offset)
            # First call fills the memo, second is served from it.
            assert _outcome(decode, blob, offset) == expected
            assert _outcome(decode, blob, offset) == expected
            decoded += isinstance(expected, Instruction)
    assert decoded > 100
    assert decoder._memo


@settings(max_examples=300, derandomize=True)
@given(prefix=st.sampled_from(CORPUS_CODE).flatmap(
           lambda blob: st.integers(0, len(blob)).map(
               lambda start: blob[start:start + 12])),
       noise=st.binary(max_size=12), offset=st.integers(0, 8))
def test_memoized_decode_matches_uncached_on_drawn_windows(prefix, noise,
                                                           offset):
    for buf in (prefix + noise, noise + prefix, noise):
        expected = _outcome(decoder._decode, buf, offset)
        assert _outcome(decode, buf, offset) == expected
        assert _outcome(decode, buf, offset) == expected


@pytest.mark.parametrize("raw, error", [
    (b"\x06", DecodeError),                  # unsupported opcode
    (b"\x41\x90", DecodeError),              # non-canonical REX
    (b"\x48\xb8\x01\x02", TruncatedError),   # mov imm64 cut short
    (b"\x0f\x1f\x44", TruncatedError),       # multi-byte nop cut short
])
def test_errors_raise_on_every_call(raw, error):
    for _ in range(3):
        with pytest.raises(error):
            decode(raw)
    assert not decoder._memo


def test_truncated_window_then_full_window():
    full = encode(Instruction(Mnemonic.MOV_RI, dest=Reg.RAX,
                              imm=0x1122334455667788))
    with pytest.raises(TruncatedError):
        decode(full[:5])
    assert decode(full).imm == 0x1122334455667788
    with pytest.raises(TruncatedError):
        decode(full[:5])


def test_patched_bytes_at_the_same_pc_decode_afresh():
    """Self-modifying code: the memo is keyed on bytes, not addresses,
    so rewriting an instruction in place yields the new instruction."""
    old = encode(Instruction(Mnemonic.ADD_RI, dest=Reg.RBX, imm=1))
    new = encode(Instruction(Mnemonic.SUB_RI, dest=Reg.RBX, imm=1))
    assert len(old) == len(new)
    code = bytearray(b"\x90" * 4 + old + b"\xc3")
    before = decode(bytes(code), 4)
    code[4:4 + len(new)] = new
    after = decode(bytes(code), 4)
    assert before.mnemonic is Mnemonic.ADD_RI
    assert after.mnemonic is Mnemonic.SUB_RI
    assert decode(bytes(code), 4) == after


def test_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(decoder, "DECODE_MEMO_SIZE", 8)
    blob = CORPUS_CODE[0]
    for offset in range(len(blob)):
        assert _outcome(decode, blob, offset) == \
            _outcome(decoder._decode, blob, offset)
        assert len(decoder._memo) <= 8
