"""Serializable fuzz programs: the unit the generator, oracle and
shrinker all speak.

A :class:`FuzzProgram` is a tiny two-world program — user code, an
optional nano-kernel syscall stub, an initialized data region, initial
registers — described entirely by plain data so that it can cross the
process-pool boundary, be committed to ``tests/fuzz/corpus/`` as JSON,
and rebuild *bit-identical* images on every replay.  Instructions are
:class:`InstrSpec` records (mnemonic + operands by name) rather than
encoded bytes, which keeps corpus entries reviewable and lets the
shrinker drop or neutralize single instructions without byte surgery.

Branch targets and address immediates are **labels**, resolved at build
time:

* ``target`` — a label the instruction's displacement points at
  (``jmp``/``jcc``/``call``/``jmp8``);
* ``imm_label`` — a label whose absolute address becomes the ``mov_ri``
  immediate (how generated programs materialize indirect-branch
  targets).

Because every implemented encoding has a displacement-independent
length, the build runs two passes: pass one lays the program out with
placeholder immediates to learn the symbol table, pass two re-emits
with ``imm_label`` immediates resolved — layout identical by
construction.

Self-modifying behaviour is modelled as :class:`Patch` events: before
run *k*, the bytes of one item are rewritten in place (shorter
encodings are nop-padded), exercising ``CPU.invalidate_code`` exactly
as :meth:`repro.kernel.Machine.write_user` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from ..errors import ReproError
from ..isa import Assembler, Cond, Image, Instruction, Mnemonic, Reg, encode
from ..params import PAGE_SIZE

#: Schema tag written into corpus entries.
PROGRAM_SCHEMA = "phantom.fuzz-program/1"

#: Fixed fuzz-world layout (user addresses mirror the attacker process
#: of :mod:`repro.kernel.machine`, kernel addresses sit in their own
#: supervisor region so syscall-crossing programs change privilege).
USER_CODE = 0x0000_0000_1400_0000
USER_CODE_PAGES = 4
USER_DATA = 0x0000_0000_1500_0000
USER_DATA_PAGES = 2
USER_STACK_TOP = 0x0000_7FFF_E000_0000
USER_STACK_PAGES = 8
KERNEL_CODE = 0xFFFF_FFFF_9100_0000
KERNEL_CODE_PAGES = 2
KERNEL_STACK_TOP = 0xFFFF_FFFF_9200_0000
KERNEL_STACK_PAGES = 4

#: Secret-region convention for relational (contract) fuzzing: the tail
#: of the 512-byte initialized data blob is the secret input, the head
#: is public.  Pairs that agree on ``data[:SECRET_OFFSET]`` are
#: public-equivalent by construction (see repro.fuzz.relational).
SECRET_OFFSET = 256
SECRET_SIZE = 256

#: Mnemonics whose displacement is a label-resolved branch target.
_LABEL_BRANCHES = frozenset({Mnemonic.JMP, Mnemonic.JMP_SHORT, Mnemonic.JCC,
                             Mnemonic.CALL})


class FuzzProgramError(ReproError):
    """A program record is malformed or cannot be laid out."""


@dataclass(frozen=True)
class InstrSpec:
    """One instruction, operands by name (JSON- and pickle-friendly)."""

    mnemonic: str
    dest: str | None = None
    src: str | None = None
    base: str | None = None
    imm: int | None = None
    disp: int = 0
    cc: str | None = None
    target: str | None = None        # label for branch displacement
    imm_label: str | None = None     # label address -> imm (mov_ri)

    def to_dict(self) -> dict:
        out: dict = {"mnemonic": self.mnemonic}
        for name in ("dest", "src", "base", "imm", "cc", "target",
                     "imm_label"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.disp:
            out["disp"] = self.disp
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "InstrSpec":
        known = {"mnemonic", "dest", "src", "base", "imm", "disp", "cc",
                 "target", "imm_label"}
        unknown = set(doc) - known
        if unknown:
            raise FuzzProgramError(f"unknown InstrSpec fields: {unknown}")
        return cls(**doc)

    # -- resolution ------------------------------------------------------

    def _reg(self, name: str | None) -> Reg | None:
        if name is None:
            return None
        try:
            return Reg[name.upper()]
        except KeyError:
            raise FuzzProgramError(f"unknown register {name!r}") from None

    def resolve(self, symbols: dict[str, int] | None = None) -> Instruction:
        """Build the :class:`Instruction` (labels resolved via *symbols*,
        or placeholder-zero when *symbols* is None — the layout pass)."""
        try:
            mnemonic = Mnemonic(self.mnemonic)
        except ValueError:
            raise FuzzProgramError(
                f"unknown mnemonic {self.mnemonic!r}") from None
        cc = Cond[self.cc.upper()] if self.cc is not None else None
        imm = self.imm
        if self.imm_label is not None:
            if mnemonic is not Mnemonic.MOV_RI:
                raise FuzzProgramError(
                    f"imm_label only valid on mov_ri, not {self.mnemonic}")
            imm = 0 if symbols is None else symbols[self.imm_label]
        return Instruction(mnemonic, dest=self._reg(self.dest),
                           src=self._reg(self.src), base=self._reg(self.base),
                           imm=imm, disp=self.disp, cc=cc)

    @property
    def is_label_branch(self) -> bool:
        return self.target is not None


@dataclass(frozen=True)
class Item:
    """One program slot: the labels that land here plus one instruction.

    Labels belong to the *position*, not the instruction — the shrinker
    moves a removed item's labels onto its successor so every branch
    target keeps resolving.
    """

    instr: InstrSpec
    labels: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = self.instr.to_dict()
        if self.labels:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "Item":
        doc = dict(doc)
        labels = tuple(doc.pop("labels", ()))
        return cls(instr=InstrSpec.from_dict(doc), labels=labels)


@dataclass(frozen=True)
class Patch:
    """Rewrite item *index*'s bytes before run *before_run* (≥ 1)."""

    before_run: int
    index: int
    instr: InstrSpec

    def to_dict(self) -> dict:
        return {"before_run": self.before_run, "index": self.index,
                "instr": self.instr.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Patch":
        return cls(before_run=doc["before_run"], index=doc["index"],
                   instr=InstrSpec.from_dict(doc["instr"]))


@dataclass(frozen=True)
class FuzzProgram:
    """A complete, replayable fuzz input."""

    name: str
    seed: int
    shape: str
    user_items: tuple[Item, ...]
    kernel_items: tuple[Item, ...] = ()
    regs: tuple[tuple[str, int], ...] = ()
    data: bytes = b""
    patches: tuple[Patch, ...] = ()
    runs: int = 1
    max_instructions: int = 4000
    description: str = ""
    #: Secret-operand annotations: ``(item_index, secret_byte)`` pairs
    #: marking user items that load byte ``secret_byte`` of the secret
    #: region (``data[SECRET_OFFSET + secret_byte]``).  The relational
    #: pair generator writes them; the shrinker must keep them pointing
    #: at the surviving loads when items are dropped.
    secret_loads: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.user_items:
            raise FuzzProgramError("program has no user items")
        for index, secret_byte in self.secret_loads:
            if not 0 <= index < len(self.user_items):
                raise FuzzProgramError(
                    f"secret_loads index {index} out of range")
            if not 0 <= secret_byte < SECRET_SIZE:
                raise FuzzProgramError(
                    f"secret byte {secret_byte} outside the secret "
                    f"region (0..{SECRET_SIZE - 1})")
        if len(self.data) > USER_DATA_PAGES * PAGE_SIZE:
            raise FuzzProgramError("data exceeds the mapped data region")
        for patch in self.patches:
            if not 1 <= patch.before_run < self.runs:
                raise FuzzProgramError(
                    f"patch before_run {patch.before_run} outside "
                    f"1..{self.runs - 1}")
            if not 0 <= patch.index < len(self.user_items):
                raise FuzzProgramError(
                    f"patch index {patch.index} out of range")

    # -- derived properties ---------------------------------------------

    @property
    def uses_rdtsc(self) -> bool:
        """True when any executed instruction reads the cycle counter —
        such programs have *legitimately* timing-dependent architecture,
        so the no-speculation memory invariant does not apply."""
        specs = [item.instr for item in self.user_items]
        specs += [item.instr for item in self.kernel_items]
        specs += [patch.instr for patch in self.patches]
        return any(spec.mnemonic == Mnemonic.RDTSC.value for spec in specs)

    def initial_regs(self) -> dict[Reg, int]:
        return {Reg[name.upper()]: value for name, value in self.regs}

    # -- layout ----------------------------------------------------------

    def _assemble(self, items: tuple[Item, ...], base: int,
                  symbols: dict[str, int] | None) -> tuple:
        """One layout pass.  Returns ``(segment, symbols, item_pcs)``."""
        asm = Assembler(base)
        item_pcs: list[int] = []
        for item in items:
            for label in item.labels:
                asm.label(label)
            item_pcs.append(asm.pc)
            spec = item.instr
            if spec.is_label_branch:
                instr = spec.resolve(symbols)
                method = {Mnemonic.JMP: asm.jmp,
                          Mnemonic.JMP_SHORT: asm.jmp_short,
                          Mnemonic.CALL: asm.call}.get(instr.mnemonic)
                if instr.mnemonic is Mnemonic.JCC:
                    asm.jcc(instr.cc, spec.target)
                elif method is not None:
                    method(spec.target)
                else:
                    raise FuzzProgramError(
                        f"{spec.mnemonic} cannot take a label target")
            else:
                asm.emit(spec.resolve(symbols))
        segment, segment_symbols = asm.finish()
        return segment, segment_symbols, item_pcs


    def build(self) -> "BuiltProgram":
        """Lay the program out into loadable images (two passes: learn
        the symbol table, then resolve ``imm_label`` immediates)."""
        user_seg, user_syms, _ = self._assemble(self.user_items,
                                                USER_CODE, None)
        kernel_syms: dict[str, int] = {}
        if self.kernel_items:
            _, kernel_syms, _ = self._assemble(self.kernel_items,
                                               KERNEL_CODE, None)
        symbols = {**user_syms, **kernel_syms}

        user_seg, _, user_pcs = self._assemble(self.user_items, USER_CODE,
                                               symbols)
        if user_seg.end > USER_CODE + USER_CODE_PAGES * PAGE_SIZE:
            raise FuzzProgramError("user code exceeds the mapped region")
        user_image = Image()
        user_image.add(user_seg, user_syms)

        kernel_image = None
        if self.kernel_items:
            kernel_seg, _, _ = self._assemble(self.kernel_items,
                                              KERNEL_CODE, symbols)
            if kernel_seg.end > KERNEL_CODE + KERNEL_CODE_PAGES * PAGE_SIZE:
                raise FuzzProgramError(
                    "kernel stub exceeds the mapped region")
            kernel_image = Image()
            kernel_image.add(kernel_seg, kernel_syms)

        item_lengths = []
        for index, pc in enumerate(user_pcs):
            end = user_pcs[index + 1] if index + 1 < len(user_pcs) \
                else user_seg.end
            item_lengths.append(end - pc)
        return BuiltProgram(program=self, user_image=user_image,
                            kernel_image=kernel_image, symbols=symbols,
                            item_pcs=tuple(user_pcs),
                            item_lengths=tuple(item_lengths))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PROGRAM_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "shape": self.shape,
            "description": self.description,
            "runs": self.runs,
            "max_instructions": self.max_instructions,
            "regs": {name: value for name, value in self.regs},
            "data": self.data.hex(),
            "user_items": [item.to_dict() for item in self.user_items],
            "kernel_items": [item.to_dict() for item in self.kernel_items],
            "patches": [patch.to_dict() for patch in self.patches],
            **({"secret_loads": [list(entry)
                                 for entry in self.secret_loads]}
               if self.secret_loads else {}),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzProgram":
        if doc.get("schema") != PROGRAM_SCHEMA:
            raise FuzzProgramError(
                f"not a {PROGRAM_SCHEMA} document: {doc.get('schema')!r}")
        return cls(
            name=doc["name"], seed=doc["seed"], shape=doc["shape"],
            description=doc.get("description", ""),
            runs=doc.get("runs", 1),
            max_instructions=doc.get("max_instructions", 4000),
            regs=tuple(sorted(doc.get("regs", {}).items())),
            data=bytes.fromhex(doc.get("data", "")),
            user_items=tuple(Item.from_dict(d) for d in doc["user_items"]),
            kernel_items=tuple(Item.from_dict(d)
                               for d in doc.get("kernel_items", ())),
            patches=tuple(Patch.from_dict(d)
                          for d in doc.get("patches", ())),
            secret_loads=tuple((index, byte) for index, byte
                               in doc.get("secret_loads", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FuzzProgram":
        return cls.from_dict(json.loads(text))

    def with_(self, **changes) -> "FuzzProgram":
        return replace(self, **changes)


@dataclass(frozen=True)
class BuiltProgram:
    """A laid-out program: images, symbols, and per-item addresses."""

    program: FuzzProgram
    user_image: Image
    kernel_image: Image | None
    symbols: dict[str, int] = field(default_factory=dict)
    item_pcs: tuple[int, ...] = ()
    item_lengths: tuple[int, ...] = ()

    @property
    def entry(self) -> int:
        return USER_CODE

    def patch_bytes(self, patch: Patch) -> tuple[int, bytes]:
        """Encode *patch* for in-place rewrite: ``(address, bytes)``.

        The replacement must fit the patched item's span; shorter
        encodings are padded with single-byte nops so the following
        instruction keeps its address.
        """
        pc = self.item_pcs[patch.index]
        span = self.item_lengths[patch.index]
        spec = patch.instr
        instr = spec.resolve(self.symbols)
        if spec.is_label_branch:
            target = self.symbols[spec.target]
            placeholder = encode(instr)
            disp = target - (pc + len(placeholder))
            instr = replace(instr, disp=disp)
        raw = encode(instr)
        if len(raw) > span:
            raise FuzzProgramError(
                f"patch at item {patch.index} is {len(raw)} bytes, "
                f"item span is {span}")
        return pc, raw + b"\x90" * (span - len(raw))
