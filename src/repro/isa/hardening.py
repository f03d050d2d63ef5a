"""Software mitigations from §2.4/§8.2, as code-generation helpers.

* :func:`emit_lfence_guard` — the compiler mitigation of placing a
  speculation barrier behind a conditional branch; the corpus generator
  uses it for "hardened" builds and :mod:`repro.analysis.gadgets`
  models its effect on speculative paths.
* :func:`emit_retpoline` — Turner's retpoline [64]: replace an indirect
  branch with a construct that captures speculation in a safe infinite
  loop.  The thunk works natively on the simulated CPU: the ``ret``'s
  RSB prediction points at the capture loop (whose ``lfence`` stops any
  transient progress) while the architectural target comes from the
  stack the thunk just rewrote.

These live beside the assembler rather than in :mod:`repro.analysis`
because the kernel builds its retpolined module code with them, and
booting a machine should not import the analysis toolkit.
"""

from __future__ import annotations

import itertools

from .assembler import Assembler
from .instructions import Reg

_counter = itertools.count()


def emit_lfence_guard(asm: Assembler) -> None:
    """Barrier after a conditional branch (call directly after jcc)."""
    asm.lfence()


def emit_retpoline(asm: Assembler, target_reg: Reg) -> dict[str, int]:
    """Emit a retpoline for ``jmp *target_reg`` at the current pc.

    Layout (as in the Linux/retpoline construction)::

        call  load_target
      capture:
        lfence            ; speculation lands here and is fenced
        jmp   capture
      load_target:
        mov   [rsp], reg  ; overwrite the return address
        ret               ; "returns" to the real target

    Returns the emitted labels (absolute addresses).
    """
    uid = next(_counter)
    call_label = f"__retpoline_load_{uid}"
    capture_label = f"__retpoline_capture_{uid}"
    start = asm.pc
    asm.call(call_label)
    capture = asm.label(capture_label)
    asm.lfence()
    asm.jmp(capture_label)
    load = asm.label(call_label)
    asm.store(Reg.RSP, 0, target_reg)
    asm.ret()
    return {"start": start, "capture": capture, "load_target": load}


def emit_retpoline_call(asm: Assembler, target_reg: Reg) -> dict[str, int]:
    """Retpoline for ``call *target_reg``: a direct call to a thunk that
    performs the retpolined jump, so the return address of the original
    call site is pushed first."""
    uid = next(_counter)
    thunk_label = f"__retpoline_thunk_{uid}"
    skip_label = f"__retpoline_skip_{uid}"
    start = asm.pc
    asm.call(thunk_label)
    asm.jmp(skip_label)
    asm.label(thunk_label)
    labels = emit_retpoline(asm, target_reg)
    asm.label(skip_label)
    return {"start": start, **labels}
