"""Fast-path execution gate.

The simulator ships two architecturally identical execution engines: the
naive per-step interpreter and a fast path built on one compiled-code
cache of step closures and translation memoization (see
``docs/performance.md``).  The ``PHANTOM_REPRO_FASTPATH`` environment
variable selects the engine at *construction* time — ``CPU``/
``MemorySystem`` read it once when built, so flipping the variable
mid-run has no effect on live objects.

Accepted values (case-insensitive):

* unset, empty, ``1`` / ``true`` / ``on`` / ``yes`` — the fast path;
* ``0`` / ``false`` / ``off`` / ``no`` — the naive path (the
  differential-testing oracle).

Anything else — including retired flags such as ``quiesce=…`` or a
bare unknown word — raises :class:`ValueError`
naming the valid forms, so a misspelt setting can never silently select
an engine.
"""

from __future__ import annotations

import os

ENV_VAR = "PHANTOM_REPRO_FASTPATH"

_DISABLED = ("0", "false", "off", "no")
_ENABLED = ("1", "true", "on", "yes")


def parse_fastpath(value: str | None) -> bool:
    """Parse one ``PHANTOM_REPRO_FASTPATH`` value (None = unset): True
    selects the fast path.

    Raises :class:`ValueError` on anything but the documented forms.
    """
    text = (value or "").strip().lower()
    if not text or text in _ENABLED:
        return True
    if text in _DISABLED:
        return False
    raise ValueError(
        f"{ENV_VAR}={value!r}: bad setting; use {'/'.join(_ENABLED)} "
        f"(fast path) or {'/'.join(_DISABLED)} (naive engine)")


def fastpath_enabled() -> bool:
    """True unless ``PHANTOM_REPRO_FASTPATH`` explicitly disables it."""
    return parse_fastpath(os.environ.get(ENV_VAR))
