"""Fast-path execution gate.

The simulator ships two architecturally identical execution engines: the
naive per-step interpreter and a fast path built on compiled step thunks,
superblock compilation and translation memoization (see
``docs/performance.md``).  The ``PHANTOM_REPRO_FASTPATH`` environment
variable selects the engine at *construction* time — ``CPU``/
``MemorySystem`` read it once when built, so flipping the variable
mid-run has no effect on live objects.

Accepted values (case-insensitive):

* unset, empty, ``1`` / ``true`` / ``on`` / ``yes`` — fast path fully on;
* ``0`` / ``false`` / ``off`` / ``no`` — naive path (the
  differential-testing oracle);
* a comma-separated flag list selectively disabling fast-path layers
  while keeping the rest: ``superblocks=0`` (step thunks only, no
  superblock fusion), ``quiesce=0`` (ticked idle instead of
  event-skipped), or both (``superblocks=0,quiesce=0``).  Flag values
  are the on/off words above.

Anything else — an unknown flag such as the typo ``superblock=0``, a bad
flag value, a bare unknown word — raises :class:`ValueError` naming the
valid forms, so a misspelt setting can never silently select an engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "PHANTOM_REPRO_FASTPATH"

_DISABLED = ("0", "false", "off", "no")
_ENABLED = ("1", "true", "on", "yes")

#: Flags the selective syntax understands.
_FLAGS = ("superblocks", "quiesce")


@dataclass(frozen=True)
class FastpathConfig:
    """Parsed engine selection.

    ``enabled`` picks the engine; the layer flags only matter when the
    fast path is on (the naive engine never fuses superblocks, and both
    engines must agree on idle semantics — quiescence skipping is
    behaviour-neutral by construction, pinned by
    ``tests/pipeline/test_quiescence.py``).
    """

    enabled: bool = True
    superblocks: bool = True
    quiesce: bool = True


def parse_fastpath(value: str | None) -> FastpathConfig:
    """Parse one ``PHANTOM_REPRO_FASTPATH`` value (None = unset).

    Raises :class:`ValueError` on anything but the documented forms.
    """
    text = (value or "").strip().lower()
    if not text or text in _ENABLED:
        return FastpathConfig()
    if text in _DISABLED:
        return FastpathConfig(enabled=False, superblocks=False,
                              quiesce=False)
    flags = {}
    for part in text.split(","):
        name, eq, raw = (piece.strip() for piece in part.partition("="))
        if not eq or name not in _FLAGS or raw not in _DISABLED + _ENABLED:
            raise ValueError(
                f"{ENV_VAR}={value!r}: bad setting {part.strip()!r}; use "
                f"{'/'.join(_ENABLED)} (fast path), {'/'.join(_DISABLED)} "
                f"(naive engine), or comma-separated FLAG=VALUE with FLAG "
                f"in {', '.join(_FLAGS)} and VALUE one of those words")
        flags[name] = raw in _ENABLED
    return FastpathConfig(enabled=True, **flags)


def fastpath_config() -> FastpathConfig:
    """The engine configuration the environment selects."""
    return parse_fastpath(os.environ.get(ENV_VAR))


def fastpath_enabled() -> bool:
    """True unless ``PHANTOM_REPRO_FASTPATH`` explicitly disables it."""
    return fastpath_config().enabled
