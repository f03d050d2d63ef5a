"""``PHANTOM_REPRO_FASTPATH`` parsing: every documented form, and loud
failure on everything else (a typo must never silently pick an engine)."""

import pytest

from repro.fastpath import ENV_VAR, fastpath_enabled, parse_fastpath
from repro.memory import MemorySystem
from repro.pipeline import CPU, ZEN2


@pytest.mark.parametrize("value", [None, "", "  ", "1", "true", "ON",
                                   " yes "])
def test_enabling_values_select_the_full_fast_path(value):
    assert parse_fastpath(value) is True


@pytest.mark.parametrize("value", ["0", "false", "Off", "no"])
def test_disabling_values_select_the_naive_engine(value):
    assert parse_fastpath(value) is False


@pytest.mark.parametrize("value", [
    "superblock=0",            # the typo that used to run everything
    "superblocks=0",           # retired flags and their variants
    "superblocks=1",
    "superblocks=maybe",
    "superblocks=",
    "superblocks",
    "superblocks=0,",
    "quiesce=0",
    "quiesce=0,superblock=0",
    "fast",                    # unknown bare word
    "2",
])
def test_anything_else_fails_loudly(value):
    with pytest.raises(ValueError) as info:
        parse_fastpath(value)
    message = str(info.value)
    assert ENV_VAR in message
    assert repr(value) in message
    for word in ("0", "1"):
        assert word in message


def test_environment_is_parsed_the_same_way(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert fastpath_enabled()
    monkeypatch.setenv(ENV_VAR, "0")
    assert not fastpath_enabled()
    monkeypatch.setenv(ENV_VAR, "superblocks=0")
    with pytest.raises(ValueError, match="superblocks=0"):
        fastpath_enabled()


def test_typo_fails_at_cpu_construction(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "superblock=0")
    with pytest.raises(ValueError, match="superblock=0"):
        CPU(ZEN2, MemorySystem(1 << 20, fastpath=True), fastpath=True)
