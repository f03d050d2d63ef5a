"""``PHANTOM_REPRO_FASTPATH`` parsing: every documented form, and loud
failure on everything else (a typo must never silently pick an engine)."""

import pytest

from repro.fastpath import (ENV_VAR, FastpathConfig, fastpath_config,
                            fastpath_enabled, parse_fastpath)
from repro.memory import MemorySystem
from repro.pipeline import CPU, ZEN2

FULL = FastpathConfig(enabled=True, superblocks=True, quiesce=True)
NAIVE = FastpathConfig(enabled=False, superblocks=False, quiesce=False)


@pytest.mark.parametrize("value", [None, "", "  ", "1", "true", "ON",
                                   " yes "])
def test_enabling_values_select_the_full_fast_path(value):
    assert parse_fastpath(value) == FULL


@pytest.mark.parametrize("value", ["0", "false", "Off", "no"])
def test_disabling_values_select_the_naive_engine(value):
    assert parse_fastpath(value) == NAIVE


@pytest.mark.parametrize("value, superblocks, quiesce", [
    ("superblocks=0", False, True),
    ("quiesce=0", True, False),
    ("superblocks=0,quiesce=0", False, False),
    (" superblocks = off , quiesce = no ", False, False),
    ("superblocks=1", True, True),
    ("quiesce=true,superblocks=0", False, True),
])
def test_flag_lists_disable_single_layers(value, superblocks, quiesce):
    assert parse_fastpath(value) == FastpathConfig(
        enabled=True, superblocks=superblocks, quiesce=quiesce)


@pytest.mark.parametrize("value", [
    "superblock=0",            # the typo that used to run everything
    "quiesce=0,superblock=0",  # one bad flag among good ones
    "superblocks=maybe",       # bad flag value
    "superblocks=",            # missing flag value
    "superblocks",             # flag without a value
    "fast",                    # unknown bare word
    "2",
    "superblocks=0,",          # empty list element
])
def test_anything_else_fails_loudly(value):
    with pytest.raises(ValueError) as info:
        parse_fastpath(value)
    message = str(info.value)
    assert ENV_VAR in message
    for word in ("superblocks", "quiesce", "0", "1"):
        assert word in message


def test_environment_is_parsed_the_same_way(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert fastpath_config() == FULL
    monkeypatch.setenv(ENV_VAR, "0")
    assert not fastpath_enabled()
    monkeypatch.setenv(ENV_VAR, "quiesce=0")
    assert fastpath_config() == FastpathConfig(quiesce=False)


def test_typo_fails_at_cpu_construction(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "superblock=0")
    with pytest.raises(ValueError, match="superblock=0"):
        CPU(ZEN2, MemorySystem(1 << 20, fastpath=True), fastpath=True)
