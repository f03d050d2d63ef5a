"""Timer jitter and threshold calibration."""

import random

import pytest

from repro.kernel import Machine
from repro.params import PAGE_SIZE
from repro.pipeline import ZEN2
from repro.sidechannel import Timer, calibrate_threshold

DATA_VA = 0x0000_0000_2000_0000


@pytest.fixture(scope="module")
def machine():
    m = Machine(ZEN2)
    m.map_user(DATA_VA, PAGE_SIZE)
    return m


def test_jitter_is_seeded(machine):
    a = Timer(machine, rng=random.Random(1))
    b = Timer(machine, rng=random.Random(1))
    machine.user_touch(DATA_VA)
    assert a.time_load(DATA_VA) == b.time_load(DATA_VA)


def test_hit_vs_miss_distinguishable(machine):
    timer = Timer(machine)
    machine.user_touch(DATA_VA)
    hits = [timer.time_load(DATA_VA) for _ in range(16)]
    misses = []
    for _ in range(16):
        machine.clflush(DATA_VA)
        misses.append(timer.time_load(DATA_VA))
    assert min(misses) > max(hits)


def test_calibrate_threshold_separates(machine):
    timer = Timer(machine)
    threshold = calibrate_threshold(timer, DATA_VA)
    machine.user_touch(DATA_VA)
    assert timer.time_load(DATA_VA) < threshold
    machine.clflush(DATA_VA)
    assert timer.time_load(DATA_VA) > threshold


@pytest.mark.parametrize("rounds", [0, -1])
def test_calibration_rejects_fewer_than_one_round(machine, rounds):
    cycles = machine.cycles
    with pytest.raises(ValueError, match="rounds"):
        calibrate_threshold(Timer(machine), DATA_VA, rounds=rounds)
    assert machine.cycles == cycles


def test_exec_calibration(machine):
    code_va = 0x0000_0000_2100_0000
    machine.map_user(code_va, PAGE_SIZE)
    timer = Timer(machine)
    threshold = calibrate_threshold(timer, code_va, exec_=True)
    machine.user_exec_touch(code_va)
    assert timer.time_exec(code_va) < threshold


def test_sibling_load_reduces_sigma():
    quiet = Machine(ZEN2)
    loaded = Machine(ZEN2, sibling_load=True)
    assert Timer(loaded).sigma < Timer(quiet).sigma


def test_time_call(machine):
    timer = Timer(machine)
    elapsed = timer.time_call(lambda: machine.user_touch(DATA_VA))
    assert elapsed >= 0
