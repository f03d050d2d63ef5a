"""Process-wide boot memos: every boot is still a fresh, bit-identical
machine, whether its artifacts were computed or looked up."""

import random
import re
import types

import pytest

from repro.core.matrix import CHANNELS, measure_channel
from repro.core.observe import TrainKind, TypeConfusionExperiment, VictimKind
import repro.kernel.machine as machine_mod
from repro.kernel import Kaslr, Machine, MachineSpec
from repro.kernel.kaslr import MODULES_BASE
from repro.kernel.layout import DATA_SIZE, IMAGE_SIZE, build_kernel_text
from repro.kernel.machine import SECRET_SIZE
from repro.kernel.modules import MODULE_SIZE, build_modules
from repro.memory import MemorySystem
from repro.pipeline import ALL_MICROARCHES, CPU, ZEN2
from repro.runner import derive_seed

#: The rng seed every machine of the ``table1_matrix`` benchmark
#: workload (``perfbench/run.py --seed 1``) boots with.
TABLE1_SEED = derive_seed(1, ("perfbench", "table1_matrix"))


def clear_memos():
    machine_mod._image_memo.clear()
    machine_mod._secret_memo.clear()


@pytest.fixture(autouse=True)
def empty_memos():
    clear_memos()
    yield
    clear_memos()


def reference_draw(seed):
    rng = random.Random(seed)
    secret = bytes(rng.randrange(256) for _ in range(SECRET_SIZE))
    return secret, rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, TABLE1_SEED])
def test_secret_and_rng_state_equal_an_uncached_draw(seed):
    secret, state = reference_draw(seed)
    for _ in range(2):                  # a miss, then a hit
        machine = Machine(ZEN2, rng_seed=seed)
        assert machine.secret_bytes() == secret
        assert machine.rng.getstate() == state
    assert list(machine_mod._secret_memo) == [seed]


class _DrawLog(random.Random):
    """A generator that logs every draw and every ``setstate``."""

    def __init__(self, seed):
        self.events = []
        super().__init__(seed)

    def random(self):
        self.events.append("draw")
        return super().random()

    def getrandbits(self, k):
        self.events.append("draw")
        return super().getrandbits(k)

    def setstate(self, state):
        self.events.append("setstate")
        super().setstate(state)


def test_nothing_draws_from_the_machine_rng_before_the_secret(monkeypatch):
    """Restoring the memoized state is only exact because the secret is
    the first draw from the generator the caches and the CPU share."""
    monkeypatch.setattr(machine_mod, "random",
                        types.SimpleNamespace(Random=_DrawLog))
    for uarch in ALL_MICROARCHES:
        machine = Machine(uarch, rng_seed=5)
        assert machine.rng.events == ["setstate"], uarch.name
        assert machine.mem.hier.l2._rng is machine.rng
        assert machine.cpu.rng is machine.rng


@pytest.mark.parametrize("uarch", ALL_MICROARCHES, ids=lambda u: u.name)
def test_building_the_hardware_draws_nothing(uarch):
    rng = random.Random(9)
    mem = MemorySystem(2 << 30, hierarchy=uarch.hierarchy, rng=rng)
    CPU(uarch, mem, rng=rng)
    assert rng.getstate() == random.Random(9).getstate()


def segments(image):
    return [(s.base, s.data) for s in image.segments]


def stable_symbols(symbols):
    """*symbols* without the process-wide sequence number that
    ``emit_retpoline`` appends to its labels, which differs between
    two builds in one process."""
    return {re.sub(r"^(__retpoline_[a-z]+)_\d+$", r"\1", name): va
            for name, va in symbols.items()}


@pytest.mark.parametrize("kaslr_seed", [0, 3, 11, 487, 2**32 + 1])
def test_kernel_images_equal_fresh_builds(kaslr_seed):
    image_base = Kaslr.randomize(kaslr_seed).image_base
    data_base = image_base + IMAGE_SIZE
    modules = build_modules(MODULES_BASE, data_base)
    kernel = build_kernel_text(image_base, modules.symbols, data_base)
    first = Machine(ZEN2, kaslr_seed=kaslr_seed)
    second = Machine(ZEN2, kaslr_seed=kaslr_seed)
    assert second.kernel is first.kernel
    assert second.modules is first.modules
    assert segments(first.kernel.image) == segments(kernel.image)
    assert first.kernel.symbols == kernel.symbols
    assert segments(first.modules.image) == segments(modules.image)
    assert stable_symbols(first.modules.symbols) == \
        stable_symbols(modules.symbols)


def test_different_kaslr_seeds_never_share_a_layout():
    machines = [Machine(ZEN2, kaslr_seed=seed) for seed in range(6)]
    bases = {m.kaslr.image_base for m in machines}
    assert len(bases) == len(machines)
    assert len({id(m.kernel) for m in machines}) == len(machines)
    for m in machines:
        assert m.kernel.base == m.kaslr.image_base
        assert m.kernel.sym("syscall_entry") - m.kernel.base == \
            machines[0].kernel.offset_of("syscall_entry")


def test_full_memos_are_dropped_wholesale(monkeypatch):
    monkeypatch.setattr(machine_mod, "BOOT_MEMO_SIZE", 2)
    for seed in (1, 2, 3):
        machine_mod._boot_secret(seed)
        machine_mod._kernel_images(seed << 21, (seed << 21) + IMAGE_SIZE)
    assert list(machine_mod._secret_memo) == [3]
    assert list(machine_mod._image_memo) == [
        (3 << 21, (3 << 21) + IMAGE_SIZE)]


def physical_bytes(machine, va, size):
    return machine.mem.phys.read(machine.mem.aspace.translate(va), size)


def test_two_boots_of_one_spec_are_bit_identical():
    """``MachineSpec``'s promise, across a memo miss and a memo hit."""
    spec = MachineSpec(uarch="zen3", kaslr_seed=TABLE1_SEED,
                       rng_seed=TABLE1_SEED)
    first, second = spec.boot(), spec.boot()
    for va, size in ((first.kaslr.image_base, IMAGE_SIZE),
                     (first.data_base, DATA_SIZE),
                     (MODULES_BASE, MODULE_SIZE)):
        assert physical_bytes(first, va, size) == \
            physical_bytes(second, va, size)
    assert first.mem.aspace._ranges == second.mem.aspace._ranges
    assert first.mem.aspace._ptes == second.mem.aspace._ptes
    assert first.rng.getstate() == second.rng.getstate()


def test_one_table1_cell_costs_equal_cycles_on_a_miss_and_a_hit():
    spec = MachineSpec(uarch="zen2", kaslr_seed=TABLE1_SEED,
                       rng_seed=TABLE1_SEED, syscall_noise_evictions=0)
    runs = []
    for miss in (True, False):
        outcomes = []
        for channel in CHANNELS:
            if miss:
                clear_memos()
            machine = spec.boot()
            experiment = TypeConfusionExperiment(
                machine, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
            outcomes.append((measure_channel(experiment, channel),
                             machine.cycles))
        runs.append(outcomes)
    assert runs[0] == runs[1]
    assert any(reached for reached, _ in runs[0])
