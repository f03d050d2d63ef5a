"""A finished job frees its machines by reference count.

Step closures capture their CPU and a machine's trap handler is its own
bound ``_trap``, so without :meth:`CPU.release` every finished job left
its machines (and each transient window) as cyclic garbage that only
the cyclic collector could free.  These tests pin the end-of-life rule:
one warm job of every campaign experiment leaves no cyclic garbage, a
failed job releases its machines too, releasing changes no manifest,
and a released machine refuses to run on instead of running without
its kernel.
"""

import gc

import pytest

from repro.core import (CovertExperiment, KaslrImageExperiment,
                        MdsLeakExperiment, PhysAddrExperiment,
                        PhysmapExperiment)
from repro.core.matrix import MatrixExperiment
from repro.errors import ReproError
from repro.fuzz.oracle import FuzzExperiment
from repro.fuzz.relational import ContractExperiment
from repro.kernel import Kaslr, MachineSpec
from repro.pipeline import CPU
from repro.runner import execute_job, manifest_fingerprint
from repro.workloads.suite import SuiteExperiment

SPEC = MachineSpec(uarch="zen2", kaslr_seed=1)
KASLR = Kaslr.randomize(1)
BASES = dict(machine=SPEC, image_base=KASLR.image_base,
             physmap_base=KASLR.physmap_base)

#: Every campaign experiment at a size where one job takes well under a
#: second; only the first job spec of each is run.
EXPERIMENTS = {
    "matrix": lambda: MatrixExperiment(uarches=("zen2",)),
    "kaslr-image": lambda: KaslrImageExperiment(machine=SPEC,
                                                chunk_candidates=4),
    "covert": lambda: CovertExperiment(machine=SPEC, n_bits=16,
                                       chunk_bits=16),
    "physmap": lambda: PhysmapExperiment(machine=SPEC,
                                         image_base=KASLR.image_base,
                                         chunk_candidates=4),
    "physaddr": lambda: PhysAddrExperiment(**BASES, buffer_va=0x7A00_0000,
                                           chunk_candidates=2),
    "mds-leak": lambda: MdsLeakExperiment(**BASES, n_bytes=4,
                                          chunk_bytes=4),
    "fuzz": lambda: FuzzExperiment(count=1),
    "contract": lambda: ContractExperiment(count=1),
    "suite": lambda: SuiteExperiment(machine=SPEC, runs=1),
}


def _first_job(name):
    experiment = EXPERIMENTS[name]()
    return experiment, experiment.job_specs()[0]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_one_warm_job_leaves_no_cyclic_garbage(name):
    experiment, spec = _first_job(name)
    assert execute_job(experiment, spec).ok   # warm imports and memos
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = execute_job(experiment, spec)
        unreachable = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result.ok, result.error
    assert unreachable == 0, kinds


@pytest.mark.parametrize("name", ["kaslr-image", "contract"])
def test_release_changes_no_job_manifest(name, monkeypatch):
    experiment, spec = _first_job(name)
    released = execute_job(experiment, spec)
    monkeypatch.setattr(CPU, "release", lambda self: None)
    kept = execute_job(experiment, spec)
    assert released.ok and kept.ok
    assert released.value == kept.value
    assert (manifest_fingerprint(released.manifest)
            == manifest_fingerprint(kept.manifest))


class BootThenFail:
    name = "boot-then-fail"
    machine = None

    def run_one(self, spec, ctx):
        self.machine = ctx.boot(SPEC)
        raise RuntimeError("after boot")


def test_failed_job_releases_its_machines():
    experiment = BootThenFail()
    _, spec = _first_job("matrix")
    result = execute_job(experiment, spec)
    assert result.error == "RuntimeError: after boot"
    assert experiment.machine.cpu.trap_handler is None


def test_released_machine_refuses_to_run_on():
    machine = SPEC.boot()
    machine.syscall(39)
    cycles, pmc = machine.cycles, machine.cpu.pmc.snapshot()
    machine.cpu.release()
    assert machine.cycles == cycles
    assert machine.cpu.pmc.snapshot() == pmc
    with pytest.raises(ReproError, match="unhandled trap 'syscall'"):
        machine.syscall(39)
