"""Span accounting, patching and timer ownership of the benchmark tracer.

Run from the root of a checkout::

    python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

import json
import os
import pickle
import signal
import time

import pytest

from repro.core import matrix
from repro.core.matrix import ASYMMETRIC_COMBOS, MatrixExperiment
from repro.fuzz import harness, oracle, relational
from repro.fuzz.contracts import contract_by_name
from repro.kernel import MachineSpec, SYS_GETPID
from repro.resilience import supervisor
from repro.runner import JobSpec, executor, run_campaign

import run
from tracer import Profile, StackSampler, Tracer


def _root_wall(profile: Profile, name: str = "root") -> float:
    [span] = [s for s in profile.spans if s[2] == name]
    return span[4] - span[3]


def _ancestors(profile: Profile, span) -> list[str]:
    by_id = {s[0]: s for s in profile.spans}
    names = []
    parent = by_id.get(span[1])
    while parent is not None:
        names.append(parent[2])
        parent = by_id.get(parent[1])
    return names


def test_self_time_subtracts_union_of_parallel_children():
    # Two jobs from different workers overlap by 2 s inside a 10 s root.
    spans = [((1, 1), None, "runner.run_campaign", 0.0, 10.0),
             ((2, 1), (1, 1), "runner.execute_job", 1.0, 6.0),
             ((3, 1), (1, 1), "runner.execute_job", 4.0, 8.0),
             ((2, 2), (2, 1), "kernel.boot", 1.5, 2.5)]
    profile = Profile(spans)
    assert profile.self_s[(1, 1)] == pytest.approx(3.0)
    assert profile.self_s[(2, 1)] == pytest.approx(4.0)
    assert profile.total_self_s == pytest.approx(10.0 + 2.0)
    assert profile.layer_self_s() == pytest.approx(
        {"runner": 11.0, "kernel": 1.0})


def test_syscall_self_times_sum_to_root_wall():
    machine = MachineSpec(uarch="zen3").boot()
    tracer = Tracer()
    with tracer.active():
        with tracer.span("root"):
            for _ in range(3):
                machine.syscall(SYS_GETPID)
    profile = Profile(tracer.spans)
    assert profile.count("kernel.syscall") == 3
    runs = [s for s in profile.spans if s[2] == "pipeline.run"]
    assert runs and all(_ancestors(profile, s)[0] == "kernel.syscall"
                        for s in runs)
    assert profile.self_of("kernel.syscall") < profile.inclusive_s(
        "kernel.syscall")
    assert profile.total_self_s == pytest.approx(_root_wall(profile),
                                                 rel=1e-9)


def test_check_pair_self_times_sum_to_root_wall():
    pair = relational.generate_pair(relational.pair_seed(0, 0), "mixed")
    tracer = Tracer()
    with tracer.active():
        with tracer.span("root"):
            relational.check_pair(pair, contract_by_name("no-if-leak"),
                                  ("zen2",))
    profile = Profile(tracer.spans)
    builds = [s for s in profile.spans if s[2] == "fuzz.build_world"]
    assert len(builds) == 4   # two variants x naive and fast engines
    assert all("fuzz.check_pair" in _ancestors(profile, s) for s in builds)
    assert profile.count("fuzz.run_world[naive]") == 2
    assert profile.count("fuzz.run_world[fast]") == 2
    assert profile.count("sidechannel.capture") == 4
    assert profile.total_self_s == pytest.approx(_root_wall(profile),
                                                 rel=1e-9)


def test_wrappers_patch_every_lookup_site_and_restore():
    originals = {
        "relational.build_world": relational.build_world,
        "relational.capture": relational.capture,
        "fetch": matrix.CHANNEL_MEASUREMENTS["fetch"],
        "execute_job": executor.execute_job,
    }
    tracer = Tracer()
    with tracer.active():
        assert relational.build_world is not originals[
            "relational.build_world"]
        assert relational.build_world is harness.build_world
        assert oracle.build_world is harness.build_world
        assert relational.capture is not originals["relational.capture"]
        assert matrix.CHANNEL_MEASUREMENTS["fetch"] is not originals["fetch"]
        assert supervisor.execute_job is executor.execute_job
        assert supervisor.execute_job is not originals["execute_job"]
        # The pool pickles execute_job by name: the wrapper must resolve
        # to itself so forked workers run it.
        assert pickle.loads(pickle.dumps(executor.execute_job)) \
            is executor.execute_job
    assert relational.build_world is originals["relational.build_world"]
    assert harness.build_world is originals["relational.build_world"]
    assert relational.capture is originals["relational.capture"]
    assert matrix.CHANNEL_MEASUREMENTS["fetch"] is originals["fetch"]
    assert supervisor.execute_job is originals["execute_job"]


class _Spin:
    name = "spin"

    def run_one(self, spec, ctx):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            pass


def test_job_timeout_fires_while_tracing():
    assert StackSampler.TIMER == signal.ITIMER_PROF
    spec = JobSpec.make("spin", (0,), 0)
    tracer = Tracer()
    with tracer.active():
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        start = time.monotonic()
        result = executor.execute_job(_Spin(), spec, timeout_s=0.3)
        took = time.monotonic() - start
    assert result.error_kind == "timeout"
    assert took < 5
    assert sum(tracer.sampler.counts.values()) > 0
    assert Profile(tracer.spans).count("runner.execute_job") == 1


def test_pooled_campaign_ships_worker_spans_and_counters():
    experiment = MatrixExperiment(uarches=("zen2",),
                                  combos=ASYMMETRIC_COMBOS[:2])
    tracer = Tracer()
    with tracer.active():
        with tracer.span("runner.run_campaign") as root:
            campaign = run_campaign(experiment, jobs=2,
                                    on_job_done=tracer.absorb)
    assert not campaign.failures
    profile = Profile(tracer.spans)
    jobs = [s for s in profile.spans if s[2] == "runner.execute_job"]
    assert len(jobs) == 2
    assert all(s[0][0] != os.getpid() and s[1] == root for s in jobs)
    assert profile.count("kernel.boot") == 6
    assert tracer.counts["instructions"] == \
        campaign.manifest["pmc"]["instructions"]
    assert sum(tracer.sampler.counts.values()) > 0


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == \
        list(run.WORKLOAD_NAMES)
