"""Oracle: divergence classification, seed derivation, counterexamples."""

import pytest

from repro.fuzz import (Divergence, Verdict, check_program, check_range,
                        generate, load_program, program_seed,
                        save_counterexample)


def test_clean_programs_pass_the_full_oracle():
    for index in range(4):
        verdict = check_program(generate(program_seed(0, index)))
        assert verdict.ok, \
            "\n".join(str(d) for d in verdict.divergences)


def test_program_seed_depends_only_on_campaign_seed_and_index():
    assert program_seed(0, 3) == program_seed(0, 3)
    assert program_seed(0, 3) != program_seed(0, 4)
    assert program_seed(0, 3) != program_seed(1, 3)


def test_check_range_matches_per_index_generation():
    verdicts = check_range(9, 2, 5)
    assert [v.program for v in verdicts] == \
        [generate(program_seed(9, index)) for index in range(2, 5)]


def test_divergence_klass_keeps_kind_uarch_and_leading_token():
    engine = Divergence("engine", "Zen 2",
                        "cycles: 10 != 11")
    invariant = Divergence("invariant", "Zen 3",
                           "[stale-cache] decode-cache entry at 0x14000000")
    assert engine.klass == "engine/Zen 2/cycles"
    assert invariant.klass == "invariant/Zen 3/[stale-cache]"
    assert str(engine) == "engine/Zen 2: cycles: 10 != 11"


def test_verdict_classes_sorted_and_unique():
    program = generate(1)
    verdict = Verdict(program, [
        Divergence("engine", "Zen 2", "cycles: 1 != 2"),
        Divergence("engine", "Zen 2", "cycles: 3 != 4"),
        Divergence("engine", "Zen 2", "regs: a != b"),
    ])
    assert verdict.classes == ("engine/Zen 2/cycles", "engine/Zen 2/regs")
    assert not verdict.ok
    doc = verdict.to_dict()
    assert doc["ok"] is False and len(doc["divergences"]) == 3


def test_counterexample_round_trips_through_disk(tmp_path):
    program = generate(55)
    path = save_counterexample(program, ["engine/Zen 2: cycles: 1 != 2"],
                               tmp_path, shrink_checks=17)
    assert path.name == f"counterexample-{program.name}.json"
    assert load_program(path) == program


def test_oracle_reports_engine_divergence(monkeypatch):
    """Fault-inject the fast engine: a cycle perturbation must surface
    as an engine-class divergence on every µarch."""
    import repro.fuzz.oracle as oracle_module

    real_run_world = oracle_module.run_world

    def skewed_run_world(world):
        observables = real_run_world(world)
        if world.cpu._fastpath:
            object.__setattr__(observables, "cycles",
                               observables.cycles + 1)
        return observables

    monkeypatch.setattr(oracle_module, "run_world", skewed_run_world)
    verdict = check_program(generate(3))
    assert not verdict.ok
    engine = [d for d in verdict.divergences if d.kind == "engine"]
    assert {d.uarch for d in engine} == {"Zen 2", "Zen 3"}
    assert all("cycles" in d.detail for d in engine)


def test_pmc_sink_watches_only_the_naive_run(monkeypatch):
    """The monotonicity sink is attached around the naive run alone, so
    the fast run stays untraced and keeps its compiled dispatch."""
    import repro.fuzz.oracle as oracle_module
    from repro.telemetry import TRACE

    real_run_world = oracle_module.run_world
    seen = []

    def spying_run_world(world):
        seen.append((world.cpu._fastpath, TRACE.enabled))
        return real_run_world(world)

    monkeypatch.setattr(oracle_module, "run_world", spying_run_world)
    assert check_program(generate(3)).ok
    assert seen == [(False, True), (True, False)] * 2
    assert not TRACE.enabled


def test_oracle_reports_a_decreasing_pmc_counter(monkeypatch):
    """A step that lowers a PMC counter surfaces as a pmc-monotone
    invariant divergence on every µarch."""
    from repro.pipeline import CPU, PMC

    real_resolve = CPU._resolve_and_train
    slot = PMC.index("instructions")

    def decreasing_resolve(self, *args):
        real_resolve(self, *args)
        self._steps = getattr(self, "_steps", 0) + 1
        if self._steps == 3:
            self.pmc.counts[slot] -= 2

    monkeypatch.setattr(CPU, "_resolve_and_train", decreasing_resolve)
    verdict = check_program(generate(3))
    monotone = [d for d in verdict.divergences
                if "pmc-monotone" in d.detail]
    assert {d.uarch for d in monotone} == {"Zen 2", "Zen 3"}
    assert all("instructions decreased" in d.detail for d in monotone)
