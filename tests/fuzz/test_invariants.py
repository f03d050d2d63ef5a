"""Invariant checkers: each one actually fires on a violated state.

The positive direction ("clean runs have no violations") is covered by
the oracle tests and the corpus replay; here each checker is pointed at
a state known to be wrong and must say so.
"""

from repro.fuzz import Observables, generate
from repro.fuzz.harness import build_world, run_world
from repro.fuzz.invariants import (PMCMonotoneHook, check_cache_coherence,
                                   check_episodes,
                                   check_no_transient_architectural_effect,
                                   check_pmc_episode_consistency,
                                   despeculated)
from repro.params import PAGE_SHIFT
from repro.pipeline import by_name
from repro.telemetry import TRACE


def run_fast_world(seed):
    world = build_world(generate(seed), by_name("zen2"), fastpath=True)
    run_world(world)
    return world


def observables_with(episodes=(), pmc=()):
    return Observables(outcome="halt", pc=0, kernel_mode=False,
                       regs=(0,) * 16, flags=(False,) * 4, cycles=0,
                       instructions=0, pmc=tuple(pmc),
                       episodes=tuple(episodes), data_sha="")


def episode(source_pc=0x14000000, predicted="jcc", actual="jcc",
            target=0x14000040, reach="FETCH", frontend=True,
            cycle=10):
    return (source_pc, predicted, actual, target, reach, frontend,
            False, False, cycle)


def test_despeculated_closes_every_transient_window():
    uarch = by_name("zen2")
    nospec = despeculated(uarch)
    assert nospec.backend_window_uops == 0
    assert nospec.frontend_resteer_latency == nospec.issue_latency


def test_transient_check_skips_rdtsc_programs():
    from repro.fuzz import FuzzProgram, InstrSpec, Item
    program = FuzzProgram(
        name="t", seed=0, shape="mixed",
        user_items=(Item(InstrSpec("rdtsc")), Item(InstrSpec("hlt"))))
    fake_reference = observables_with()
    assert check_no_transient_architectural_effect(
        program, by_name("zen2"), fake_reference) == []


def test_clean_world_has_coherent_caches():
    world = run_fast_world(0)
    assert world.cpu._decode_cache          # the fast path was exercised
    assert check_cache_coherence(world) == []


def test_stale_decode_cache_is_detected():
    world = run_fast_world(0)
    # Rewrite code behind the engine's back: no invalidate_code call.
    pc = max(world.cpu._decode_cache)       # last pc: the hlt / exit area
    pa = world.mem.aspace.translate_noperm(pc)
    world.mem.phys.write(pa, b"\x48\x01\xc8")   # now an add_rr
    violations = check_cache_coherence(world)
    assert any(v.invariant == "stale-cache" and f"{pc:#x}" in v.detail
               for v in violations)


def test_unindexed_cache_entry_is_detected():
    world = run_fast_world(0)
    cpu = world.cpu
    pc = next(iter(cpu._decode_cache))
    page = pc >> PAGE_SHIFT
    cpu._code_pages[page] = {p for p in cpu._code_pages[page] if p != pc}
    violations = check_cache_coherence(world)
    assert any("not indexed" in v.detail for v in violations)


def test_unindexed_compiled_entry_is_detected():
    world = run_fast_world(0)
    cpu = world.cpu
    # A step closure whose pc left the page index would survive
    # invalidate_code and serve stale bytes.
    pc = next(iter(cpu._code_user))
    cpu._code_pages[pc >> PAGE_SHIFT].discard(pc)
    violations = check_cache_coherence(world)
    assert any(v.detail == f"compiled-user cache holds pc {pc:#x} not "
               f"indexed for invalidation" for v in violations)


def test_pmc_monotone_hook_catches_a_decrease():
    world = build_world(generate(0), by_name("zen2"), fastpath=True)
    hook = PMCMonotoneHook(world.cpu)
    pmc = world.cpu.pmc
    pmc.add("l1d_access")
    with TRACE.sink(hook):
        TRACE.emit("retire", 0, pc=0x1000, text="nop", kernel_mode=False)
        assert hook.violations == []
        slot = list(pmc.snapshot()).index("l1d_access")
        pmc.counts[slot] -= 1
        # Only retire events sample the bank.
        TRACE.emit("syscall", 0, nr=39)
        assert hook.violations == []
        TRACE.emit("retire", 0, pc=0x1008, text="nop", kernel_mode=False)
    assert len(hook.violations) == 1
    assert "l1d_access" in hook.violations[0].detail
    assert "pc=0x1008" in hook.violations[0].detail


def test_episode_cycle_must_be_monotone():
    obs = observables_with(episodes=(episode(cycle=50), episode(cycle=40)))
    violations = check_episodes(obs, by_name("zen2"))
    assert any("cycle went backwards" in v.detail for v in violations)


def test_episode_addresses_must_be_canonical():
    obs = observables_with(
        episodes=(episode(target=0x0100_0000_0000_0000),))
    violations = check_episodes(obs, by_name("zen2"))
    assert any("non-canonical" in v.detail for v in violations)


def test_frontend_episode_cannot_reach_execute_when_decoder_wins():
    obs = observables_with(
        episodes=(episode(reach="EXECUTE", frontend=True),))
    # Zen 3's decoder wins the race: no phantom execute window.
    assert check_episodes(obs, by_name("zen3"))
    # Zen 2's loses it: the same episode is legal.
    assert check_episodes(obs, by_name("zen2")) == []


def test_backend_episode_must_reach_execute():
    obs = observables_with(
        episodes=(episode(reach="DECODE", frontend=False),))
    violations = check_episodes(obs, by_name("zen2"))
    assert any("backend-detected" in v.detail for v in violations)


def test_unknown_reach_and_kind_are_flagged():
    obs = observables_with(episodes=(episode(reach="WAT"),
                                     episode(predicted="mul")))
    violations = check_episodes(obs, by_name("zen2"))
    assert any("unknown reach" in v.detail for v in violations)
    assert any("not a branch kind" in v.detail for v in violations)


def test_pmc_and_episodes_must_tell_the_same_story():
    obs = observables_with(
        episodes=(episode(frontend=True), episode(frontend=False)),
        pmc=(("resteer_frontend", 1), ("resteer_backend", 1)))
    assert check_pmc_episode_consistency(obs) == []
    skewed = observables_with(
        episodes=(episode(frontend=True),),
        pmc=(("resteer_frontend", 2), ("resteer_backend", 0)))
    violations = check_pmc_episode_consistency(skewed)
    assert any("resteer_frontend" in v.detail for v in violations)
