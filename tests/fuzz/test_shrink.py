"""Shrinker: minimizes while preserving the failure class."""

import importlib

import pytest

from repro.fuzz import Divergence, Verdict, generate, shrink

# ``repro.fuzz.shrink`` the *attribute* is the function (the package
# re-exports it); reach the module itself for monkeypatching.
shrink_module = importlib.import_module("repro.fuzz.shrink")


def fake_oracle(monkeypatch, failing):
    """Install a stand-in oracle: a program 'fails' iff *failing* says
    so; the divergence class is fixed so the shrinker must preserve it."""

    def check(program, uarches):
        verdict = Verdict(program=program)
        if failing(program):
            verdict.divergences.append(
                Divergence("engine", "Zen 2", "cycles: injected"))
        return verdict

    monkeypatch.setattr(shrink_module, "check_program", check)
    return check


def count_mnemonic(program, mnemonic):
    return sum(item.instr.mnemonic == mnemonic
               for item in program.user_items)


def find_seed_with(mnemonic, shape=None):
    for seed in range(64):
        if count_mnemonic(generate(seed, shape), mnemonic):
            return seed
    raise AssertionError(f"no seed produced {mnemonic}")


def test_shrinks_to_the_failure_carrying_instruction(monkeypatch):
    seed = find_seed_with("imul_rr")
    program = generate(seed)
    check = fake_oracle(
        monkeypatch, lambda p: count_mnemonic(p, "imul_rr") > 0)
    verdict = check(program, ())
    result = shrink(program, verdict)
    assert result.reduced
    assert result.items_after < result.items_before
    assert result.items_after <= 4
    # The culprit survived, the reduction still builds, still "fails".
    assert count_mnemonic(result.program, "imul_rr") >= 1
    result.program.build()
    assert not check(result.program, ()).ok
    assert "shrunk" in result.program.description


def test_shrinking_drops_unneeded_patches(monkeypatch):
    seed = find_seed_with("imul_rr", "smc")
    program = generate(seed, "smc")
    if not program.patches:
        pytest.skip("pinned smc seed scheduled no patches")
    fake_oracle(monkeypatch, lambda p: count_mnemonic(p, "imul_rr") > 0)
    verdict = Verdict(program, [Divergence("engine", "Zen 2",
                                           "cycles: injected")])
    result = shrink(program, verdict)
    assert result.program.patches == ()
    assert result.program.runs == 1


def test_shrink_respects_the_check_budget(monkeypatch):
    program = generate(find_seed_with("imul_rr"))
    fake_oracle(monkeypatch, lambda p: count_mnemonic(p, "imul_rr") > 0)
    verdict = Verdict(program, [Divergence("engine", "Zen 2",
                                           "cycles: injected")])
    result = shrink(program, verdict, max_checks=3)
    assert result.checks <= 3
    result.program.build()                     # partial result is valid


def test_shrink_rejects_class_changing_reductions(monkeypatch):
    """A reduction that swaps the failure for a *different* class is
    not accepted — the minimized program reproduces the original bug."""
    program = generate(find_seed_with("imul_rr"))

    def check(candidate, uarches):
        verdict = Verdict(program=candidate)
        if count_mnemonic(candidate, "imul_rr") > 0:
            verdict.divergences.append(
                Divergence("engine", "Zen 2", "cycles: injected"))
        else:
            verdict.divergences.append(
                Divergence("engine", "Zen 2", "regs: other bug"))
        return verdict

    monkeypatch.setattr(shrink_module, "check_program", check)
    verdict = Verdict(program, [Divergence("engine", "Zen 2",
                                           "cycles: injected")])
    result = shrink(program, verdict)
    assert count_mnemonic(result.program, "imul_rr") >= 1


def test_shrinking_a_passing_program_is_an_error():
    program = generate(0)
    with pytest.raises(ValueError, match="passing"):
        shrink(program, Verdict(program=program))


def test_malformed_reductions_are_rejected_not_fatal(monkeypatch):
    """Candidates that fail to build (dangling labels, span overflows)
    must be treated as 'does not reproduce', never crash the shrink."""
    seed = find_seed_with("imul_rr")
    program = generate(seed)

    def check(candidate, uarches):
        candidate.build()                      # raises on malformed input
        verdict = Verdict(program=candidate)
        if count_mnemonic(candidate, "imul_rr") > 0:
            verdict.divergences.append(
                Divergence("engine", "Zen 2", "cycles: injected"))
        return verdict

    monkeypatch.setattr(shrink_module, "check_program", check)
    verdict = Verdict(program, [Divergence("engine", "Zen 2",
                                           "cycles: injected")])
    result = shrink(program, verdict)
    result.program.build()
    assert count_mnemonic(result.program, "imul_rr") >= 1


# -- secret-operand annotation migration -----------------------------------


def find_tainted_seed_with(mnemonic):
    for seed in range(64):
        program = generate(seed, taint=True)
        if program.secret_loads and count_mnemonic(program, mnemonic):
            # The regression needs droppable items *before* an
            # annotated load so a stale index would dangle or
            # mis-point after removal.
            if min(i for i, _ in program.secret_loads) >= 4:
                return seed
    raise AssertionError(f"no tainted seed produced {mnemonic}")


def test_dropping_items_remaps_secret_annotations(monkeypatch):
    """Regression: deleting instructions before a secret-tainted load
    must shift its ``secret_loads`` index with it, exactly like patch
    offsets — a stale index points the annotation at an arbitrary
    surviving instruction (or out of range)."""
    seed = find_tainted_seed_with("movb_rm")
    program = generate(seed, taint=True)
    fake_oracle(monkeypatch,
                lambda p: bool(p.secret_loads)
                and count_mnemonic(p, "movb_rm") > 0)
    verdict = shrink_module.check_program(program, ())
    result = shrink(program, verdict)
    assert result.items_after < result.items_before
    # Every surviving annotation still points at a secret load ...
    assert result.program.secret_loads
    for index, byte in result.program.secret_loads:
        assert result.program.user_items[index].instr.mnemonic \
            == "movb_rm"
    # ... reading one of the originally annotated secret bytes.
    assert {b for _, b in result.program.secret_loads} \
        <= {b for _, b in program.secret_loads}
    result.program.build()


def test_neutralizing_a_secret_load_deletes_its_annotation(monkeypatch):
    """When the shrinker rewrites an annotated load to a nop the
    annotation must go with it, not survive pointing at the nop."""
    seed = find_tainted_seed_with("imul_rr")
    program = generate(seed, taint=True)
    # The oracle only needs the imul: every secret load is fair game
    # for dropping or neutralizing.
    fake_oracle(monkeypatch,
                lambda p: count_mnemonic(p, "imul_rr") > 0)
    verdict = shrink_module.check_program(program, ())
    result = shrink(program, verdict)
    for index, byte in result.program.secret_loads:
        assert result.program.user_items[index].instr.mnemonic \
            == "movb_rm"
    result.program.build()
