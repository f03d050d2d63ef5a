"""Sections 6.3/8: what the deployed mitigations actually stop.

Reproduction targets:
* **O4** — with SuppressBPOnNonBr set (Zen 2), phantoms at non-branch
  victims still fetch and decode; only transient execute stops;
* **O5** — with AutoIBRS (Zen 4), cross-privilege phantom fetch (and
  decode) still happens: P1 and the KASLR break survive;
* P2/P3 remain available on Zen 2 by targeting *branch* victims even
  under SuppressBPOnNonBr ("branches are common in software");
* IBPB on kernel entry stops all three primitives.
"""

from repro.core import (TrainKind, VictimKind, break_kernel_image_kaslr,
                        measure_cell)
from repro.core.matrix import CellResult
from repro.kernel import Machine, MitigationConfig
from repro.pipeline import ZEN2, ZEN4

from _harness import emit, run_once


def cell(uarch, train, victim, **mitigations) -> dict:
    """One Table 1 cell under *mitigations*, as its result row."""
    return CellResult(uarch.name, train, victim, measure_cell(
        uarch, train, victim,
        mitigations=MitigationConfig(**mitigations))).to_dict()


def render(record):
    def fmt(row):
        return f"IF={row['fetch']} ID={row['decode']} EX={row['execute']}"

    return [
        "§6.3/§8 — mitigation effectiveness against Phantom",
        f"Zen 2 baseline (jmp* x non-branch):      "
        f"{fmt(record['zen2_base'])}",
        f"Zen 2 + SuppressBPOnNonBr:               "
        f"{fmt(record['zen2_suppress'])}   <- O4",
        f"Zen 2 + SuppressBPOnNonBr, jmp victim:   "
        f"{fmt(record['zen2_suppress_branch_victim'])}   (P2/P3 survive)",
        f"Zen 4 + AutoIBRS:                        "
        f"{fmt(record['zen4_autoibrs'])}   <- O5",
        f"Zen 4 KASLR break under full hardening:  "
        f"{'SUCCEEDS' if record['zen4_kaslr_hardened'] else 'fails'}",
        f"Zen 2 KASLR break under IBPB-on-entry:   "
        f"{'succeeds' if record['zen2_kaslr_ibpb'] else 'FAILS (mitigated)'}",
    ]


def test_mitigations_do_not_stop_fetch_and_decode(benchmark):
    def experiment():
        out = {}
        out["zen2_base"] = cell(ZEN2, TrainKind.INDIRECT,
                                VictimKind.NON_BRANCH)
        out["zen2_suppress"] = cell(ZEN2, TrainKind.INDIRECT,
                                    VictimKind.NON_BRANCH,
                                    suppress_bp_on_non_br=True)
        out["zen2_suppress_branch_victim"] = cell(
            ZEN2, TrainKind.INDIRECT, VictimKind.DIRECT,
            suppress_bp_on_non_br=True)
        out["zen4_autoibrs"] = cell(ZEN4, TrainKind.INDIRECT,
                                    VictimKind.NON_BRANCH, auto_ibrs=True)

        # KASLR break with every AMD-recommended mitigation on (O5).
        machine = Machine(ZEN4, kaslr_seed=55, mitigations=MitigationConfig(
            suppress_bp_on_non_br=True, auto_ibrs=True))
        out["zen4_kaslr_hardened"] = \
            break_kernel_image_kaslr(machine).correct(machine.kaslr)

        # IBPB stops the injection outright.
        machine = Machine(ZEN2, kaslr_seed=56, mitigations=MitigationConfig(
            ibpb_on_kernel_entry=True))
        out["zen2_kaslr_ibpb"] = \
            break_kernel_image_kaslr(machine).correct(machine.kaslr)
        return out

    record = emit("mitigations_matrix", run_once(benchmark, experiment),
                  render)

    # O4: fetch + decode survive, execute stops, on non-branch victims.
    assert record["zen2_base"]["reach"] == "EXECUTE"
    assert record["zen2_suppress"]["fetch"] \
        and record["zen2_suppress"]["decode"]
    assert not record["zen2_suppress"]["execute"]
    # ...but a branch victim still reaches execute (P2/P3 unaffected).
    assert record["zen2_suppress_branch_victim"]["reach"] == "EXECUTE"
    # O5: AutoIBRS leaves cross-... (user-user here) fetch+decode alone.
    assert record["zen4_autoibrs"]["fetch"]
    # P1-based KASLR break still works fully hardened; IBPB stops it.
    assert record["zen4_kaslr_hardened"]
    assert not record["zen2_kaslr_ibpb"]
