"""Table 1: how far each training x victim combination advances.

Reproduction target (shape): every asymmetric combination reaches
transient fetch AND decode on all tested CPUs (observations O1/O2);
transient execute only on AMD Zen 1/2 (O3); Intel parts show no signal
for jmp* victims; straight-line speculation of a taken jcc trained as
non-branch transiently executes (the paper's "occasionally observed"
case, deterministic here).
"""

import os
from collections import Counter

from repro.core import TrainKind, VictimKind
from repro.core.matrix import MatrixExperiment, format_matrix
from repro.pipeline import (ALL_MICROARCHES, AMD_MICROARCHES,
                            INTEL_MICROARCHES, Reach, ZEN1, ZEN2)
from repro.runner.run import ExperimentRun

from _harness import emit, run_once

UARCHES = [u.name for u in ALL_MICROARCHES]


def render(record):
    return format_matrix(record["rows"]).splitlines()


def test_table1_speculation_matrix(benchmark):
    with ExperimentRun("bench-table1", jobs=os.cpu_count(),
                       uarches=UARCHES) as run:
        cells = run_once(benchmark, lambda: run.campaign(
            None, MatrixExperiment(uarches=tuple(UARCHES))))
        rows = [cell.to_dict() for cell in cells]
        run.finish("success", cells=len(rows),
                   reach=dict(Counter(row["reach"] for row in rows)),
                   jobs=run.workers)
    record = emit("table1", {"uarches": UARCHES, "rows": rows}, render,
                  manifest=run.manifest)

    intel = {u.name for u in INTEL_MICROARCHES}
    reach = {(r["uarch"], TrainKind(r["train"]), VictimKind(r["victim"])):
             Reach[r["reach"]] for r in record["rows"]}

    # O1/O2: fetch and decode everywhere (except the Intel jmp* quirk).
    for (uarch, train, victim), got in reach.items():
        if uarch in intel and victim is VictimKind.INDIRECT:
            continue
        assert got >= Reach.DECODE, \
            f"{uarch} {train.value}x{victim.value}: {got}"

    # O3: transient execute exactly on Zen 1/2 (plus the jcc-SLS case).
    for (uarch, train, victim), got in reach.items():
        jcc_sls = (train is TrainKind.NON_BRANCH
                   and victim is VictimKind.CONDITIONAL)
        if uarch in (ZEN1.name, ZEN2.name):
            assert got is Reach.EXECUTE
        elif not jcc_sls:
            assert got < Reach.EXECUTE

    # Intel: no phantom *pipeline* signal for indirect-branch victims
    # — never ID; parts with BPU-assisted prefetch (9th/11th gen here)
    # still show IF, matching "do not indicate ID, and sometimes not
    # even IF" (§6).
    for uarch in INTEL_MICROARCHES:
        for train in TrainKind:
            got = reach.get((uarch.name, train, VictimKind.INDIRECT))
            if got is None:
                continue
            assert got < Reach.DECODE
            if not uarch.bpu_prefetch:
                assert got is Reach.NONE

    # AMD reuses user predictions at kernel-aliased sources; Intel does
    # not (checked structurally via the indexing).
    for uarch in AMD_MICROARCHES:
        assert not uarch.btb.privilege_in_tag
