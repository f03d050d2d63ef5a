"""Table 1 matrix runner: combo enumeration and key cells."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import ASYMMETRIC_COMBOS, TrainKind, VictimKind, measure_cell
from repro.core.matrix import (CHANNEL_MEASUREMENTS, format_matrix,
                               measure_channel, run_matrix)
from repro.pipeline import ALL_MICROARCHES, Reach, ZEN1, ZEN2, ZEN3

TABLE1 = (Path(__file__).resolve().parents[2] / "benchmarks" / "results"
          / "table1.txt")


def test_twenty_two_combinations():
    """5x5 minus the 5 symmetric diagonal plus jmp/jcc displacement
    variants = 22, as the paper counts."""
    assert len(ASYMMETRIC_COMBOS) == 22
    assert (TrainKind.DIRECT, VictimKind.DIRECT) in ASYMMETRIC_COMBOS
    assert (TrainKind.INDIRECT, VictimKind.INDIRECT) not in ASYMMETRIC_COMBOS


def test_zen1_headline_cell_reaches_execute():
    result = measure_cell(ZEN1, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
    assert result.reach is Reach.EXECUTE


def test_zen3_headline_cell_reaches_decode_only():
    result = measure_cell(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
    assert result.reach is Reach.DECODE


def test_unknown_channel_fails_loudly():
    """The explicit dispatch replaces the old stringly ``getattr`` —
    a typo'd channel is a ValueError, not an AttributeError deep in a
    worker."""
    with pytest.raises(ValueError, match="unknown observation channel"):
        measure_channel(object(), "excute")


def test_channel_dispatch_covers_experiment_result_fields():
    assert set(CHANNEL_MEASUREMENTS) == {"fetch", "decode", "execute"}


def test_run_matrix_subset_and_format():
    combos = [(TrainKind.INDIRECT, VictimKind.NON_BRANCH),
              (TrainKind.RETURN, VictimKind.DIRECT)]
    results = run_matrix([ZEN3], combos=combos)
    assert len(results) == 2
    table = format_matrix(results)
    assert "Zen 3" in table
    assert "ID" in table


def test_measure_cell_keeps_a_modified_uarch():
    """A resteer latency at or below issue latency means the decoder
    wins the race on Zen 2 too: the modified model must reach the job,
    not stock Zen 2 rebuilt from its name."""
    fast_resteer = replace(ZEN2, frontend_resteer_latency=2)
    result = measure_cell(fast_resteer, TrainKind.INDIRECT,
                          VictimKind.NON_BRANCH)
    assert result.reach is Reach.DECODE
    stock = measure_cell(ZEN2, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
    assert stock.reach is Reach.EXECUTE


def test_full_matrix_matches_committed_table1():
    """All 8 µarches x 22 combinations, serially, render exactly the
    committed Table 1 (benchmarks/test_table1_matrix.py's output)."""
    results = run_matrix([u.name for u in ALL_MICROARCHES], jobs=1)
    assert len(results) == 8 * 22
    assert (format_matrix(results).splitlines()
            == TABLE1.read_text().splitlines())
