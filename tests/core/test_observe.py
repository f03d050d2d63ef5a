"""Observation channels: per-channel behaviour on selected cells."""

import pytest

from repro.core import TrainKind, TypeConfusionExperiment, VictimKind
from repro.core import observe
from repro.kernel import Machine
from repro.params import PAGE_SIZE
from repro.pipeline import Reach, ZEN2, ZEN3


def fresh(uarch):
    return Machine(uarch, syscall_noise_evictions=0)


def experiment(uarch, train, victim):
    return TypeConfusionExperiment(fresh(uarch), train, victim)


class TestChannels:
    def test_if_channel_zen3(self):
        exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        assert exp.measure_fetch()

    def test_id_channel_zen3(self):
        exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        assert exp.measure_decode()

    def test_ex_channel_zen3_negative(self):
        exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        assert not exp.measure_execute()

    def test_ex_channel_zen2_positive(self):
        exp = experiment(ZEN2, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        assert exp.measure_execute()

    def test_no_training_no_signal(self):
        """Without training there is no phantom at a non-branch."""
        exp = experiment(ZEN2, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        threshold = exp.exec_threshold
        exp._reset_channels()
        exp._run_victim()
        assert exp.timer.time_exec(exp.landing) > threshold


#: Each channel's set-up: the calibrations it runs and whether it
#: builds the jmp-series.
CHANNEL_SETUP = {
    "measure_fetch": (["exec"], False),
    "measure_execute": (["data"], False),
    "measure_decode": ([], True),
    "measure_decode_with_negative_control": ([], True),
}


def series_pages_mapped(exp):
    aspace = exp.machine.mem.aspace
    return [aspace.is_mapped(observe._SERIES_BASE + i * PAGE_SIZE)
            for i in range(8)]


@pytest.mark.parametrize("channel", sorted(CHANNEL_SETUP))
def test_channel_sets_up_only_what_it_reads(monkeypatch, channel):
    calls = []
    real = observe.calibrate_threshold

    def spy(timer, va, **kwargs):
        calls.append("exec" if kwargs.get("exec_") else "data")
        return real(timer, va, **kwargs)

    monkeypatch.setattr(observe, "calibrate_threshold", spy)
    exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
    assert calls == [] and not any(series_pages_mapped(exp))
    getattr(exp, channel)()
    want_calls, builds_series = CHANNEL_SETUP[channel]
    assert calls == want_calls
    assert series_pages_mapped(exp) == [builds_series] * 8


class TestGeometry:
    def test_victim_aliases_trainer(self):
        exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.NON_BRANCH)
        idx = exp.machine.uarch.btb
        assert idx.collides(exp.train_src, exp.victim_src)
        assert exp.train_src != exp.victim_src

    def test_same_page_offset(self):
        exp = experiment(ZEN3, TrainKind.INDIRECT, VictimKind.DIRECT)
        assert exp.train_src & 0xFFF == exp.victim_src & 0xFFF

    def test_pcrel_landing_is_c_prime(self):
        """Figure 5 A: C' = B + (C - A)."""
        exp = experiment(ZEN3, TrainKind.DIRECT, VictimKind.NON_BRANCH)
        c_a = 0x0000_0000_0410_0000 + 0x2B00
        assert exp.landing == exp.victim_src + (c_a - exp.train_src)

    def test_ret_landing_off_architectural_path(self):
        exp = experiment(ZEN2, TrainKind.RETURN, VictimKind.NON_BRANCH)
        # The stale return site is never the victim continuation.
        assert exp.landing != exp.victim_page + 0xC80

    def test_symmetric_combos_rejected(self):
        with pytest.raises(ValueError):
            experiment(ZEN3, TrainKind.INDIRECT, VictimKind.INDIRECT)
        with pytest.raises(ValueError):
            experiment(ZEN3, TrainKind.NON_BRANCH, VictimKind.NON_BRANCH)

    def test_displacement_variants_allowed(self):
        experiment(ZEN3, TrainKind.DIRECT, VictimKind.DIRECT)
        experiment(ZEN3, TrainKind.CONDITIONAL, VictimKind.CONDITIONAL)


class TestResultReach:
    def test_reach_ordering(self):
        from repro.core import ExperimentResult
        assert ExperimentResult(True, True, True).reach is Reach.EXECUTE
        assert ExperimentResult(True, True, False).reach is Reach.DECODE
        assert ExperimentResult(True, False, False).reach is Reach.FETCH
        assert ExperimentResult(False, False, False).reach is Reach.NONE
