"""The shared Result surface: every result serializes one way.

Run manifests, the campaign reducer and the benchmarks' result records
rely on ``to_dict()`` being JSON-serializable for every experiment
outcome — no per-type serialization anywhere else.  (The CLI's text
and the benchmark tables are written from those records.)
"""

import json

import pytest

from repro.core import Result
from repro.core.covert import CovertResult
from repro.core.kaslr_image import KaslrImageResult
from repro.core.kaslr_physmap import PhysmapResult
from repro.core.matrix import CellResult
from repro.core.mds import MdsLeakResult
from repro.core.observe import ExperimentResult, TrainKind, VictimKind
from repro.core.physaddr import PhysAddrResult
from repro.core.results import hexaddr
from repro.core.scoring import GuessScore
from repro.workloads import SuiteResult

RESULTS = [
    CellResult(uarch="Zen 2", train=TrainKind.INDIRECT,
               victim=VictimKind.NON_BRANCH,
               result=ExperimentResult(fetch=True, decode=True,
                                       execute=False)),
    CovertResult(bits=128, correct=120, seconds=0.001),
    KaslrImageResult(guessed_base=0xFFFF_FFFF_8100_0000, seconds=0.5,
                     scores=[GuessScore(0xFFFF_FFFF_8100_0000, 12)]),
    PhysmapResult(guessed_base=0xFFFF_8880_4000_0000, seconds=0.3,
                  candidates_scanned=4000),
    PhysmapResult(guessed_base=None, seconds=0.3, candidates_scanned=25600),
    PhysAddrResult(guessed_pa=0x1240_0000, seconds=0.2,
                   candidates_scanned=147),
    MdsLeakResult(leaked=b"ab", expected=b"ab", seconds=0.01,
                  no_signal_bytes=0),
]


@pytest.mark.parametrize("result", RESULTS,
                         ids=lambda r: type(r).__name__)
def test_to_dict_is_json_serializable(result):
    doc = result.to_dict()
    assert doc == json.loads(json.dumps(doc))


@pytest.mark.parametrize("result", RESULTS,
                         ids=lambda r: type(r).__name__)
def test_results_satisfy_the_protocol(result):
    assert isinstance(result, Result)


def test_suite_result_is_not_forced_into_the_protocol():
    """SuiteResult reduces to a geometric mean, not a manifest row."""
    assert not isinstance(SuiteResult(cycles={"a": 1}), Result)


def test_hexaddr_none_safe():
    assert hexaddr(0x1000) == "0x1000"
    assert hexaddr(None) is None
