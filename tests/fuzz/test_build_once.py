"""``check_pair`` assembles a pair once and shares the images across
all of its worlds (both variants, both engines on every µarch),
without changing a verdict: the variants differ only in ``data``,
which assembly does not read."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import (RelationalPair, check_pair, contract_by_name,
                        generate_pair, iter_pair_corpus, load_pair)
from repro.fuzz.program import FuzzProgram
from repro.kernel import mitigation_by_name

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = iter_pair_corpus(CORPUS_DIR)


@pytest.fixture
def builds(monkeypatch):
    """Every program ``FuzzProgram.build`` is called on, in order."""
    calls: list[FuzzProgram] = []
    real = FuzzProgram.build

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FuzzProgram, "build", counting)
    return calls


def test_one_build_per_pair_across_the_uarch_matrix(builds):
    pair = generate_pair(11, "branchy")
    verdict = check_pair(pair, contract_by_name("no-if-leak"),
                         ("zen2", "zen3"))
    # 2 variants x 2 µarches x 2 engines = 8 worlds, 1 assembly.
    assert len(verdict.traces) == 4
    assert builds == [pair.variant_a]


@pytest.mark.parametrize(("path", "doc"), ENTRIES,
                         ids=[path.stem for path, _ in ENTRIES])
def test_shared_images_equal_variant_b_build(path, doc):
    pair = load_pair(path)
    shared = replace(pair.variant_a.build(), program=pair.variant_b)
    assert shared == pair.variant_b.build()


@pytest.mark.parametrize(("path", "doc"), ENTRIES,
                         ids=[path.stem for path, _ in ENTRIES])
def test_corpus_verdicts_are_unchanged(path, doc, builds):
    if doc["schema"] == "phantom.contract-violation/1":
        pair = load_pair(path)
        verdict = check_pair(pair, contract_by_name(doc["contract"]),
                             doc["uarches"],
                             mitigation=mitigation_by_name(doc["mitigation"]))
        assert list(verdict.classes) == doc["classes"]
    else:
        pair = RelationalPair.from_dict(doc)
        verdict = check_pair(pair, contract_by_name("no-leak"))
        assert verdict.ok, verdict.classes
    assert builds == [pair.variant_a]
