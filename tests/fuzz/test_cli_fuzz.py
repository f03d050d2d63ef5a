"""The ``repro fuzz`` command: clean runs, --jobs independence,
artifacts.  One engine-differential and one contract run are golden
pins (``tests/cli_pins.py``)."""

import importlib
import json

import pytest

from repro.cli import main
from repro.fuzz import Divergence, Verdict, load_program
from repro.runner import manifest_fingerprint
from repro.telemetry import validate_manifest
from tests.cli_pins import check_pin

oracle_module = importlib.import_module("repro.fuzz.oracle")
shrink_module = importlib.import_module("repro.fuzz.shrink")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_fuzz_clean_run(tmp_path):
    out = check_pin("fuzz", tmp_path)
    assert "checked 3/3 programs" in out
    assert "0 divergence(s)" in out
    assert not (tmp_path / "artifacts").exists()


def test_fuzz_emits_valid_manifest(capsys, tmp_path):
    code, out = run(capsys, "fuzz", "--iters", "2", "--json",
                    "--artifact-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validate_manifest(doc)
    assert doc["outcome"]["programs"] == 2
    assert doc["config"]["uarches"] == ["zen2", "zen3"]


def test_fuzz_time_budget_is_gone(capsys):
    """Every run is one whole campaign: the old budget flag is a usage
    error, not silently ignored."""
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--time-budget", "1"])
    assert info.value.code == 2
    assert "--time-budget" in capsys.readouterr().err


def test_fuzz_jobs_matches_serial(capsys, tmp_path):
    """The default serial run goes through the same campaign as a
    pooled one, so the manifests agree, phases included."""
    docs = []
    for jobs in ("1", "2"):
        code, out = run(capsys, "fuzz", "--iters", "10", "--seed", "0",
                        "--json", "--jobs", jobs,
                        "--artifact-dir", str(tmp_path))
        assert code == 0
        docs.append(json.loads(out))
    assert [phase["name"] for phase in docs[0]["phases"]] \
        == ["fuzz", "fuzz[0]", "fuzz[1]"]
    assert manifest_fingerprint(docs[0]) == manifest_fingerprint(docs[1])


def test_fuzz_divergence_writes_counterexample(capsys, tmp_path,
                                               monkeypatch):
    """Fault-inject the oracle: the command must exit 1 and write a
    replayable counterexample artifact."""

    def fake_check(program, uarches):
        verdict = Verdict(program=program)
        if program.seed % 2:
            verdict.divergences.append(
                Divergence("engine", "zen2", "cycles: injected"))
        return verdict

    monkeypatch.setattr(oracle_module, "check_program", fake_check)
    monkeypatch.setattr(shrink_module, "check_program", fake_check)
    artifact_dir = tmp_path / "artifacts"
    code, out = run(capsys, "fuzz", "--iters", "8",
                    "--artifact-dir", str(artifact_dir))
    assert code == 1
    assert "DIVERGENCE" in out and "wrote" in out
    artifacts = sorted(artifact_dir.glob("counterexample-*.json"))
    assert artifacts
    for path in artifacts:
        program = load_program(path)
        assert program.seed % 2 == 1
        program.build()


def test_fuzz_no_shrink_skips_minimization(capsys, tmp_path, monkeypatch):
    def fake_check(program, uarches):
        return Verdict(program=program,
                       divergences=[Divergence("engine", "zen2",
                                               "cycles: injected")])

    monkeypatch.setattr(oracle_module, "check_program", fake_check)
    code, out = run(capsys, "fuzz", "--iters", "1", "--no-shrink",
                    "--artifact-dir", str(tmp_path / "a"))
    assert code == 1
    assert "shrunk" not in out
    assert list((tmp_path / "a").glob("counterexample-*.json"))


# -- relational (contract) mode --------------------------------------------


def test_contracts_list(capsys):
    code, out = run(capsys, "contracts", "list")
    assert code == 0
    for name in ("no-leak", "no-if-leak", "retbleed-safe"):
        assert name in out
    for mitigation in ("suppress-bp", "rsb-stuffing"):
        assert mitigation in out


def test_fuzz_mitigation_requires_contract(capsys):
    assert main(["fuzz", "--mitigation", "ibpb", "--iters", "1"]) == 2


def test_contract_clean_run(capsys, tmp_path):
    code, out = run(capsys, "fuzz", "--contract", "retbleed-safe",
                    "--seed", "0", "--iters", "2",
                    "--artifact-dir", str(tmp_path / "artifacts"))
    assert code == 0
    assert "retbleed-safe" in out and "0 violation(s)" in out
    assert not (tmp_path / "artifacts").exists()


def test_contract_violations_shrink_and_ship(tmp_path):
    """Two no-if-leak violations in four pairs go through the replay,
    shrink and save loop; text and manifest match the recorded pin."""
    from repro.telemetry import validate_violation

    out = check_pin("fuzz-contract", tmp_path)
    assert out.count("CONTRACT VIOLATION") == 2
    assert out.count("pair checks)") == 2
    artifacts = sorted((tmp_path / "artifacts").glob("violation-*.json"))
    assert len(artifacts) == 2
    for path in artifacts:
        validate_violation(json.loads(path.read_text()))


def test_contract_violation_ships_valid_artifact(capsys, tmp_path):
    from repro.telemetry import validate_violation

    artifact_dir = tmp_path / "artifacts"
    code, out = run(capsys, "fuzz", "--contract", "no-leak",
                    "--seed", "0", "--iters", "1", "--no-shrink",
                    "--artifact-dir", str(artifact_dir))
    assert code == 1
    assert "CONTRACT VIOLATION" in out
    artifacts = sorted(artifact_dir.glob("violation-*.json"))
    assert artifacts
    for path in artifacts:
        validate_violation(json.loads(path.read_text()))


def test_contract_manifest_identical_across_jobs(capsys, tmp_path):
    docs = []
    for jobs in ("1", "2"):
        code, out = run(capsys, "fuzz", "--contract", "retbleed-safe",
                        "--seed", "3", "--iters", "4", "--json",
                        "--jobs", jobs,
                        "--artifact-dir", str(tmp_path / jobs))
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        validate_manifest(doc)
        assert doc["config"]["contract"] == "retbleed-safe"
    assert manifest_fingerprint(docs[0]) == manifest_fingerprint(docs[1])
