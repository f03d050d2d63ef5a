"""Golden pins for the experiment commands: stdout and manifest.

Each pin runs one ``repro`` command in-process with ``--results-dir``
and compares two things with the files recorded under
``tests/data/cli/``:

* ``<pin>.stdout`` — the command's text, with what differs from run to
  run masked: the ``in N.Ns`` wall-time tail of the fuzz summary and
  the temporary results and artifact directories;
* ``<pin>.fingerprint.json`` — the :func:`repro.runner.manifest_fingerprint`
  of the archived manifest (timestamps, wall times and worker counts
  stripped), with the same directories masked.

Tier-1 tests check the fast pins through :func:`check_pin`; the slow
``physmap`` and ``leak`` pins run from the command line::

    PYTHONPATH=src python -m tests.cli_pins check physmap-zen2 leak-zen2
    PYTHONPATH=src python -m tests.cli_pins record PIN...   # re-record
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).parent / "data" / "cli"

#: Marks where a pin's argv takes its temporary artifact directory.
ARTIFACTS = "<ARTIFACTS>"

PINS = {
    "matrix-zen1": ["matrix", "--uarch", "zen 1"],
    "kaslr-zen3-seed5": ["kaslr", "--uarch", "zen 3", "--seed", "5"],
    "covert-zen4": ["covert", "--uarch", "zen 4", "--bits", "64"],
    "covert-zen2": ["covert", "--uarch", "zen 2", "--bits", "64"],
    "gadgets": ["gadgets", "--functions", "120", "--seed", "1"],
    "rev-btb": ["rev-btb", "--samples", "120000"],
    "trace": ["trace", "--nr", "39", "--limit", "40"],
    "fuzz": ["fuzz", "--iters", "3", "--artifact-dir", ARTIFACTS],
    "fuzz-contract": ["fuzz", "--contract", "no-if-leak", "--iters", "4",
                      "--artifact-dir", ARTIFACTS],
    # ~12 s each (the physmap campaign scans all 16 chunks): CI only.
    "physmap-zen2": ["physmap", "--uarch", "zen2"],
    "leak-zen2": ["leak", "--uarch", "zen2", "--bytes", "8"],
}

#: Pins whose command exits non-zero (the contract run finds violations).
EXIT_CODES = {"fuzz-contract": 1}

_WALL_TIME = re.compile(r" in \d+\.\d+s$")


def run_pin(name: str, workdir) -> tuple[int, str, dict]:
    """Run pin *name* under *workdir*; returns its exit code, masked
    stdout and masked manifest fingerprint."""
    from repro.cli import main
    from repro.runner import manifest_fingerprint

    workdir = Path(workdir)
    results, artifacts = workdir / "results", workdir / "artifacts"
    argv = [str(artifacts) if arg == ARTIFACTS else arg
            for arg in PINS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--results-dir", str(results)])
    (manifest,) = results.glob("*-2*.json")

    def mask(text: str) -> str:
        return (text.replace(str(manifest), "<MANIFEST>")
                .replace(str(results), "<RESULTS>")
                .replace(str(artifacts), ARTIFACTS))

    stdout = "\n".join(_WALL_TIME.sub(" in <T>s", line)
                       for line in mask(out.getvalue()).splitlines())
    fingerprint = json.loads(mask(json.dumps(
        manifest_fingerprint(json.loads(manifest.read_text())))))
    return code, stdout + "\n", fingerprint


def check_pin(name: str, workdir) -> str:
    """Assert that pin *name* exits as recorded and reproduces its
    recorded stdout and manifest fingerprint; returns the stdout."""
    code, stdout, fingerprint = run_pin(name, workdir)
    assert code == EXIT_CODES.get(name, 0), (name, code)
    assert stdout == (DATA / f"{name}.stdout").read_text(), name
    assert fingerprint == json.loads(
        (DATA / f"{name}.fingerprint.json").read_text()), name
    return stdout


def record_pin(name: str, workdir) -> None:
    code, stdout, fingerprint = run_pin(name, workdir)
    assert code == EXIT_CODES.get(name, 0), (name, code)
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / f"{name}.stdout").write_text(stdout)
    (DATA / f"{name}.fingerprint.json").write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("check", "record") \
            or not set(argv[1:]) <= set(PINS):
        print(f"usage: python -m tests.cli_pins check|record PIN... "
              f"(pins: {', '.join(PINS)})", file=sys.stderr)
        return 2
    action = check_pin if argv[0] == "check" else record_pin
    for name in argv[1:]:
        with tempfile.TemporaryDirectory() as workdir:
            action(name, workdir)
        print(f"{argv[0]}: {name} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
