"""Import footprint: the package runs on the standard library alone.

Every experiment boots fresh machines, so whatever a boot imports is
paid in set-up time and resident memory by every worker process.  This
runs a boot, a contract-fuzz world and a gadget scan in a fresh
interpreter with ``networkx`` blocked and no site-packages (``-S``),
then checks what got imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json
import sys

sys.modules["networkx"] = None

from repro.kernel import Machine, MachineSpec

Machine.from_spec(MachineSpec(uarch="zen3"))
after_boot = sorted(name for name in sys.modules
                    if name.startswith("repro.analysis"))

from repro.fuzz.harness import build_world, run_world
from repro.fuzz.relational import generate_pair, pair_seed
from repro.pipeline import by_name

pair = generate_pair(pair_seed(1, 0))
world = build_world(pair.variant_a.build(), by_name("zen3"), fastpath=True)
run_world(world)

from repro.analysis import generate_corpus, scan_corpus

corpus = generate_corpus(total=60, seed=0)
summary = scan_corpus(corpus.image, corpus.entries)

loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if module is not None}
print(json.dumps({
    "analysis_after_boot": after_boot,
    "third_party": sorted(loaded - set(sys.stdlib_module_names)
                          - {"__main__", "repro"}),
    "phantom_exploitable": summary.phantom_exploitable,
}))
"""


def test_boot_fuzz_and_scan_need_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["analysis_after_boot"] == []
    assert report["third_party"] == []
    assert report["phantom_exploitable"] > 0
