"""Differential fuzzing and invariant checking for the dual-engine
simulator (see docs/fuzzing.md).

The pieces compose as a pipeline:

* :mod:`~repro.fuzz.gen` — seeded deterministic program generator,
* :mod:`~repro.fuzz.harness` — run one program on one engine,
* :mod:`~repro.fuzz.invariants` — machine-checkable simulator claims,
* :mod:`~repro.fuzz.oracle` — the full differential matrix per program,
* :mod:`~repro.fuzz.contracts` — leakage contracts: which observables
  may depend on secret inputs, per mitigation,
* :mod:`~repro.fuzz.relational` — public-equivalent secret-divergent
  input pairs checked against a contract,
* :mod:`~repro.fuzz.witness` — the paper's listings as pinned
  known-answer contract inputs,
* :mod:`~repro.fuzz.shrink` — minimize failures to tiny reproducers,
* :mod:`~repro.fuzz.corpus` — committed regression corpus on disk.
"""

from .contracts import (CONTRACTS, Contract, VIOLATION_SCHEMA,
                        contract_by_name, contract_names, save_violation,
                        violation_document)
from .corpus import (COUNTEREXAMPLE_SCHEMA, SEED_CORPUS, iter_corpus,
                     iter_pair_corpus, load_program, save_counterexample)
from .gen import SHAPES, generate
from .harness import (Observables, World, compare_observables,
                      run_program)
from .invariants import Violation, despeculated
from .oracle import (CHUNK, DEFAULT_UARCHES, Divergence, FuzzExperiment,
                     Verdict, check_program, check_range, program_seed)
from .program import (BuiltProgram, FuzzProgram, FuzzProgramError,
                      InstrSpec, Item, Patch, PROGRAM_SCHEMA,
                      SECRET_OFFSET, SECRET_SIZE)
from .relational import (ContractExperiment, ContractVerdict, PAIR_SCHEMA,
                         RelationalPair, check_pair, check_pair_range,
                         generate_pair, load_pair, pair_seed)
from .shrink import (PairShrinkResult, ShrinkResult, shrink, shrink_pair)
from .witness import (LISTINGS, WitnessVerdict, check_listing, run_listing)

__all__ = [
    "BuiltProgram",
    "CHUNK",
    "CONTRACTS",
    "COUNTEREXAMPLE_SCHEMA",
    "Contract",
    "ContractExperiment",
    "ContractVerdict",
    "DEFAULT_UARCHES",
    "Divergence",
    "FuzzExperiment",
    "FuzzProgram",
    "FuzzProgramError",
    "InstrSpec",
    "Item",
    "LISTINGS",
    "Observables",
    "PAIR_SCHEMA",
    "PROGRAM_SCHEMA",
    "PairShrinkResult",
    "Patch",
    "RelationalPair",
    "SECRET_OFFSET",
    "SECRET_SIZE",
    "SEED_CORPUS",
    "SHAPES",
    "ShrinkResult",
    "VIOLATION_SCHEMA",
    "Verdict",
    "Violation",
    "WitnessVerdict",
    "World",
    "check_listing",
    "check_pair",
    "check_pair_range",
    "check_program",
    "check_range",
    "compare_observables",
    "contract_by_name",
    "contract_names",
    "despeculated",
    "generate",
    "generate_pair",
    "iter_corpus",
    "iter_pair_corpus",
    "load_pair",
    "load_program",
    "pair_seed",
    "program_seed",
    "run_listing",
    "run_program",
    "save_counterexample",
    "save_violation",
    "shrink",
    "shrink_pair",
    "violation_document",
]
