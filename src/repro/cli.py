"""Command-line interface: ``python -m repro <command>``.

Every command drives the public API; nothing here adds behaviour.
``repro --help`` lists the commands.  Each experiment command is an
entry of :func:`build_parser`'s table (its arguments) and a ``cmd_*``
function: its experiment(s), each run as a campaign by
:meth:`~repro.runner.run.ExperimentRun.campaign`, then an outcome
record — the result's ``to_dict()`` plus what the command adds — that
seals the manifest and from which the text lines are written
(:meth:`_Run.report`).  An unknown ``--uarch`` is a usage error (exit
2), as is ``physmap`` or ``leak`` on a µarch whose phantom window does
not reach execute.

Every experiment command accepts ``--json`` (print a
``phantom.run-manifest/1`` document instead of text), ``--trace-out
FILE`` (write the run's ``phantom.trace/1`` events as JSON lines), and
``--results-dir DIR`` (archive the manifest).  Campaign commands
(``matrix``, ``kaslr``, ``physmap``, ``leak``, ``covert``, ``fuzz``)
also take ``--jobs N`` to shard their jobs across worker processes
(0 = one per available CPU; results and manifests are identical at
any worker count), and — with ``--results-dir`` — journal every
finished job to ``DIR/<command>-checkpoint.jsonl``; ``--resume
CHECKPOINT`` skips the jobs already journaled there (see
``docs/resilience.md``).  Ctrl-C with a checkpoint active exits 130
after printing the resume command; a worker process that dies does the
same but exits 1.

Observability (see ``docs/observability.md``) is one event stream on
two clocks: ``--spans DIR`` records ``phantom.span/1`` host-timed spans
across every worker and stitches them into ``DIR/trace.jsonl``;
``--trace-out FILE`` has the same per-process files carry the
cycle-stamped events too (in ``--spans DIR`` or a temporary
directory) and writes them, stitched, to FILE at any ``--jobs``.  A
single-line progress bar renders whenever stderr is a terminal.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack

from .pipeline import ALL_MICROARCHES, AMD_MICROARCHES, by_name
from .runner import CampaignOptions
from .runner.run import ExperimentRun
from .telemetry import (ProgressReporter, RunManifest, SPANS, diff_manifests,
                        stitch_events, stitch_to_file, summarize_manifest,
                        write_jsonl)


def _uarch(*keywords: str):
    """``--uarch``'s argparse type: a modelled µarch (any case or
    separator) or one of *keywords*, returned as typed so manifest
    configs do not move; anything else is a usage error (exit 2)."""
    def parse(text: str) -> str:
        if text not in keywords:
            try:
                by_name(text)
            except KeyError:
                known = ", ".join(keywords + tuple(u.name for u in
                                                   ALL_MICROARCHES))
                raise argparse.ArgumentTypeError(
                    f"unknown µarch {text!r} (known: {known})") from None
        return text
    return parse


def _uarch_args(default: str) -> tuple:
    return (("--uarch", dict(default=default, type=_uarch(),
                             help="microarchitecture name (e.g. 'zen 3')")),
            ("--seed", dict(type=int, default=0,
                            help="KASLR/RNG seed (a 'reboot')")))


#: The output flags every experiment command takes.
_TELEMETRY = (
    ("--json", dict(action="store_true", help="print the run manifest as "
                    "JSON (suppresses normal text output)")),
    ("--trace-out", dict(metavar="FILE", default=None, help="write the "
                         "run's phantom.trace/1 events to FILE as JSON "
                         "lines, each with its enclosing span id")),
    ("--results-dir", dict(metavar="DIR", default=None,
                           help="archive the run manifest under DIR")),
    ("--spans", dict(metavar="DIR", default=None, help="record "
                     "phantom.span/1 distributed-trace spans under DIR and "
                     "stitch them into DIR/trace.jsonl (inspect with "
                     "'repro trace summarize/export')")))


class _Run(ExperimentRun):
    """An :class:`~repro.runner.run.ExperimentRun` plus the CLI-only
    sinks: the span capture behind ``--spans`` and ``--trace-out``, the
    progress line (whenever stderr is a terminal), and the text,
    ``--json`` and ``--results-dir`` outputs.  Text is suppressed when
    ``--json`` asks for the manifest document only."""

    def __init__(self, args, command: str, machine=None, **config) -> None:
        self.options = CampaignOptions.from_args(args)
        super().__init__(command, machine=machine, jobs=self.options.jobs,
                         **config)
        self.args = args
        self.json_only = bool(getattr(args, "json", False))
        self.trace_out = getattr(args, "trace_out", None)
        self.progress = ProgressReporter(sys.stderr) \
            if sys.stderr.isatty() else None
        self._sinks = ExitStack()

    def __enter__(self) -> "_Run":
        super().__enter__()
        if self.options.spans or self.trace_out:
            span_dir = self.options.spans or self._sinks.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-trace-"))
            SPANS.start(span_dir, name=self.command,
                        events=bool(self.trace_out))
            self._sinks.push(self._finish_spans)
        # Multi-campaign commands share one kwargs dict: spec
        # fingerprints keep their journal records apart.
        self.campaign_kwargs = self.options.campaign_kwargs(
            self.command, on_job_done=None if self.progress is None
            else self.progress.on_job_done)
        return self

    def campaign(self, phase, experiment):
        if self.progress is None:
            return super().campaign(phase, experiment)
        self.progress.begin(campaign=experiment.name,
                            total=len(list(experiment.job_specs())))
        try:
            return super().campaign(phase, experiment)
        finally:
            self.progress.end()

    def _finish_spans(self, exc_type, exc, tb) -> None:
        span_dir = SPANS.finish(status="ok" if exc_type is None else "error")
        if self.trace_out:
            write_jsonl(self.trace_out, stitch_events(span_dir))
        if self.options.spans:
            self.text(f"spans: {stitch_to_file(span_dir)}")

    def text(self, line: str = "") -> None:
        if not self.json_only:
            print(line)

    def report(self, ok: bool, record: dict, lines) -> int:
        """Seal the run with outcome *record*, print its text *lines*
        and return the command's exit code."""
        self.finish("success" if ok else "failure", **record)
        for line in lines:
            self.text(line)
        return 0 if ok else 1

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            super().__exit__(exc_type, exc, tb)
            if exc_type is None:
                if self.json_only:
                    print(self.manifest.to_json())
                if self.options.results_dir:
                    path = self.manifest.write(self.options.results_dir)
                    self.text(f"manifest: {path}")
        finally:
            self._sinks.__exit__(exc_type, exc, tb)
        return False


def cmd_uarches(args) -> int:
    print(f"{'name':26s} {'model':24s} {'vendor':7s} {'clock':>6s} "
          f"{'phantom window':>15s}")
    for uarch in ALL_MICROARCHES:
        window = f"{uarch.phantom_exec_uops} uops" \
            if uarch.phantom_reaches_execute else "fetch+decode"
        print(f"{uarch.name:26s} {uarch.model:24s} {uarch.vendor:7s} "
              f"{uarch.clock_ghz:5.1f}G {window:>15s}")
    return 0


# -- experiment commands: arguments -> experiment(s) -> record -> text ------


def cmd_matrix(args) -> int:
    from .core.matrix import MatrixExperiment, format_matrix

    uarches = {"all": ALL_MICROARCHES, "amd": AMD_MICROARCHES}.get(
        args.uarch) or (by_name(args.uarch),)
    names = [u.name for u in uarches]
    with _Run(args, "matrix", uarch=args.uarch, uarches=names) as run:
        rows = [cell.to_dict() for cell in run.campaign(
            "matrix", MatrixExperiment(uarches=tuple(names)))]
        record = {"cells": len(rows),
                  "reach": dict(Counter(row["reach"] for row in rows)),
                  "jobs": run.workers}
        return run.report(True, record, format_matrix(rows).split("\n"))


def cmd_kaslr(args) -> int:
    from .core import KaslrImageExperiment
    from .kernel import Kaslr, MachineSpec

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed)
    with _Run(args, "kaslr", **spec.describe()) as run:
        result = run.campaign("break-image-kaslr",
                              KaslrImageExperiment(machine=spec))
        kaslr = Kaslr.randomize(args.seed)
        ok = result.correct(kaslr)
        record = {**result.to_dict(), "actual_base": f"{kaslr.image_base:#x}",
                  "jobs": run.workers}
        return run.report(ok, record, [
            f"guessed image base: {record['guessed_base']}",
            f"actual image base:  {record['actual_base']}",
            f"{'SUCCESS' if ok else 'FAILURE'} in "
            f"{record['simulated_ms']:.2f} simulated ms"])


def _has_execute_window(args) -> bool:
    """P2 and P3 need a phantom window that reaches execute (Zen 1/2);
    on any other µarch say so on one stderr line, before any campaign."""
    uarch = by_name(args.uarch)
    if not uarch.phantom_reaches_execute:
        print(f"{args.command}: the {uarch.name} phantom window does not "
              f"reach execute; P2/P3 need Zen 1 or Zen 2", file=sys.stderr)
    return uarch.phantom_reaches_execute


def _break_kaslr(run, spec):
    """§7.1 then §7.2: the kernel image base, then the physmap base."""
    from .core import KaslrImageExperiment, PhysmapExperiment

    image = run.campaign("break-image-kaslr",
                         KaslrImageExperiment(machine=spec))
    return image, run.campaign("break-physmap-kaslr", PhysmapExperiment(
        machine=spec, image_base=image.guessed_base))


def cmd_physmap(args) -> int:
    from .kernel import Kaslr, MachineSpec

    if not _has_execute_window(args):
        return 2
    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed)
    with _Run(args, "physmap", **spec.describe()) as run:
        _, result = _break_kaslr(run, spec)
        kaslr = Kaslr.randomize(args.seed)
        ok = result.correct(kaslr)
        record = {**result.to_dict(),
                  "actual_physmap": f"{kaslr.physmap_base:#x}",
                  "jobs": run.workers}
        return run.report(ok, record, [
            f"guessed physmap: {record['guessed_physmap']}",
            f"actual physmap:  {record['actual_physmap']}",
            f"{'SUCCESS' if ok else 'FAILURE'} after "
            f"{record['candidates_scanned']} candidates, "
            f"{record['simulated_ms']:.2f} simulated ms"])


def cmd_leak(args) -> int:
    from .core import MdsLeakExperiment, PhysAddrExperiment
    from .kernel import MachineSpec

    if not _has_execute_window(args):
        return 2
    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed,
                       phys_mem=1 << 30)
    with _Run(args, "leak", n_bytes=args.bytes, **spec.describe()) as run:
        image, physmap = _break_kaslr(run, spec)
        bases = dict(machine=spec, image_base=image.guessed_base,
                     physmap_base=physmap.guessed_base)
        run.campaign("find-physical-address", PhysAddrExperiment(
            **bases, buffer_va=0x0000_0000_7A00_0000))
        result = run.campaign("leak-kernel-memory", MdsLeakExperiment(
            **bases, n_bytes=args.bytes))
        record = {**result.to_dict(),
                  "first_32_bytes": result.leaked[:32].hex(),
                  "jobs": run.workers}
        return run.report(record["accuracy"] == 1.0, record, [
            f"leaked {record['bytes']} bytes, accuracy "
            f"{record['accuracy'] * 100:.1f}%, "
            f"{record['bytes_per_second']:,.0f} B/s simulated",
            f"first 32 bytes: {record['first_32_bytes']}"])


def cmd_covert(args) -> int:
    from .core import CovertExperiment
    from .kernel import MachineSpec

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed,
                       sibling_load=True)
    channels = [("fetch", spec, 1)]
    if by_name(args.uarch).phantom_reaches_execute:
        channels.append(("execute", spec.with_(sibling_load=False), 2))
    with _Run(args, "covert", n_bits=args.bits, **spec.describe()) as run:
        record, lines = {"jobs": None}, []
        for channel, machine, seed in channels:
            result = run.campaign(f"{channel}-channel", CovertExperiment(
                machine=machine, channel=channel, n_bits=args.bits,
                seed=seed))
            record["jobs"] = run.workers
            record[f"{channel}_accuracy"] = result.accuracy
            record[f"{channel}_bits_per_second"] = result.bits_per_second
            lines.append(
                f"{channel + ' channel:':17s}accuracy "
                f"{record[f'{channel}_accuracy'] * 100:6.2f}%  "
                f"{record[f'{channel}_bits_per_second']:,.0f} bits/s "
                f"simulated")
        return run.report(True, record, lines)


def cmd_rev_btb(args) -> int:
    from .frontend import BTB
    from .isa import BranchKind
    from .revtools import recover_functions, solve_alias_pattern

    uarch = by_name(args.uarch)

    def oracle(a: int, b: int) -> bool:
        btb = BTB(uarch.btb)
        btb.train(a, BranchKind.INDIRECT, 0x4000, kernel_mode=False)
        return btb.lookup(b, kernel_mode=False) is not None

    with _Run(args, "rev-btb", uarch=uarch.name,
              samples=args.samples, seed=args.seed) as run:
        with run.phase("recover-functions"):
            kernel_addr = 0xFFFF_FFFF_8123_4AC0 & ((1 << 48) - 1)
            recovered = recover_functions(
                oracle, [kernel_addr, kernel_addr ^ 0x40_0000],
                samples_per_addr=args.samples,
                rng=random.Random(args.seed))
        with run.phase("solve-alias-pattern"):
            alias = solve_alias_pattern(recovered.masks)
        record = {"alias_pattern": f"{alias:#018x}",
                  "masks": len(recovered.masks)}
        return run.report(True, record, recovered.formatted() + [
            f"alias pattern: K ^ {record['alias_pattern']}"])


def cmd_gadgets(args) -> int:
    from .analysis import generate_corpus, scan_corpus

    with _Run(args, "gadgets", functions=args.functions,
              seed=args.seed) as run:
        with run.phase("generate-corpus"):
            corpus = generate_corpus(total=args.functions, seed=args.seed)
        with run.phase("scan-corpus"):
            summary = scan_corpus(corpus.image, corpus.entries)
        record = {name: getattr(summary, name) for name in (
            "spectre_v1", "mds_single_load", "phantom_exploitable",
            "amplification")}
        return run.report(True, record, [
            f"functions scanned:        {args.functions}",
            f"conventional v1 gadgets:  {record['spectre_v1']}",
            f"single-load MDS gadgets:  {record['mds_single_load']}",
            f"Phantom-exploitable:      {record['phantom_exploitable']} "
            f"({record['amplification']:.2f}x)"])


def cmd_trace(args) -> int:
    from .analysis import Tracer
    from .kernel import Machine

    machine = Machine(by_name(args.uarch), kaslr_seed=args.seed)
    with _Run(args, "trace", machine, syscall_nr=args.nr,
              limit=args.limit) as run:
        with run.phase("trace-syscall"):
            with Tracer(machine, limit=args.limit) as trace:
                machine.syscall(args.nr, args.rdi, args.rsi)
        record = {"instructions": len(trace.entries),
                  "episodes": trace.episode_count(),
                  "truncated": trace.truncated,
                  "dropped_instructions": trace.dropped_instructions,
                  "orphan_episodes": len(trace.orphan_episodes)}
        return run.report(True, record, trace.render().split("\n"))


def cmd_trace_summarize(args) -> int:
    from .telemetry import read_spans, stitch, summarize_trace

    records = read_spans(args.spans)
    if not records:
        print(f"trace: no phantom.span/1 records under {args.spans}",
              file=sys.stderr)
        return 2
    print("\n".join(summarize_trace(stitch(records))))
    return 0


def cmd_trace_export(args) -> int:
    import json

    from .telemetry import read_spans, to_chrome_trace, to_openmetrics

    if args.format == "perfetto":
        records = read_spans(args.source)
        if not records:
            print(f"trace: no phantom.span/1 records under {args.source}",
                  file=sys.stderr)
            return 2
        text = json.dumps(to_chrome_trace(records), indent=2) + "\n"
    else:
        try:
            doc = RunManifest.load(args.source)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"trace: cannot read manifest {args.source}: {exc}",
                  file=sys.stderr)
            return 2
        text = to_openmetrics(doc.get("metrics", {}),
                              pmc=doc.get("pmc") or None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_fuzz(args) -> int:
    """Engine-differential or (``--contract``) relational fuzzing; both
    modes replay, shrink and save findings through one loop."""
    import time
    from functools import partial

    from . import fuzz

    if args.mitigation and not args.contract:
        print("fuzz: --mitigation requires --contract", file=sys.stderr)
        return 2
    uarches = tuple(args.uarch) if args.uarch else fuzz.DEFAULT_UARCHES
    config = dict(seed=args.seed, iters=args.iters, uarches=list(uarches),
                  shape=args.shape)
    on = ", ".join(uarches)
    if args.contract:
        from .kernel import mitigation_by_name

        contract = fuzz.contract_by_name(args.contract)
        override = mitigation_by_name(args.mitigation) \
            if args.mitigation else None
        effective = override if override is not None \
            else contract.resolve_mitigation()
        config.update(contract=contract.name, mitigation=effective.name)
        experiment = fuzz.ContractExperiment(
            seed=args.seed, count=args.iters, contract=contract.name,
            shape=args.shape, uarches=uarches, mitigation=args.mitigation)
        phase, keys, unit = ("contract-fuzz", ("pairs", "violations",
                                               "violated_indices"), "pair")
        generate = partial(fuzz.generate_pair, shape=args.shape)
        seed_of = fuzz.pair_seed
        check = partial(fuzz.check_pair, contract=contract, uarches=uarches,
                        mitigation=override)
        shrink = partial(fuzz.shrink_pair, uarches=uarches,
                         mitigation=override)
        save = fuzz.save_violation
        heading = (f"CONTRACT VIOLATION at index {{}}: {{}} "
                   f"[{contract.name} / {effective.name}]")
        summary = (f"against '{contract.name}' (mitigation "
                   f"{effective.name}) on {on}: {{}} violation(s)")
    else:
        experiment = fuzz.FuzzExperiment(seed=args.seed, count=args.iters,
                                         shape=args.shape, uarches=uarches)
        phase, keys, unit = ("fuzz", ("programs", "divergent",
                                      "failed_indices"), "oracle")
        generate = partial(fuzz.generate, shape=args.shape)
        seed_of = fuzz.program_seed
        check = partial(fuzz.oracle.check_program, uarches=uarches)
        shrink = partial(fuzz.shrink, uarches=uarches)

        def save(program, verdict, directory, shrink_checks):
            return fuzz.save_counterexample(
                program, [str(d) for d in verdict.divergences], directory,
                shrink_checks=shrink_checks)

        heading = "DIVERGENCE at index {}: {}"
        summary = f"on {on}: {{}} divergence(s)"

    with _Run(args, "fuzz", **config) as run:
        started = time.monotonic()
        # Fixed chunks, so the manifest is the same at any --jobs; long
        # sweeps checkpoint through --results-dir and pick up where
        # they left off with --resume.
        outcome = run.campaign(phase, experiment)
        cases = [(index, generate(seed_of(args.seed, index)))
                 for index in outcome[keys[2]]]
        found = [(index, case, check(case)) for index, case in cases]
        artifacts = []
        for index, case, verdict in found:
            run.text(heading.format(index, case.name))
            for divergence in verdict.divergences[:8]:
                run.text(f"  {divergence}")
            shrink_checks = 0
            if not args.no_shrink:
                result = shrink(case, verdict)
                run.text(f"  shrunk {result.items_before} -> "
                         f"{result.items_after} items "
                         f"({result.checks} {unit} checks)")
                shrink_checks = result.checks
                if args.contract:
                    # Re-verdict the shrunk pair so the shipped artifact's
                    # divergences describe the program it contains.
                    case = result.pair
                    verdict = check(case)
                else:
                    case = result.program
            artifacts.append(str(save(case, verdict, args.artifact_dir,
                                      shrink_checks=shrink_checks)))
            run.text(f"  wrote {artifacts[-1]}")
        elapsed = time.monotonic() - started
        record = {keys[0]: outcome[keys[0]], keys[1]: len(found),
                  keys[2]: [index for index, _, _ in found],
                  "artifacts": artifacts,
                  "elapsed_seconds": round(elapsed, 3)}
        return run.report(not found, record, [
            f"checked {outcome[keys[0]]}/{args.iters} {keys[0]} "
            f"{summary.format(len(found))} in {elapsed:.1f}s"])


def cmd_contracts(args) -> int:
    """List the leakage-contract and mitigation registries."""
    from .fuzz import CONTRACTS
    from .kernel import MITIGATIONS

    print(f"{'contract':18s} {'mitigation':14s} protected channels")
    for contract in CONTRACTS:
        print(f"{contract.name:18s} {contract.mitigation:14s} "
              f"{', '.join(contract.protects)}")
    print()
    print(f"{'mitigation':14s} {'mechanism':36s} config toggles")
    for mitigation in MITIGATIONS:
        toggles = ", ".join(mitigation.toggles) or "(baseline)"
        print(f"{mitigation.name:14s} {mitigation.mechanism:36s} {toggles}")
    return 0


def cmd_bench(args) -> int:
    import json

    from .bench import (TOLERANCE, WORKLOADS, compare, document,
                        format_table, load_document, run_bench)

    results = run_bench(tuple(args.workloads or WORKLOADS))
    print(format_table(results))
    doc = document(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.baseline:
        try:
            baseline = load_document(args.baseline)
            problems = compare(doc, baseline)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"bench: cannot compare against {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        if problems:
            for line in problems:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"no speedup regression vs {args.baseline} "
              f"(tolerance {TOLERANCE:.0%})")
    return 0


def cmd_stats(args) -> int:
    import json

    from .bench import diff_bench, is_bench_document, summarize_bench
    from .telemetry import SchemaError, validate_manifest

    if len(args.manifest) > 2:
        print("stats takes one document (summary) or two (diff)",
              file=sys.stderr)
        return 2
    docs = []
    for path in args.manifest:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not is_bench_document(doc):
                validate_manifest(doc)
        except OSError as exc:
            print(f"stats: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"stats: {path} is not JSON: {exc}", file=sys.stderr)
            return 2
        except SchemaError as exc:
            reason = str(exc).splitlines()[0]
            print(f"stats: {path} is not a run manifest or bench "
                  f"document: {reason}", file=sys.stderr)
            return 2
        docs.append(doc)
    kinds = {is_bench_document(doc) for doc in docs}
    if len(kinds) > 1:
        print("stats: cannot diff a run manifest against a bench "
              "document", file=sys.stderr)
        return 2
    if kinds == {True}:
        print(summarize_bench(*docs) if len(docs) == 1 else diff_bench(*docs))
    else:
        print("\n".join(summarize_manifest(*docs) if len(docs) == 1
                        else diff_manifests(*docs)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .bench import WORKLOADS
    from .fuzz import SHAPES, contract_names
    from .kernel import mitigation_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phantom (MICRO'23) reproduction on a simulated "
                    "microarchitecture")
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> (help, command, --jobs default (None: not a campaign
    # command), arguments, subcommands in the same layout).
    commands = {
        "uarches": ("list modelled CPUs", cmd_uarches, None, ()),
        "matrix": ("Table 1 speculation matrix", cmd_matrix, 0, (
            ("--uarch", dict(default="amd", type=_uarch("all", "amd"),
                             help="'all', 'amd', or one name")),
            *_TELEMETRY)),
        "kaslr": ("break kernel-image KASLR (§7.1)", cmd_kaslr, 0,
                  _uarch_args("zen 3") + _TELEMETRY),
        "physmap": ("break physmap KASLR (§7.2)", cmd_physmap, 0,
                    _uarch_args("zen 2") + _TELEMETRY),
        "leak": ("full §7 chain: leak kernel memory", cmd_leak, 0, (
            *_uarch_args("zen 2"), ("--bytes", dict(type=int, default=128)),
            *_TELEMETRY)),
        "covert": ("covert-channel capacity (§6.4)", cmd_covert, 0, (
            *_uarch_args("zen 4"), ("--bits", dict(type=int, default=1024)),
            *_TELEMETRY)),
        "rev-btb": ("recover BTB functions (§6.2)", cmd_rev_btb, None, (
            *_uarch_args("zen 3"),
            ("--samples", dict(type=int, default=200_000)), *_TELEMETRY)),
        "gadgets": ("gadget census (§9.3)", cmd_gadgets, None, (
            ("--functions", dict(type=int, default=400)),
            ("--seed", dict(type=int, default=0)), *_TELEMETRY)),
        "trace": ("trace a syscall's speculation, or inspect a --spans "
                  "capture (summarize/export)", cmd_trace, None, (
            *_uarch_args("zen 2"),
            ("--nr", dict(type=int, default=39, help="syscall number")),
            ("--rdi", dict(type=int, default=0)),
            ("--rsi", dict(type=int, default=0)),
            ("--limit", dict(type=int, default=200)), *_TELEMETRY), {
            "summarize": ("critical path + per-phase histogram table from "
                          "a span capture", cmd_trace_summarize, None, (
                ("spans", dict(help="span capture directory (--spans DIR "
                               "of a previous run) or a single span .jsonl "
                               "file")),)),
            "export": ("export a span capture (Perfetto) or a run "
                       "manifest's metrics (OpenMetrics)", cmd_trace_export,
                       None, (
                ("source", dict(help="span capture dir or .jsonl "
                                "(perfetto), or a run manifest "
                                "(openmetrics)")),
                ("--format", dict(choices=("perfetto", "openmetrics"),
                                  default="perfetto", help="output format "
                                  "(default perfetto — Chrome trace-event "
                                  "JSON for ui.perfetto.dev)")),
                ("--out", dict(metavar="FILE", default=None,
                               help="write to FILE instead of stdout"))))}),
        "fuzz": ("differential fuzz the dual-engine simulator", cmd_fuzz, 1, (
            ("--seed", dict(type=int, default=0, help="campaign seed "
                            "(program i gets a seed derived from this and "
                            "i only)")),
            ("--iters", dict(type=int, default=200, help="number of "
                             "generated programs (default 200)")),
            ("--shape", dict(default=None, choices=SHAPES, help="restrict "
                             "the generator to one program shape")),
            ("--uarch", dict(action="append", default=None, metavar="NAME",
                             type=_uarch(), help="µarch to include in the "
                             "oracle matrix (repeatable; default: zen2 and "
                             "zen3)")),
            ("--artifact-dir", dict(default="fuzz-artifacts", metavar="DIR",
                                    help="where minimized counterexamples "
                                    "are written")),
            ("--no-shrink", dict(action="store_true", help="write "
                                 "counterexamples without minimizing them")),
            ("--contract", dict(default=None, choices=contract_names(),
                                metavar="NAME", help="relational mode: "
                                "check public-equivalent secret-divergent "
                                "input pairs against leakage contract NAME "
                                "(see 'repro contracts')")),
            ("--mitigation", dict(default=None, choices=mitigation_names(),
                                  metavar="NAME", help="override the "
                                  "contract's mitigation setting (requires "
                                  "--contract)")),
            *_TELEMETRY)),
        "contracts": ("list leakage contracts and the mitigation registry",
                      cmd_contracts, None, (), {
                          "list": ("contract and mitigation tables",
                                   cmd_contracts, None, ())}),
        "bench": ("simulator throughput: fast vs naive engine", cmd_bench,
                  None, (
            ("--out", dict(metavar="FILE", default=None, help="write the "
                           "phantom.bench/1 document to FILE")),
            ("--baseline", dict(metavar="FILE", default=None, help="compare "
                                "speedups against a committed "
                                "phantom.bench/1 document; exit 1 on a "
                                "speedup drop over 30%%")),
            ("--workloads", dict(nargs="+", metavar="NAME", default=None,
                                 choices=WORKLOADS, help="subset of "
                                 "workloads to run (default: all)")))),
        "stats": ("summarize one run manifest or bench document, or diff "
                  "two", cmd_stats, None, (
            ("manifest", dict(nargs="+", help="run manifest(s) written by "
                              "--json/--results-dir, or phantom.bench/1 "
                              "document(s) from `repro bench --out`")),)),
    }

    def add(subparsers, name, help_text, command, jobs, arguments,
            children=None):
        p = subparsers.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        if jobs is not None:
            CampaignOptions.add_arguments(p, jobs_default=jobs)
        p.set_defaults(fn=command)
        if children:
            nested = p.add_subparsers(dest=f"{name}_command")
            for child, entry in children.items():
                add(nested, child, *entry)

    for name, entry in commands.items():
        add(sub, name, *entry)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .runner import CampaignInterrupted

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:   # e.g. `repro stats ... | head`
        return 0
    except CampaignInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        if exc.checkpoint:
            print(f"repro: rerun with --resume {exc.checkpoint} to "
                  f"pick up where this run stopped", file=sys.stderr)
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc.__cause__, BrokenProcessPool):
            return 1
        return 130   # what the shell reports for an uncaught SIGINT


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
