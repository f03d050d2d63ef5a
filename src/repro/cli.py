"""Command-line interface: ``python -m repro <command>``.

Every command drives the public API; nothing here adds behaviour.

Commands
--------

* ``matrix``    — Table 1's speculation matrix (choose µarchs)
* ``kaslr``     — §7.1 kernel-image derandomization
* ``physmap``   — §7.2 physmap derandomization (Zen 1/2)
* ``leak``      — the full §7 chain ending in a kernel-memory leak
* ``covert``    — §6.4 covert-channel capacity
* ``rev-btb``   — §6.2 BTB function recovery (Figure 7)
* ``gadgets``   — §9.3 gadget census over a synthetic corpus
* ``trace``     — run a syscall under the execution tracer; the
  ``summarize`` / ``export`` subcommands inspect a ``--spans`` capture
  (critical path, Perfetto JSON, OpenMetrics)
* ``fuzz``      — differential fuzz the dual-engine simulator
* ``stats``     — summarize one run manifest, or diff two
* ``bench``     — simulator throughput: fast path vs naive interpreter
* ``uarches``   — list the modelled microarchitectures

Every experiment command accepts ``--json`` (print a
``phantom.run-manifest/1`` document instead of text), ``--trace-out
FILE`` (stream a ``phantom.trace/1`` JSON-lines event trace), and
``--results-dir DIR`` (archive the manifest).  Campaign commands
(``matrix``, ``kaslr``, ``physmap``, ``leak``, ``covert``, ``fuzz``)
also take ``--jobs N`` to shard their jobs across worker processes
(0 = one per available CPU; results are identical at any worker
count), and — with ``--results-dir`` — journal every finished job to
``DIR/<command>-checkpoint.jsonl`` (flushed as each job finishes);
``--resume CHECKPOINT`` skips the jobs already journaled there (see
``docs/resilience.md``).  ``--trace-out`` needs a single worker: with
``--jobs`` resolving to more it is a usage error (exit 2).  Every
``fuzz`` run, serial or not, is one such campaign, so its manifest is
the same at any ``--jobs``.  Ctrl-C
with a checkpoint active exits 130 after printing the resume command; a
worker process that dies does the same but exits 1.

Observability (see ``docs/observability.md``): ``--spans DIR`` records
``phantom.span/1`` distributed-trace spans across every worker and
stitches them into ``DIR/trace.jsonl``; ``--progress FILE`` streams
``phantom.progress/1`` job-completion events (plus a live progress bar
whenever stderr is a terminal).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .pipeline import ALL_MICROARCHES, AMD_MICROARCHES, by_name
from .runner import CampaignOptions
from .telemetry import (JsonLinesSink, ProgressReporter, REGISTRY,
                        RunManifest, SPANS, TRACE, diff_manifests,
                        stitch_to_file, summarize_manifest)


def _add_uarch(parser, default="zen 2", choices_amd_only=False):
    parser.add_argument("--uarch", default=default,
                        help="microarchitecture name (e.g. 'zen 3')")
    parser.add_argument("--seed", type=int, default=0,
                        help="KASLR/RNG seed (a 'reboot')")


def _add_telemetry(parser):
    parser.add_argument("--json", action="store_true",
                        help="print the run manifest as JSON "
                             "(suppresses normal text output)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a phantom.trace/1 JSON-lines event "
                             "trace to FILE (campaigns: with --jobs 1)")
    parser.add_argument("--results-dir", metavar="DIR", default=None,
                        help="archive the run manifest under DIR")
    parser.add_argument("--spans", metavar="DIR", default=None,
                        help="record phantom.span/1 distributed-trace "
                             "spans under DIR and stitch them into "
                             "DIR/trace.jsonl (inspect with "
                             "'repro trace summarize/export')")
    parser.add_argument("--progress", metavar="FILE", default=None,
                        help="stream phantom.progress/1 job-completion "
                             "events to FILE ('-' = stdout, a number = "
                             "an inherited fd); a single-line progress "
                             "bar additionally renders whenever stderr "
                             "is a terminal")


def _progress_reporter(args) -> "ProgressReporter | None":
    """The reporter implied by ``--progress`` and/or a TTY, or ``None``.

    Returns ``None`` when there is nowhere to report to, so headless
    runs construct nothing and stay byte-identical to pre-progress
    behaviour.
    """
    stream = None
    target = getattr(args, "progress", None)
    if target == "-":
        stream = sys.stdout
    elif target and target.isdigit():
        stream = os.fdopen(int(target), "w", encoding="utf-8")
    elif target:
        stream = open(target, "w", encoding="utf-8")
    tty = sys.stderr if sys.stderr.isatty() else None
    if stream is None and tty is None:
        return None
    return ProgressReporter(stream=stream, tty=tty)


def _fuzz_shapes():
    from .fuzz import SHAPES
    return SHAPES


def _fuzz_contracts():
    from .fuzz import contract_names
    return contract_names()


def _mitigation_names():
    from .kernel import mitigation_names
    return mitigation_names()


class _Run:
    """Telemetry harness shared by every experiment command.

    Enables the process metrics registry for the duration of the run,
    attaches the ``--trace-out`` sink, opens the ``--spans`` root span
    and the ``--progress`` reporter, builds the run manifest, and
    routes text output (suppressed when ``--json`` asks for the
    manifest document only).
    """

    def __init__(self, args, command: str, machine=None,
                 **extra_config) -> None:
        self.args = args
        self.command = command
        self.machine = machine
        self.extra_config = extra_config
        self.options = CampaignOptions.from_args(args)
        self.json_only = bool(getattr(args, "json", False))
        self._sink = None
        self._absorbed: list[dict] = []
        self.manifest: RunManifest | None = None
        self.progress: ProgressReporter | None = None
        self._progress_stream = None
        self._owns_spans = False

    def __enter__(self) -> "_Run":
        REGISTRY.reset()
        if self.machine is not None:
            REGISTRY.set_base_labels(uarch=self.machine.uarch.name)
        REGISTRY.enable()
        trace_out = getattr(self.args, "trace_out", None)
        if trace_out:
            self._sink = JsonLinesSink(trace_out)
            TRACE.add_sink(self._sink)
        spans_dir = getattr(self.args, "spans", None)
        if spans_dir:
            SPANS.start(spans_dir, name=self.command)
            self._owns_spans = True
        self.progress = _progress_reporter(self.args)
        if self.progress is not None:
            self._progress_stream = self.progress.stream
        self.manifest = RunManifest.begin(self.command,
                                          machine=self.machine,
                                          **self.extra_config)
        return self

    def phase(self, name: str):
        return self.manifest.phase(name, machine=self.machine)

    def campaign_kwargs(self, command: str | None = None) -> dict:
        """This run's :class:`~repro.runner.CampaignOptions`, rendered
        into ``run_campaign`` keywords (checkpoint journal under
        ``--results-dir``, resume source, the live progress reporter).
        Multi-campaign commands pass one dict to every campaign — spec
        fingerprints keep their journal records apart."""
        return self.options.campaign_kwargs(command or self.command,
                                            progress=self.progress)

    def text(self, line: str = "") -> None:
        if not self.json_only:
            print(line)

    def absorb(self, campaign) -> None:
        """Fold a :class:`repro.runner.CampaignResult`'s merged manifest
        into this run's manifest at finish time.  The jobs' metrics
        live in the absorbed document, so the process registry is reset
        to keep the final snapshot from counting the last job twice.
        It is then re-enabled: an in-process (--jobs 1) campaign leaves
        the registry disabled after its last job, and any post-campaign
        work (violation replay, shrinking) must be metered identically
        at every worker count."""
        self._absorbed.append(campaign.manifest)
        REGISTRY.reset()
        REGISTRY.enable()

    def finish(self, status: str, **outcome) -> None:
        self.manifest.finish(status, machine=self.machine, **outcome)
        while self._absorbed:
            self.manifest.absorb(self._absorbed.pop(0))

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if exc_type is None:
                if self.manifest.outcome.get("status") == "unknown":
                    self.finish("success")
                if self.json_only:
                    print(self.manifest.to_json())
                results_dir = getattr(self.args, "results_dir", None)
                if results_dir:
                    path = self.manifest.write(results_dir)
                    self.text(f"manifest: {path}")
        finally:
            if self._sink is not None:
                TRACE.remove_sink(self._sink)
                self._sink.close()
                self._sink = None
            if self.progress is not None:
                self.progress.close()
                if self._progress_stream not in (None, sys.stdout):
                    try:
                        self._progress_stream.close()
                    except OSError:
                        pass
                self.progress = None
            if self._owns_spans:
                span_dir = SPANS.finish(
                    status="ok" if exc_type is None else "error")
                self._owns_spans = False
                if span_dir is not None:
                    self.text(f"spans: {stitch_to_file(span_dir)}")
            REGISTRY.disable()
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


def cmd_matrix(args) -> int:
    from .core.matrix import MatrixExperiment, format_matrix
    from .runner import run_campaign

    if args.uarch == "all":
        uarches = ALL_MICROARCHES
    elif args.uarch == "amd":
        uarches = AMD_MICROARCHES
    else:
        uarches = (by_name(args.uarch),)
    with _Run(args, "matrix", uarch=args.uarch,
              uarches=[u.name for u in uarches]) as run:
        with run.phase("matrix"):
            campaign = run_campaign(
                MatrixExperiment(uarches=tuple(u.name for u in uarches)),
                jobs=args.jobs, **run.campaign_kwargs())
        run.absorb(campaign)
        results = campaign.raise_on_failure().value
        reach: dict[str, int] = {}
        for cell in results:
            reach[cell.reach.name] = reach.get(cell.reach.name, 0) + 1
        run.finish("success", cells=len(results), reach=reach,
                   jobs=campaign.jobs)
        run.text(format_matrix(results))
    return 0


def cmd_kaslr(args) -> int:
    from .core import KaslrImageExperiment
    from .kernel import Kaslr, MachineSpec
    from .runner import run_campaign

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed)
    with _Run(args, "kaslr", **spec.describe()) as run:
        with run.phase("break-image-kaslr"):
            campaign = run_campaign(KaslrImageExperiment(machine=spec),
                                    jobs=args.jobs,
                                    **run.campaign_kwargs())
        run.absorb(campaign)
        result = campaign.raise_on_failure().value
        kaslr = Kaslr.randomize(args.seed)
        ok = result.correct(kaslr)
        run.finish("success" if ok else "failure", **result.to_dict(),
                   actual_base=f"{kaslr.image_base:#x}",
                   jobs=campaign.jobs)
        run.text(f"guessed image base: {result.guessed_base:#x}")
        run.text(f"actual image base:  {kaslr.image_base:#x}")
        run.text(f"{'SUCCESS' if ok else 'FAILURE'} in "
                 f"{result.seconds * 1000:.2f} simulated ms")
    return 0 if ok else 1


def cmd_physmap(args) -> int:
    from .core import KaslrImageExperiment, PhysmapExperiment
    from .kernel import Kaslr, MachineSpec
    from .runner import run_campaign

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed)
    with _Run(args, "physmap", **spec.describe()) as run:
        resilience = run.campaign_kwargs()
        with run.phase("break-image-kaslr"):
            image_campaign = run_campaign(
                KaslrImageExperiment(machine=spec), jobs=args.jobs,
                **resilience)
        run.absorb(image_campaign)
        image = image_campaign.raise_on_failure().value
        with run.phase("break-physmap-kaslr"):
            campaign = run_campaign(
                PhysmapExperiment(machine=spec,
                                  image_base=image.guessed_base),
                jobs=args.jobs, **resilience)
        run.absorb(campaign)
        result = campaign.raise_on_failure().value
        kaslr = Kaslr.randomize(args.seed)
        ok = result.correct(kaslr)
        run.finish("success" if ok else "failure", **result.to_dict(),
                   actual_physmap=f"{kaslr.physmap_base:#x}",
                   jobs=campaign.jobs)
        run.text(f"guessed physmap: "
                 f"{result.guessed_base and hex(result.guessed_base)}")
        run.text(f"actual physmap:  {kaslr.physmap_base:#x}")
        run.text(f"{'SUCCESS' if ok else 'FAILURE'} after "
                 f"{result.candidates_scanned} candidates, "
                 f"{result.seconds * 1000:.2f} simulated ms")
    return 0 if ok else 1


def cmd_leak(args) -> int:
    from .core import (KaslrImageExperiment, MdsLeakExperiment,
                       PhysAddrExperiment, PhysmapExperiment)
    from .kernel import MachineSpec
    from .runner import run_campaign

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed,
                       phys_mem=1 << 30)
    with _Run(args, "leak", n_bytes=args.bytes, **spec.describe()) as run:
        resilience = run.campaign_kwargs()
        with run.phase("break-image-kaslr"):
            image_campaign = run_campaign(
                KaslrImageExperiment(machine=spec), jobs=args.jobs,
                **resilience)
        run.absorb(image_campaign)
        image = image_campaign.raise_on_failure().value
        with run.phase("break-physmap-kaslr"):
            physmap_campaign = run_campaign(
                PhysmapExperiment(machine=spec,
                                  image_base=image.guessed_base),
                jobs=args.jobs, **resilience)
        run.absorb(physmap_campaign)
        physmap = physmap_campaign.raise_on_failure().value
        with run.phase("find-physical-address"):
            buffer_va = 0x0000_0000_7A00_0000
            physaddr_campaign = run_campaign(
                PhysAddrExperiment(machine=spec,
                                   image_base=image.guessed_base,
                                   physmap_base=physmap.guessed_base,
                                   buffer_va=buffer_va),
                jobs=args.jobs, **resilience)
        run.absorb(physaddr_campaign)
        physaddr_campaign.raise_on_failure()
        with run.phase("leak-kernel-memory"):
            campaign = run_campaign(
                MdsLeakExperiment(machine=spec,
                                  image_base=image.guessed_base,
                                  physmap_base=physmap.guessed_base,
                                  n_bytes=args.bytes),
                jobs=args.jobs, **resilience)
        run.absorb(campaign)
        result = campaign.raise_on_failure().value
        ok = result.accuracy == 1.0
        run.finish("success" if ok else "failure", **result.to_dict(),
                   first_32_bytes=result.leaked[:32].hex(),
                   jobs=campaign.jobs)
        run.text(f"leaked {len(result.leaked)} bytes, accuracy "
                 f"{result.accuracy * 100:.1f}%, "
                 f"{result.bytes_per_second:,.0f} B/s simulated")
        run.text(f"first 32 bytes: {result.leaked[:32].hex()}")
    return 0 if ok else 1


def cmd_covert(args) -> int:
    from .core import CovertExperiment
    from .kernel import MachineSpec
    from .runner import run_campaign

    spec = MachineSpec(uarch=args.uarch, kaslr_seed=args.seed,
                       sibling_load=True)
    with _Run(args, "covert", n_bits=args.bits, **spec.describe()) as run:
        resilience = run.campaign_kwargs()
        outcome = {"jobs": None}
        with run.phase("fetch-channel"):
            campaign = run_campaign(
                CovertExperiment(machine=spec, channel="fetch",
                                 n_bits=args.bits, seed=1),
                jobs=args.jobs, **resilience)
        run.absorb(campaign)
        outcome["jobs"] = campaign.jobs
        result = campaign.raise_on_failure().value
        outcome["fetch_accuracy"] = result.accuracy
        outcome["fetch_bits_per_second"] = result.bits_per_second
        run.text(f"fetch channel:   accuracy {result.accuracy * 100:6.2f}%  "
                 f"{result.bits_per_second:,.0f} bits/s simulated")
        if by_name(args.uarch).phantom_reaches_execute:
            with run.phase("execute-channel"):
                campaign = run_campaign(
                    CovertExperiment(machine=spec.with_(sibling_load=False),
                                     channel="execute",
                                     n_bits=args.bits, seed=2),
                    jobs=args.jobs, **resilience)
            run.absorb(campaign)
            result = campaign.raise_on_failure().value
            outcome["execute_accuracy"] = result.accuracy
            outcome["execute_bits_per_second"] = result.bits_per_second
            run.text(f"execute channel: accuracy "
                     f"{result.accuracy * 100:6.2f}%  "
                     f"{result.bits_per_second:,.0f} bits/s simulated")
        run.finish("success", **outcome)
    return 0


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
        run.finish("success", alias_pattern=f"{alias:#018x}",
                   masks=len(recovered.masks))
        for line in recovered.formatted():
            run.text(line)
        run.text(f"alias pattern: K ^ {alias:#018x}")
    return 0


def cmd_gadgets(args) -> int:
    from .analysis import generate_corpus, scan_corpus

    with _Run(args, "gadgets", functions=args.functions,
              seed=args.seed) as run:
        with run.phase("generate-corpus"):
            corpus = generate_corpus(total=args.functions, seed=args.seed)
        with run.phase("scan-corpus"):
            summary = scan_corpus(corpus.image, corpus.entries)
        run.finish("success", spectre_v1=summary.spectre_v1,
                   mds_single_load=summary.mds_single_load,
                   phantom_exploitable=summary.phantom_exploitable,
                   amplification=summary.amplification)
        run.text(f"functions scanned:        {args.functions}")
        run.text(f"conventional v1 gadgets:  {summary.spectre_v1}")
        run.text(f"single-load MDS gadgets:  {summary.mds_single_load}")
        run.text(f"Phantom-exploitable:      {summary.phantom_exploitable} "
                 f"({summary.amplification:.2f}x)")
    return 0


def cmd_trace(args) -> int:
    from .analysis import Tracer
    from .kernel import Machine

    machine = Machine(by_name(args.uarch), kaslr_seed=args.seed)
    with _Run(args, "trace", machine, syscall_nr=args.nr,
              limit=args.limit) as run:
        with run.phase("trace-syscall"):
            with Tracer(machine, limit=args.limit) as trace:
                machine.syscall(args.nr, args.rdi, args.rsi)
        run.finish("success",
                   instructions=len(trace.entries),
                   episodes=trace.episode_count(),
                   truncated=trace.truncated,
                   dropped_instructions=trace.dropped_instructions,
                   orphan_episodes=len(trace.orphan_episodes))
        run.text(trace.render())
    return 0


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
    import time

    from .fuzz import (DEFAULT_UARCHES, FuzzExperiment, generate, oracle,
                       program_seed, save_counterexample, shrink)
    from .runner import run_campaign

    if args.contract:
        return _cmd_fuzz_contract(args)
    if args.mitigation:
        print("fuzz: --mitigation requires --contract", file=sys.stderr)
        return 2

    uarches = tuple(args.uarch) if args.uarch else DEFAULT_UARCHES
    with _Run(args, "fuzz", seed=args.seed, iters=args.iters,
              uarches=list(uarches), shape=args.shape) as run:
        started = time.monotonic()
        # Fixed chunks, so the manifest is the same at any --jobs; long
        # sweeps checkpoint through --results-dir and pick up where
        # they left off with --resume.
        with run.phase("fuzz"):
            campaign = run_campaign(
                FuzzExperiment(seed=args.seed, count=args.iters,
                               shape=args.shape, uarches=uarches),
                jobs=args.jobs, **run.campaign_kwargs())
        run.absorb(campaign)
        outcome = campaign.raise_on_failure().value
        checked = outcome["programs"]
        failures = []     # (index, program, verdict)
        for index in outcome["failed_indices"]:
            program = generate(program_seed(args.seed, index), args.shape)
            failures.append((index, program,
                             oracle.check_program(program, uarches)))

        artifacts = []
        for index, program, verdict in failures:
            run.text(f"DIVERGENCE at index {index}: {program.name}")
            for divergence in verdict.divergences[:8]:
                run.text(f"  {divergence}")
            shrink_checks = 0
            if not args.no_shrink:
                result = shrink(program, verdict, uarches=uarches)
                run.text(f"  shrunk {result.items_before} -> "
                         f"{result.items_after} items "
                         f"({result.checks} oracle checks)")
                program, shrink_checks = result.program, result.checks
            path = save_counterexample(
                program, [str(d) for d in verdict.divergences],
                args.artifact_dir, shrink_checks=shrink_checks)
            artifacts.append(str(path))
            run.text(f"  wrote {path}")

        elapsed = time.monotonic() - started
        run.finish("success" if not failures else "failure",
                   programs=checked, divergent=len(failures),
                   failed_indices=[index for index, _, _ in failures],
                   artifacts=artifacts, elapsed_seconds=round(elapsed, 3))
        run.text(f"checked {checked}/{args.iters} programs on "
                 f"{', '.join(uarches)}: {len(failures)} divergence(s) "
                 f"in {elapsed:.1f}s")
    return 1 if failures else 0


def _cmd_fuzz_contract(args) -> int:
    """Relational mode of ``repro fuzz``: generated pairs against one
    leakage contract; violations shrink and ship as
    ``phantom.contract-violation/1`` artifacts."""
    import time

    from .fuzz import (ContractExperiment, DEFAULT_UARCHES, check_pair,
                       contract_by_name, generate_pair, pair_seed,
                       save_violation, shrink_pair)
    from .kernel import mitigation_by_name
    from .runner import run_campaign

    uarches = tuple(args.uarch) if args.uarch else DEFAULT_UARCHES
    contract = contract_by_name(args.contract)
    override = mitigation_by_name(args.mitigation) if args.mitigation \
        else None
    effective = override if override is not None \
        else contract.resolve_mitigation()
    with _Run(args, "fuzz", seed=args.seed, iters=args.iters,
              uarches=list(uarches), shape=args.shape,
              contract=contract.name, mitigation=effective.name) as run:
        started = time.monotonic()
        # Sharded exactly like the engine-differential campaign: fixed
        # chunks, --jobs-independent manifests.
        with run.phase("contract-fuzz"):
            campaign = run_campaign(
                ContractExperiment(seed=args.seed, count=args.iters,
                                   contract=contract.name,
                                   shape=args.shape, uarches=uarches,
                                   mitigation=args.mitigation),
                jobs=args.jobs, **run.campaign_kwargs())
        run.absorb(campaign)
        outcome = campaign.raise_on_failure().value
        checked = outcome["pairs"]
        violations = []   # (index, pair, verdict)
        for index in outcome["violated_indices"]:
            pair = generate_pair(pair_seed(args.seed, index), args.shape)
            violations.append((index, pair,
                               check_pair(pair, contract, uarches,
                                          mitigation=override)))

        artifacts = []
        for index, pair, verdict in violations:
            run.text(f"CONTRACT VIOLATION at index {index}: {pair.name} "
                     f"[{contract.name} / {effective.name}]")
            for divergence in verdict.divergences[:8]:
                run.text(f"  {divergence}")
            shrink_checks = 0
            if not args.no_shrink:
                result = shrink_pair(pair, verdict, uarches=uarches,
                                     mitigation=override)
                run.text(f"  shrunk {result.items_before} -> "
                         f"{result.items_after} items "
                         f"({result.checks} pair checks)")
                pair, shrink_checks = result.pair, result.checks
                # Re-verdict the shrunk pair so the shipped artifact's
                # divergences describe the program it actually contains.
                verdict = check_pair(pair, contract, uarches,
                                     mitigation=override)
            path = save_violation(pair, verdict, args.artifact_dir,
                                  shrink_checks=shrink_checks)
            artifacts.append(str(path))
            run.text(f"  wrote {path}")

        elapsed = time.monotonic() - started
        run.finish("success" if not violations else "failure",
                   pairs=checked, violations=len(violations),
                   violated_indices=[index for index, _, _ in violations],
                   artifacts=artifacts, elapsed_seconds=round(elapsed, 3))
        run.text(f"checked {checked}/{args.iters} pairs against "
                 f"'{contract.name}' (mitigation {effective.name}) on "
                 f"{', '.join(uarches)}: {len(violations)} violation(s) "
                 f"in {elapsed:.1f}s")
    return 1 if violations else 0


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

    workloads = tuple(args.workloads) if args.workloads else WORKLOADS
    for name in workloads:
        if name not in WORKLOADS:
            print(f"bench: unknown workload {name!r} "
                  f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
            return 2
    results = run_bench(workloads)
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
    bench = []
    for path in args.manifest:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"stats: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"stats: {path} is not JSON: {exc}", file=sys.stderr)
            return 2
        if is_bench_document(raw):
            bench.append(True)
            docs.append(raw)
            continue
        bench.append(False)
        try:
            doc = RunManifest.load(path)
            validate_manifest(doc)
        except (json.JSONDecodeError, SchemaError) as exc:
            reason = str(exc).splitlines()[0]
            print(f"stats: {path} is not a run manifest or bench "
                  f"document: {reason}", file=sys.stderr)
            return 2
        docs.append(doc)
    if len(set(bench)) > 1:
        print("stats: cannot diff a run manifest against a bench "
              "document", file=sys.stderr)
        return 2
    if bench[0]:
        if len(docs) == 1:
            print(summarize_bench(docs[0]))
        else:
            print(diff_bench(docs[0], docs[1]))
        return 0
    if len(docs) == 1:
        print("\n".join(summarize_manifest(docs[0])))
    else:
        print("\n".join(diff_manifests(docs[0], docs[1])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phantom (MICRO'23) reproduction on a simulated "
                    "microarchitecture")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("uarches", help="list modelled CPUs") \
        .set_defaults(fn=cmd_uarches)

    p = sub.add_parser("matrix", help="Table 1 speculation matrix")
    p.add_argument("--uarch", default="amd",
                   help="'all', 'amd', or one name")
    CampaignOptions.add_arguments(p)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("kaslr", help="break kernel-image KASLR (§7.1)")
    _add_uarch(p, default="zen 3")
    CampaignOptions.add_arguments(p)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_kaslr)

    p = sub.add_parser("physmap", help="break physmap KASLR (§7.2)")
    _add_uarch(p, default="zen 2")
    CampaignOptions.add_arguments(p)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_physmap)

    p = sub.add_parser("leak", help="full §7 chain: leak kernel memory")
    _add_uarch(p, default="zen 2")
    p.add_argument("--bytes", type=int, default=128)
    CampaignOptions.add_arguments(p)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_leak)

    p = sub.add_parser("covert", help="covert-channel capacity (§6.4)")
    _add_uarch(p, default="zen 4")
    p.add_argument("--bits", type=int, default=1024)
    CampaignOptions.add_arguments(p)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_covert)

    p = sub.add_parser("rev-btb", help="recover BTB functions (§6.2)")
    _add_uarch(p, default="zen 3")
    p.add_argument("--samples", type=int, default=200_000)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_rev_btb)

    p = sub.add_parser("gadgets", help="gadget census (§9.3)")
    p.add_argument("--functions", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_gadgets)

    p = sub.add_parser("trace",
                       help="trace a syscall's speculation, or inspect "
                            "a --spans capture (summarize/export)")
    _add_uarch(p, default="zen 2")
    p.add_argument("--nr", type=int, default=39, help="syscall number")
    p.add_argument("--rdi", type=int, default=0)
    p.add_argument("--rsi", type=int, default=0)
    p.add_argument("--limit", type=int, default=200)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_trace)
    tsub = p.add_subparsers(dest="trace_command")
    ps = tsub.add_parser("summarize",
                         help="critical path + per-phase histogram "
                              "table from a span capture")
    ps.add_argument("spans",
                    help="span capture directory (--spans DIR of a "
                         "previous run) or a single span .jsonl file")
    ps.set_defaults(fn=cmd_trace_summarize)
    pe = tsub.add_parser("export",
                         help="export a span capture (Perfetto) or a "
                              "run manifest's metrics (OpenMetrics)")
    pe.add_argument("source",
                    help="span capture dir or .jsonl (perfetto), or a "
                         "run manifest (openmetrics)")
    pe.add_argument("--format", choices=("perfetto", "openmetrics"),
                    default="perfetto",
                    help="output format (default perfetto — Chrome "
                         "trace-event JSON for ui.perfetto.dev)")
    pe.add_argument("--out", metavar="FILE", default=None,
                    help="write to FILE instead of stdout")
    pe.set_defaults(fn=cmd_trace_export)

    p = sub.add_parser("fuzz",
                       help="differential fuzz the dual-engine simulator")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (program i gets a seed derived "
                        "from this and i only)")
    p.add_argument("--iters", type=int, default=200,
                   help="number of generated programs (default 200)")
    p.add_argument("--shape", default=None, choices=_fuzz_shapes(),
                   help="restrict the generator to one program shape")
    p.add_argument("--uarch", action="append", default=None,
                   metavar="NAME",
                   help="µarch to include in the oracle matrix "
                        "(repeatable; default: zen2 and zen3)")
    p.add_argument("--artifact-dir", default="fuzz-artifacts",
                   metavar="DIR",
                   help="where minimized counterexamples are written")
    p.add_argument("--no-shrink", action="store_true",
                   help="write counterexamples without minimizing them")
    p.add_argument("--contract", default=None, choices=_fuzz_contracts(),
                   metavar="NAME",
                   help="relational mode: check public-equivalent "
                        "secret-divergent input pairs against leakage "
                        "contract NAME (see 'repro contracts')")
    p.add_argument("--mitigation", default=None,
                   choices=_mitigation_names(), metavar="NAME",
                   help="override the contract's mitigation setting "
                        "(requires --contract)")
    CampaignOptions.add_arguments(p, jobs_default=1)
    _add_telemetry(p)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("contracts",
                       help="list leakage contracts and the mitigation "
                            "registry")
    csub = p.add_subparsers(dest="contracts_command")
    pl = csub.add_parser("list", help="contract and mitigation tables")
    pl.set_defaults(fn=cmd_contracts)
    p.set_defaults(fn=cmd_contracts)

    p = sub.add_parser("bench",
                       help="simulator throughput: fast vs naive engine")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the phantom.bench/1 document to FILE")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="compare speedups against a committed "
                        "phantom.bench/1 document; exit 1 on a "
                        "speedup drop over 30%%")
    p.add_argument("--workloads", nargs="+", metavar="NAME",
                   default=None,
                   help="subset of workloads to run (default: all)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("stats",
                       help="summarize one run manifest or bench "
                            "document, or diff two")
    p.add_argument("manifest", nargs="+",
                   help="run manifest(s) written by --json/--results-dir, "
                        "or phantom.bench/1 document(s) from `repro "
                        "bench --out`")
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    from .runner import CampaignInterrupted, resolve_jobs

    args = build_parser().parse_args(argv)
    if getattr(args, "trace_out", None) and hasattr(args, "jobs"):
        # Forked workers would inherit the open trace file and write
        # into it concurrently; the event stream is one process's.
        workers = resolve_jobs(args.jobs)
        if workers > 1:
            print(f"repro: --trace-out records one process's events but "
                  f"--jobs resolves to {workers} workers; rerun with "
                  f"--jobs 1", file=sys.stderr)
            return 2
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
