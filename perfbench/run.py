"""End-to-end benchmark of the paper's experiments.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1_matrix --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times closed-loop repetitions of the workload's campaigns
(one benchmark process runs one campaign at a time) with nothing
instrumented and prints the end-to-end metrics.  ``--trace 1``
alternates an untraced repetition with a traced one (spans around each
layer's entry points plus ``SIGPROF`` stack samples, see ``tracer.py``)
and prints the per-layer profile.  Either way every answer is checked,
a digest of the simulated statistics is printed (as text and as one
JSON line), and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any answer is wrong and 2 when the checkout holds no
``src/repro`` to benchmark.  See ``README.md`` for the workloads and
the layer → metric → workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh processes timed per run for ``setup_s``: half before the timed
#: campaigns and half after them, so that their median spans the run
#: rather than the few seconds of one burst of other tenants' load.
SETUP_RUNS = 16

MODEL_NOTE = (
    "model: simulated statistics come from the cycle-level model, which "
    "has no hardware reference in this repository and is unvalidated, so "
    "no error figure is reported; modelled caches start empty in every "
    "fresh machine or fuzz world, matching the paper's fresh victim "
    "processes")

#: End-to-end metrics in the JSON result: name -> unit.  Job latency,
#: ``sim_ips`` and the error rate are printed but not part of it: job
#: latency moves too much with this kind of shared host's load to gate
#: on, ``sim_ips`` has no PMC source on ``contract_fuzz``, and the error
#: rate is 0 by construction (it is ``failed``/``attempted``).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics in the JSON result of ``--trace 1``: name -> unit.
#: Times of calls that only some workloads make are given as a share of
#: the traced host time (``*_share``), so every metric is defined on
#: every workload; the seconds are printed alongside.
PER_LAYER = {
    "runner.jobs": "count",
    "runner.job_wall_sum_s": "s",
    "runner.reduce_s": "s",
    "runner.self_s": "s",
    "runner.parallel_efficiency": "ratio",
    "runner.self_share": "ratio",
    "kernel.boots": "count",
    "kernel.boot_share": "ratio",
    "kernel.syscalls": "count",
    "kernel.syscall_self_share": "ratio",
    "kernel.self_share": "ratio",
    "pipeline.run_s": "s",
    "pipeline.instructions": "count",
    "pipeline.sim_cycles": "count",
    "pipeline.host_ns_per_instr": "ns",
    "pipeline.spec_episodes": "count",
    "pipeline.sb_compiled": "count",
    "pipeline.tb_compiled": "count",
    "pipeline.sb_invalidated": "count",
    "pipeline.cycles_skipped": "count",
    "pipeline.sb_probe_bail_ratio": "ratio",
    "pipeline.self_share": "ratio",
    "fuzz.pairs": "count",
    "fuzz.generate_share": "ratio",
    "fuzz.build_world_share": "ratio",
    "fuzz.run_naive_share": "ratio",
    "fuzz.run_fast_share": "ratio",
    "fuzz.naive_share": "ratio",
    "fuzz.compare_share": "ratio",
    "fuzz.self_share": "ratio",
    "sidechannel.probe_calls": "count",
    "sidechannel.probe_share": "ratio",
    "sidechannel.capture_share": "ratio",
    "sidechannel.self_share": "ratio",
    "core.inject_share": "ratio",
    "core.measure_share": "ratio",
    "core.self_share": "ratio",
    "frontend.host_share": "ratio",
    "frontend.btb_installs": "count",
    "frontend.bpu_predictions": "count",
    "frontend.uop_hit_ratio": "ratio",
    "revtools.host_share": "ratio",
    "memory.host_share": "ratio",
    "memory.l1i_miss_ratio": "ratio",
    "memory.l1d_miss_ratio": "ratio",
    "memory.l2_miss_ratio": "ratio",
    "isa.host_share": "ratio",
    "isa.decoder_uops": "count",
    "telemetry.host_share": "ratio",
    "trace.overhead_pct": "%",
}

#: Span-timed calls printed in seconds next to their ``*_share``.
SHARE_SPANS = {
    "kernel.boot_share": "kernel.boot",
    "fuzz.generate_share": "fuzz.generate_pair",
    "fuzz.build_world_share": "fuzz.build_world",
    "fuzz.run_naive_share": "fuzz.run_world[naive]",
    "fuzz.run_fast_share": "fuzz.run_world[fast]",
    "fuzz.compare_share": "fuzz.compare",
    "sidechannel.probe_share": "sidechannel.probe",
    "sidechannel.capture_share": "sidechannel.capture",
    "core.inject_share": "core.inject",
    "core.measure_share": "core.measure",
}

WORKLOAD_NAMES = ("table1_matrix", "kaslr_break", "contract_fuzz")

SAMPLED_LAYERS = ("frontend", "memory", "isa", "revtools", "telemetry")
SPAN_LAYERS = ("runner", "kernel", "pipeline", "sidechannel", "core", "fuzz")


# -- measurement helpers -------------------------------------------------


def _vm_hwm_kib(pid: int) -> int:
    """A process's peak resident set (``VmHWM``), 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as listing:
                found.extend(int(child) for child in listing.read().split())
        except OSError:
            continue
    return found


class PeakRss:
    """Peak resident set of this process plus its pool workers.

    Sampled from ``/proc`` whenever a job finishes (the
    ``on_job_done`` hook), when the workers are alive.  Each process's
    own high-water mark is summed, so pages that forked workers share
    copy-on-write count once per process, as RSS counts them.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.peak_kib = 0

    def sample(self, _result=None) -> None:
        total = _vm_hwm_kib(self.pid) + sum(
            _vm_hwm_kib(child) for child in _children(self.pid))
        self.peak_kib = max(self.peak_kib, total)

    @property
    def peak_mib(self) -> float:
        self.sample()
        return self.peak_kib / 1024


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload, campaign_seed: int, runs: int) -> list[float]:
    """Host CPU seconds of fresh processes that import ``repro`` and do
    the workload's first boot or world build — what every CLI
    invocation pays before campaign work starts.  CPU time rather than
    wall, so process start-up latency and other tenants' scheduling
    stay out of it; the set-up is single-threaded, so the two agree
    within a few percent on an idle host."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; "
            f"workloads.WORKLOADS[{workload.name!r}]"
            f".first_boot({campaign_seed})")
    times = []
    for _ in range(runs):
        start = _children_cpu_s()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(_children_cpu_s() - start)
    return times


def digest(manifests, answer) -> str:
    """SHA-256 of a repetition's simulated statistics: each campaign
    manifest's fingerprint (config, per-job simulated cycles, metric
    counters, PMC block) and the checked answer (cells, guessed base,
    violated pair indices).  Wall-clock fields are not part of it."""
    from repro.runner import manifest_fingerprint

    doc = {"fingerprints": [manifest_fingerprint(m) for m in manifests],
           "answer": answer}
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class Rep:
    """What one repetition (the workload's campaigns, run in turn)
    leaves behind."""

    def __init__(self, workload, campaigns, campaign_seed: int,
                 wall_s: float) -> None:
        manifests = [c.manifest for c in campaigns]
        self.wall_s = wall_s
        self.job_walls = [r.wall_time_s for c in campaigns
                          for r in c.results]
        self.attempted, self.failed, answer = workload.check(
            campaigns, campaign_seed)
        self.digest = digest(manifests, answer)
        self.instructions = workload.sim_instructions(manifests)
        self.counters = Counter()
        for manifest in manifests:
            self.counters.update(manifest["metrics"]["counters"])


def run_rep(workload, campaign_seed: int, **campaign_kwargs) -> Rep:
    from repro.runner import run_campaign

    experiments = workload.experiments(campaign_seed)
    start = time.perf_counter()
    campaigns = [run_campaign(experiment, jobs=workload.jobs,
                              **campaign_kwargs)
                 for experiment in experiments]
    wall = time.perf_counter() - start
    return Rep(workload, campaigns, campaign_seed, wall)


def closed_loop(seconds: float, once):
    """Call *once* until the next call would overrun *seconds* (at
    least once); returns the results."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(once())
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


# -- output --------------------------------------------------------------


def line(name: str, value, unit: str = "", note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:30s} {shown:>14s} {unit:6s} {note}".rstrip())


def report_checks(reps, workload, seed: int) -> tuple[bool, int, int]:
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    digests = sorted({r.digest for r in reps})
    deterministic = len(digests) == 1
    line("error_rate", failed / attempted, "",
         f"{failed}/{attempted} {workload.operation} failed")
    line("digest", reps[0].digest[:16], "",
         f"sha256, {len(reps)} repetitions, "
         + ("identical" if deterministic else "DIFFERENT"))
    print(json.dumps({"workload": workload.name, "seed": seed,
                      "digests": digests, "repetitions": len(reps)}))
    return failed == 0 and deterministic, attempted, failed


def end_to_end(workload, seed: int, campaign_seed: int,
               seconds: float) -> tuple[bool, int, int, dict]:
    # The first process also writes the bytecode cache: not timed.
    setup = measure_setup(workload, campaign_seed, SETUP_RUNS // 2 + 1)[1:]
    workload.first_boot(campaign_seed)
    rss = PeakRss()
    reps = closed_loop(seconds, lambda: run_rep(
        workload, campaign_seed, on_job_done=rss.sample))
    walls = [r.wall_s for r in reps]
    jobs = sorted(w for r in reps for w in r.job_walls)
    setup += measure_setup(workload, campaign_seed, SETUP_RUNS // 2)
    if len(reps) == 1:
        # One more, untimed, so the digest check compares two.
        reps.append(run_rep(workload, campaign_seed))
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(walls),
               "peak_rss_mb": rss.peak_mib}
    print(f"perfbench {workload.name} seed={seed}: closed loop, one "
          f"campaign at a time, jobs={workload.jobs}")
    line("setup_s", metrics["setup_s"], "s",
         f"median of {len(setup)} fresh processes")
    line("wall_s", metrics["wall_s"], "s",
         f"median of {len(walls)} repetitions, "
         f"range {min(walls):.4f}-{max(walls):.4f}")
    line("job_p50_ms", 1000 * statistics.median(jobs), "ms",
         f"n={len(jobs)} jobs")
    if len(jobs) >= 100:
        p90 = 1000 * statistics.quantiles(jobs, n=10)[8]
        line("job_p90_ms", p90, "ms",
             f"n={len(jobs)} jobs, {len(jobs) // 10} beyond")
    else:
        line("job_p90_ms", "n/a", "",
             f"n={len(jobs)} jobs; needs 100 for 10 beyond p90")
    instructions = [r.instructions for r in reps]
    if None in instructions:
        line("sim_ips", "n/a", "", "manifest carries no PMC block")
    else:
        ips = statistics.median(i / r.wall_s
                                for i, r in zip(instructions, reps))
        line("sim_ips", ips, "1/s",
             f"median of {len(reps)} repetitions, "
             f"{instructions[0]} instructions each")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
         "this process plus pool workers")
    ok, attempted, failed = report_checks(reps, workload, seed)
    print(f"  {MODEL_NOTE}")
    return ok, attempted, failed, metrics


def traced_rep(workload, campaign_seed: int):
    from repro.runner import run_campaign
    from tracer import Tracer

    tracer = Tracer()
    experiments = workload.experiments(campaign_seed)
    campaigns = []
    with tracer.active():
        start = time.perf_counter()
        for experiment in experiments:
            with tracer.span("runner.run_campaign"):
                campaigns.append(run_campaign(experiment, jobs=workload.jobs,
                                              on_job_done=tracer.absorb))
        wall = time.perf_counter() - start
    return Rep(workload, campaigns, campaign_seed, wall), tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_sum(counters: dict, prefix: str) -> int:
    return sum(v for k, v in counters.items()
               if k == prefix or k.startswith(prefix + "{"))


def _miss_ratio(counters: dict, level: str) -> float:
    hits = counters.get(f"cache_hits{{level={level}}}", 0)
    misses = counters.get(f"cache_misses{{level={level}}}", 0)
    return _ratio(misses, hits + misses)


def layer_metrics(workload, plain: Rep, tracer,
                  overhead_pct: float) -> tuple[dict, dict, float]:
    """Per-layer metrics of one traced repetition, the span-timed
    seconds behind each ``*_share``, and the sum of all self times."""
    from tracer import Profile

    profile = Profile(tracer.spans)
    busy = profile.total_self_s
    layer_self = profile.layer_self_s()
    counts = tracer.counts
    counters = plain.counters
    samples = tracer.sampler.counts
    n_samples = sum(samples.values())
    seconds = {name: profile.inclusive_s(span)
               for name, span in SHARE_SPANS.items()}
    naive = seconds["fuzz.run_naive_share"]
    fast = seconds["fuzz.run_fast_share"]
    compiled, bails = counts["sb_compiled"], counts["sb_probe_bails"]
    run_s = profile.inclusive_s("pipeline.run")
    m = {
        "runner.jobs": profile.count("runner.execute_job"),
        "runner.job_wall_sum_s": sum(plain.job_walls),
        "runner.reduce_s": profile.inclusive_s("runner.reduce")
        + profile.inclusive_s("runner.merge_job_manifests"),
        "runner.self_s": profile.self_of("runner.run_campaign"),
        "runner.parallel_efficiency": _ratio(
            sum(plain.job_walls), workload.jobs * plain.wall_s),
        "kernel.boots": profile.count("kernel.boot"),
        "kernel.syscalls": profile.count("kernel.syscall"),
        "kernel.syscall_self_share": _ratio(
            profile.self_of("kernel.syscall"), busy),
        "pipeline.run_s": run_s,
        "pipeline.instructions": counts["instructions"],
        "pipeline.sim_cycles": counts["cycles"],
        "pipeline.host_ns_per_instr": _ratio(1e9 * run_s,
                                             counts["instructions"]),
        "pipeline.spec_episodes": _counter_sum(counters,
                                               "speculation_episodes"),
        "pipeline.sb_compiled": compiled,
        "pipeline.tb_compiled": counts["tb_compiled"],
        "pipeline.sb_invalidated": counts["sb_invalidated"],
        "pipeline.cycles_skipped": counts["cycles_skipped"],
        "pipeline.sb_probe_bail_ratio": _ratio(bails, compiled + bails),
        "fuzz.pairs": profile.count("fuzz.check_pair"),
        "fuzz.naive_share": _ratio(naive, naive + fast),
        "sidechannel.probe_calls": profile.count("sidechannel.probe"),
        "frontend.btb_installs": counters.get("btb_installs", 0),
        "frontend.bpu_predictions": counters.get("bpu_predictions", 0),
        "frontend.uop_hit_ratio": 1 - _miss_ratio(counters, "uop"),
        "memory.l1i_miss_ratio": _miss_ratio(counters, "L1I"),
        "memory.l1d_miss_ratio": _miss_ratio(counters, "L1D"),
        "memory.l2_miss_ratio": _miss_ratio(counters, "L2"),
        "isa.decoder_uops": counts["de_dis_uops_from_decoder"],
        "trace.overhead_pct": overhead_pct,
    }
    for name, value in seconds.items():
        m[name] = _ratio(value, busy)
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self.get(layer, 0.0), busy)
    for layer in SAMPLED_LAYERS:
        m[f"{layer}.host_share"] = _ratio(samples.get(layer, 0), n_samples)
    return {name: m[name] for name in PER_LAYER}, seconds, busy


def per_layer(workload, seed: int, campaign_seed: int,
              seconds: float) -> tuple[bool, int, int, dict]:
    workload.first_boot(campaign_seed)
    pairs = closed_loop(seconds, lambda: (
        run_rep(workload, campaign_seed),
        traced_rep(workload, campaign_seed)))
    plain_reps = [plain for plain, _ in pairs]
    traced_reps = [traced for _, (traced, _) in pairs]
    plain_wall = statistics.median(r.wall_s for r in plain_reps)
    traced_wall = statistics.median(r.wall_s for r in traced_reps)
    overhead = 100 * (traced_wall - plain_wall) / plain_wall
    plain, (_, tracer) = pairs[-1]
    metrics, seconds_of, busy = layer_metrics(workload, plain, tracer,
                                              overhead)
    print(f"perfbench {workload.name} seed={seed}: traced profile, "
          f"{len(pairs)} untraced/traced repetition pairs, "
          f"jobs={workload.jobs}")
    line("untraced wall", plain_wall, "s")
    line("traced wall", traced_wall, "s",
         f"{len(tracer.spans)} spans, "
         f"{sum(tracer.sampler.counts.values())} stack samples")
    line("layer self times", busy, "s",
         f"sum; the last traced repetition took {traced_reps[-1].wall_s:.4f}"
         " s, plus the overlap of parallel jobs")
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        note = ""
        if name in SHARE_SPANS:
            note = f"{seconds_of[name]:.4f} s in {SHARE_SPANS[name]}"
        line(name, value, unit, note)
    samples = tracer.sampler.counts
    total = sum(samples.values())
    print("  sampled host share by repro subpackage: " + ", ".join(
        f"{layer} {count / total:.3f}"
        for layer, count in samples.most_common()))
    ok, attempted, failed = report_checks(plain_reps + traced_reps,
                                          workload, seed)
    print(f"  {MODEL_NOTE}")
    return ok, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import repro
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    campaign_seed = workload.campaign_seed(args.seed)
    if args.trace:
        ok, attempted, failed, metrics = per_layer(
            workload, args.seed, campaign_seed, args.seconds)
        units = PER_LAYER
    else:
        ok, attempted, failed, metrics = end_to_end(
            workload, args.seed, campaign_seed, args.seconds)
        units = END_TO_END
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
