"""Span tracer and stack sampler for the traced (``--trace 1``) run.

Two instruments, both living only in the benchmark:

* **Spans.**  :meth:`Tracer.install` wraps the public entry points of
  the coarse layers (runner, kernel, pipeline, sidechannel, core, fuzz)
  and records ``(id, parent, name, start, end)`` for every call, in
  memory.  A wrapped name is patched wherever callers look it up: the
  defining module or class, every ``repro`` module that imported the
  name, and module-level dispatch tables holding it
  (``repro.core.matrix.CHANNEL_MEASUREMENTS``).
* **Stack samples.**  The per-instruction layers (frontend, memory,
  isa, revtools, telemetry) are too hot to wrap without distorting
  them, so :class:`StackSampler` samples the interpreter stack on
  ``SIGPROF`` and buckets each sample by the innermost ``repro``
  subpackage on it.  It uses ``ITIMER_PROF`` and never ``ITIMER_REAL``:
  the runner's per-job timeout (``repro.runner.executor._JobAlarm``)
  owns the real-time timer, and a sampler on it would cancel timeouts.

Pool workers are forked with the wrappers already installed.  The
``execute_job`` wrapper notices it runs in a child, samples the job
there, and ships the job's spans, samples and CPU counters back on the
returned :class:`~repro.runner.JobResult`; :meth:`Tracer.absorb`
(passed as ``run_campaign(on_job_done=...)``) merges them.  Spans of
all processes share one clock: ``time.perf_counter`` is the
system-wide monotonic clock on Linux.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Public entry points wrapped by :meth:`Tracer.install`:
#: ``(span name, module, attribute path)``.  The span name's first
#: component is the layer the call is charged to.
WRAPPED = (
    ("runner.execute_job", "repro.runner.executor", "execute_job"),
    ("runner.merge_job_manifests", "repro.runner.executor",
     "merge_job_manifests"),
    ("runner.reduce", "repro.core.matrix", "MatrixExperiment.reduce"),
    ("runner.reduce", "repro.core.kaslr_image",
     "KaslrImageExperiment.reduce"),
    ("runner.reduce", "repro.fuzz.relational", "ContractExperiment.reduce"),
    ("core.run_one", "repro.core.matrix", "MatrixExperiment.run_one"),
    ("core.run_one", "repro.core.kaslr_image",
     "KaslrImageExperiment.run_one"),
    ("fuzz.run_one", "repro.fuzz.relational", "ContractExperiment.run_one"),
    ("kernel.boot", "repro.kernel.machine", "Machine.from_spec"),
    ("kernel.syscall", "repro.kernel.machine", "Machine.syscall"),
    ("pipeline.run", "repro.pipeline.cpu", "CPU.run"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL1I.prime"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL1I.probe_misses"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL1D.prime"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL1D.probe_misses"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL2.prime"),
    ("sidechannel.probe", "repro.sidechannel.primeprobe",
     "PrimeProbeL2.probe_misses"),
    ("sidechannel.capture", "repro.sidechannel.leaktrace", "capture"),
    ("core.inject", "repro.core.primitives", "PhantomInjector.inject"),
    ("core.measure", "repro.core.observe",
     "TypeConfusionExperiment.measure_fetch"),
    ("core.measure", "repro.core.observe",
     "TypeConfusionExperiment.measure_decode"),
    ("core.measure", "repro.core.observe",
     "TypeConfusionExperiment.measure_execute"),
    ("fuzz.check_pair", "repro.fuzz.relational", "check_pair"),
    ("fuzz.generate_pair", "repro.fuzz.relational", "generate_pair"),
    ("fuzz.build_world", "repro.fuzz.harness", "build_world"),
    ("fuzz.run_world", "repro.fuzz.harness", "run_world"),
    ("fuzz.compare", "repro.fuzz.harness", "compare_observables"),
    ("fuzz.compare", "repro.sidechannel.leaktrace", "LeakTrace.diff"),
)

#: Per-CPU counters summed over every CPU a traced job created.
CPU_COUNTERS = ("sb_compiled", "tb_compiled", "sb_invalidated",
                "sb_probe_bails", "cycles_skipped", "cycles")
#: PMC events summed the same way.
CPU_PMC = ("instructions", "de_dis_uops_from_decoder")
#: Host CPU seconds between two stack samples.
SAMPLE_INTERVAL_S = 0.002


class StackSampler:
    """Count host CPU time per ``repro`` subpackage by stack sampling.

    Each ``SIGPROF`` tick charges one sample to the innermost frame that
    belongs to ``repro``: its subpackage (``frontend``, ``memory`` …) or,
    for top-level modules, the module name.  Code the fast path
    generates at run time (``<superblock@…>``, ``<transientblock@…>``)
    is charged to ``pipeline``, which compiles it.  A stack with no
    ``repro`` frame counts as ``other``.
    """

    TIMER = signal.ITIMER_PROF
    SIGNAL = signal.SIGPROF

    def __init__(self) -> None:
        import repro

        self.counts: Counter = Counter()
        self._root = os.path.dirname(os.path.abspath(repro.__file__))
        self._layer_by_code: dict = {}
        self._previous = None
        self.running = False

    def _layer(self, code) -> str | None:
        try:
            return self._layer_by_code[code]
        except KeyError:
            pass
        filename = code.co_filename
        layer = None
        if filename.startswith(("<superblock", "<transientblock")):
            layer = "pipeline"
        elif filename.startswith(self._root + os.sep):
            head = filename[len(self._root) + 1:].split(os.sep, 1)[0]
            layer = head[:-3] if head.endswith(".py") else head
        self._layer_by_code[code] = layer
        return layer

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            layer = self._layer(frame.f_code)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(self.SIGNAL, self._on_sample)
        signal.setitimer(self.TIMER, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(self.TIMER, 0)
            signal.signal(self.SIGNAL, self._previous)
            self.running = False


class Tracer:
    """In-memory span recorder plus the sampler and CPU counters of one
    traced campaign.  Use :meth:`install` / :meth:`uninstall` around the
    traced region (or the :meth:`active` context)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``(span id, parent id, name, start, end)``; ids are
        #: ``(pid, n)`` so spans from pool workers never collide.
        self.spans: list[tuple] = []
        self.sampler = StackSampler()
        #: Summed :data:`CPU_COUNTERS` / :data:`CPU_PMC` of every CPU
        #: booted or built while traced.
        self.counts: Counter = Counter()
        self._stack: list = []
        self._next = 0
        self._cpus: list = []
        self._world_mode: dict[int, str] = {}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str):
        self._next += 1
        sid = (os.getpid(), self._next)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        """Record one span around the body."""
        sid, parent, start = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)

        return wrapper

    # -- wrappers with side duties ------------------------------------------

    def _wrap_from_spec(self, name: str, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(cls, spec):
            machine = traced(cls, spec)
            self._cpus.append(machine.cpu)
            return machine

        return wrapper

    def _wrap_build_world(self, name: str, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(program, uarch, *, fastpath, **kwargs):
            world = traced(program, uarch, fastpath=fastpath, **kwargs)
            self._cpus.append(world.cpu)
            self._world_mode[id(world)] = "fast" if fastpath else "naive"
            return world

        return wrapper

    def _wrap_run_world(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(world):
            mode = tracer._world_mode.pop(id(world), "unknown")
            label = f"{name}[{mode}]"
            sid, parent, start = tracer._open(label)
            try:
                return fn(world)
            finally:
                tracer._close(sid, parent, label, start)

        return wrapper

    def _wrap_execute_job(self, name: str, fn):
        traced = self._wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(experiment, spec, **kwargs):
            in_worker = os.getpid() != tracer.pid
            mark = len(tracer.spans)
            if in_worker:
                tracer.sampler.counts.clear()
                tracer.sampler.start()
            try:
                result = traced(experiment, spec, **kwargs)
            finally:
                if in_worker:
                    tracer.sampler.stop()
            counts = tracer._drain_cpus()
            if in_worker:
                result.perfbench_trace = {
                    "spans": tracer.spans[mark:],
                    "samples": dict(tracer.sampler.counts),
                    "counts": dict(counts)}
                del tracer.spans[mark:]
            else:
                tracer.counts.update(counts)
            return result

        return wrapper

    _SPECIAL = {"execute_job": _wrap_execute_job,
                "Machine.from_spec": _wrap_from_spec,
                "build_world": _wrap_build_world,
                "run_world": _wrap_run_world}

    def _drain_cpus(self) -> Counter:
        counts: Counter = Counter()
        for cpu in self._cpus:
            for attr in CPU_COUNTERS:
                counts[attr] += getattr(cpu, attr)
            for event in CPU_PMC:
                counts[event] += cpu.pmc.read(event)
        self._cpus.clear()
        return counts

    def absorb(self, result) -> None:
        """``on_job_done`` hook: merge what a pool worker shipped."""
        shipped = getattr(result, "perfbench_trace", None)
        if shipped is None:
            return
        self.spans.extend(shipped["spans"])
        self.sampler.counts.update(shipped["samples"])
        self.counts.update(shipped["counts"])
        del result.perfbench_trace

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Patch every :data:`WRAPPED` entry point where it is looked up
        and start the sampler."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every module that rebinds a wrapped name before the
        # alias scan; the runner imports the supervisor only when a
        # campaign first uses a pool.
        for module_name in ("repro.core.matrix", "repro.core.kaslr_image",
                            "repro.fuzz.relational",
                            "repro.resilience.supervisor"):
            importlib.import_module(module_name)
        for name, module_name, path in WRAPPED:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            make = self._SPECIAL.get(path, type(self)._wrap)
            wrapped = make(self, name, fn)
            if isinstance(raw, classmethod):
                self._patch_attr(owner, attr, raw, classmethod(wrapped))
            else:
                self._patch_attr(owner, attr, raw, wrapped)
            self._patch_aliases(fn, wrapped)
        self.sampler.start()

    def _patch_attr(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append(("attr", owner, attr, original))

    def _patch_aliases(self, fn, wrapped) -> None:
        """Rebind every module-level name or dispatch-table entry in
        ``repro`` that holds *fn* itself."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, key, fn, wrapped)
                elif type(value) is dict:
                    for item_key, item in list(value.items()):
                        if item is fn:
                            value[item_key] = wrapped
                            self._patches.append(
                                ("item", value, item_key, fn))

    def uninstall(self) -> None:
        """Stop the sampler and restore every patched name."""
        self.sampler.stop()
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- analysis ----------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Profile:
    """Self and inclusive times of a finished span list.

    A span's *self* time is its duration minus the part of it that its
    child spans cover (children of one parent may overlap when they ran
    in different pool workers, so the union is subtracted).  Summed
    over all spans, self times therefore equal the roots' walls plus
    the overlap of parallel children.
    """

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        by_id = {span[0]: span for span in self.spans}
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            if parent in by_id:
                children[parent].append((start, end))
        self.self_s = {
            sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, _, start, end in self.spans}
        self.total_self_s = sum(self.self_s.values())
        self._by_id = by_id

    def count(self, prefix: str) -> int:
        return sum(1 for span in self.spans if span[2].startswith(prefix))

    def inclusive_s(self, prefix: str) -> float:
        """Summed wall of spans named *prefix*…, counting a span nested
        inside another span of the same name only once."""
        total = 0.0
        for sid, parent, name, start, end in self.spans:
            if not name.startswith(prefix):
                continue
            ancestor = self._by_id.get(parent)
            nested = False
            while ancestor is not None:
                if ancestor[2].startswith(prefix):
                    nested = True
                    break
                ancestor = self._by_id.get(ancestor[1])
            if not nested:
                total += end - start
        return total

    def self_of(self, prefix: str) -> float:
        return sum(self.self_s[span[0]] for span in self.spans
                   if span[2].startswith(prefix))

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (the span name's first component)."""
        layers: dict[str, float] = defaultdict(float)
        for span in self.spans:
            layers[span[2].split(".", 1)[0]] += self.self_s[span[0]]
        return dict(layers)
