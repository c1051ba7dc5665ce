"""Spans around the calls the benchmark makes into each layer.

The traced run (``--trace 1``) installs wrappers on the public functions
of each layer, at the names their callers use: the class attribute for
methods, and every ``repro.*`` module binding for module functions.
Each call becomes one span (name, start, end, parent, request id,
phase), kept in memory and written out when the run ends.  Per-layer
metrics are folded from the spans afterwards; a layer's ``busy_s`` is
its spans' *self* time, the duration minus the part covered by child
spans.

Pool workers run in other processes, so a wrapper does nothing there;
the kernel work of a pooled dispatch is read back from the ``RunStats``
each result carries (:meth:`Tracer.note_pooled_results`).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

#: span record fields (a list per span keeps recording cheap)
NAME, START, END, PARENT, REQUEST, PHASE, ATTRS = range(7)


def self_times(spans: list) -> list[float]:
    """Self time of every span: its duration minus its children's cover.

    Children are clipped to the parent's interval and their union is
    subtracted once, so nested or overlapping children (spans from
    several threads under one request) are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, start)
            child_end = min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(max(0.0, (end - start) - covered))
    return out


class Tracer:
    """In-memory span recorder shared by the wrappers of one run.

    Spans are recorded only while a phase is set (inside :meth:`op`),
    so set-up and the output checks leave no spans.  A thread with no
    open span of its own (an HTTP handler thread) parents its spans to
    the open operation of the client thread, whose request it serves.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase: str | None = None
        self.request: str | None = None
        #: per-phase counts that do not come from spans ("<phase>.<name>")
        self.counts: dict[str, float] = defaultdict(float)
        self._root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        record = [name, time.perf_counter(), None, parent, self.request,
                  self.phase, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def op(self, phase: str, request: str, name: str):
        """One operation of the workload: the root span of a request."""
        self.phase, self.request = phase, request
        record = self.open(name)
        self._root = self._stack()[-1]
        try:
            yield
        finally:
            self.close(record)
            self._root = None
            self.phase = self.request = None

    def note_pooled_results(self, sweeps, groups) -> None:
        """Fold the RunStats of results computed by pool workers.

        ``sweeps`` are the ``(task, runs, seed)`` triples handed to
        ``run_replicated_batch`` and ``groups`` its results.  Each sweep
        of a direct-batch cell is one ``run_batch`` call per block of
        ``BATCH_BLOCK_RUNS`` replications.
        """
        from repro.backends.base import BATCH_BLOCK_RUNS
        from repro.core.schedule import closed_form_supported

        phase = self.phase
        for (task, _, _), group in zip(sweeps, groups):
            if not group or group[0].stats is None:
                continue
            backend = group[0].stats.backend
            if backend == "direct-batch":
                form = "closed" if closed_form_supported(
                    task.technique) else "stepping"
                layer = f"batch.{form}"
                self.counts[f"{phase}.{layer}.calls"] += math.ceil(
                    len(group) / BATCH_BLOCK_RUNS)
                self.counts[f"{phase}.{layer}.reps"] += len(group)
                if form == "closed":
                    self.counts[f"{phase}.{layer}.chunks"] += sum(
                        r.stats.events for r in group)
            else:
                layer = {"direct": "direct", "msg-fast": "fastpath",
                         "msg": "msg"}[backend]
                self.counts[f"{phase}.{layer}.runs"] += len(group)
            self.counts[f"{phase}.{layer}.busy_s"] += sum(
                r.stats.wall_time for r in group)
            self.counts[f"{phase}.pool.items"] += len(group)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "name": record[NAME], "start": record[START],
                    "end": record[END], "parent": record[PARENT],
                    "request": record[REQUEST], "phase": record[PHASE],
                    **(record[ATTRS] or {}),
                }) + "\n")


# -- wrappers ----------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name, measure=None, before=None):
    """``fn`` recording one span per call while the tracer has a phase.

    ``name`` is the span's name, or a function of the call's arguments
    that returns it.  ``measure(args, result, early)`` returns the
    span's attributes; ``early`` is what ``before(args)`` returned just
    ahead of the call (None without ``before``).
    """
    from repro.experiments.runner import in_pool_worker

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.phase is None or in_pool_worker():
            return fn(*args, **kwargs)
        early = before(args) if before is not None else None
        record = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if measure is not None:
            record[ATTRS] = measure(args, result, early)
        return result

    return wrapper


def _count_fallbacks(tracer: Tracer, record_fallback):
    """``record_fallback`` counting, per phase, the events new to the log.

    The program drains the process-wide fallback log (the figures
    pipeline does so around every artifact), so its length says nothing
    about an operation; the calls that add to it do.
    """
    from repro.backends import peek_fallback_events
    from repro.experiments.runner import in_pool_worker

    @functools.wraps(record_fallback)
    def wrapper(event):
        if (tracer.phase is not None and not in_pool_worker()
                and event not in peek_fallback_events()):
            tracer.counts[f"{tracer.phase}.backends.fallbacks"] += 1
        return record_fallback(event)

    return wrapper


def _subclasses(cls) -> set:
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _subclasses(sub)
    return out


def install(tracer: Tracer, in_process_kernels: bool):
    """Wrap every layer's public calls; returns a function undoing it.

    ``in_process_kernels`` wraps the simulation kernels too; leave it
    off when they run in pool workers, whose RunStats are folded in by
    :meth:`Tracer.note_pooled_results` instead.
    """
    import importlib
    import pkgutil

    import repro
    from repro.backends import registry
    from repro.cache import ResultCache
    from repro.core import schedule
    from repro.core.base import Scheduler
    from repro.directsim.batch import BatchDirectSimulator
    from repro.directsim.simulator import DirectSimulator
    from repro.experiments import runner
    from repro.figures.registry import ArtifactSpec
    from repro.serve import advisor
    from repro.simgrid.fastpath import FastMasterWorkerSimulation
    from repro.simgrid.masterworker import MasterWorkerSimulation
    from repro.workloads.distributions import Workload

    # Load every module first, so each binding of a wrapped function is
    # replaced, including those of modules the figures import lazily.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)

    patches = contextlib.ExitStack()

    def wrap(owner, attr, name, measure=None, before=None):
        """Wrap ``owner.attr`` (a class or module attribute) in place."""
        patches.enter_context(mock.patch.object(owner, attr, _wrap(
            tracer, owner.__dict__[attr], name, measure, before)))

    def everywhere(module, attr, wrapped):
        """Rebind ``module.attr`` in every ``repro`` module binding it."""
        original = getattr(module, attr)
        for name, target in list(sys.modules.items()):
            if (name.startswith("repro") and target is not None
                    and getattr(target, attr, None) is original):
                patches.enter_context(
                    mock.patch.object(target, attr, wrapped))

    def one_run(args, result, early):
        return {"runs": 1}

    if in_process_kernels:
        def batch_form(args):
            # run_batch instantiates a factory the same way; the span
            # name needs an instance to tell the two kernels apart
            simulator, scheduler = args[0], args[1]
            if not isinstance(scheduler, Scheduler):
                scheduler = scheduler(simulator.params)
            return "batch.closed" if schedule.closed_form_supported(
                scheduler) else "batch.stepping"

        wrap(BatchDirectSimulator, "run_batch", batch_form,
             lambda args, results, early: {
                 "reps": len(results),
                 "chunks": sum(r.stats.events for r in results)})
        everywhere(schedule, "precompute_schedule", _wrap(
            tracer, schedule.precompute_schedule, "schedule"))
        for cls in _subclasses(Workload):
            for attr in ("chunk_times_batch", "chunk_times_round"):
                if attr in cls.__dict__:
                    wrap(cls, attr, "workloads")
        wrap(DirectSimulator, "run", "direct", one_run)
        wrap(FastMasterWorkerSimulation, "run", "fastpath", one_run)
        wrap(FastMasterWorkerSimulation, "run_many", "fastpath",
             lambda args, results, early: {"runs": len(results)})
        wrap(MasterWorkerSimulation, "run", "msg", one_run)

    everywhere(registry, "resolve_backend", _wrap(
        tracer, registry.resolve_backend, "backends.resolve"))
    everywhere(registry, "record_fallback",
               _count_fallbacks(tracer, registry.record_fallback))
    wrap(ResultCache, "task_key", "cache.key")
    wrap(ResultCache, "sweep_key", "cache.key")
    wrap(ResultCache, "get", "cache.get",
         lambda args, entry, bytes_before: {
             "bytes": args[0].stats.bytes_read - bytes_before,
             "hit": int(entry is not None)},
         before=lambda args: args[0].stats.bytes_read)
    wrap(ResultCache, "put", "cache.put",
         lambda args, written, early: {"bytes": written})
    wrap(runner.RunTask, "execute", "runner")
    everywhere(runner, "run_replicated", _wrap(
        tracer, runner.run_replicated, "runner"))

    def pooled(args, groups, early):
        # warm operations are served from the cache, whose results carry
        # the RunStats of the run that stored them, not new kernel work
        if not in_process_kernels and tracer.phase == "cold":
            tracer.note_pooled_results(args[0], groups)
        return None

    everywhere(runner, "run_replicated_batch", _wrap(
        tracer, runner.run_replicated_batch, "pool", pooled))
    wrap(ArtifactSpec, "produce", "figures.produce")
    wrap(advisor.Advisor, "parse", "serve.parse")
    wrap(advisor.Advisor, "advise", "serve.advise")
    wrap(advisor.SweepBatcher, "execute", "serve.batch")
    # only the advisor's ranking step, not every caller of summarize
    wrap(advisor, "summarize", "serve.rank")
    return patches.close
