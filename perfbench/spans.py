"""Layer spans for the traced run, installed from the benchmark's own files.

:meth:`Tracer.install` wraps each layer's functions where their callers look
them up (module globals and class attributes), before the pool forks, so
forked workers inherit the wrappers.  A span records its duration and the
part of it its child spans cover; a layer's self time is the difference.

Recording is switched by one byte of anonymous shared memory, so the parent
and its forked workers see the same switch.  Pool workers exit without
running ``atexit``, so a worker appends its finished spans to its own file
after every top-level call; the parent merges those files when a traced
phase ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import mmap
import os
import time
from collections import defaultdict
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import evaluation
from repro.core.montecarlo import batch, parallel, runner
from repro.core.montecarlo.journal import ShardJournal
from repro.core.montecarlo.transport import SharedGridPlanes
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.stacked import SCHEME_PLANE_FIELDS, STACKED_PLANE_FIELDS
from repro.markov import checker
from repro.markov.template import ChainTemplate, TemplateEvaluator
from repro.simulation.confidence import StreamingMoments

# ``repro.core`` re-exports the ``sweep`` function under the module's name.
sweep = importlib.import_module("repro.core.sweep")

Counts = Dict[str, float]

#: Bytes one grid row occupies in the parameter planes.
_ROW_BYTES = sum(np.dtype(dt).itemsize for _, dt in STACKED_PLANE_FIELDS)
_SCHEME_ROW_BYTES = sum(np.dtype(dt).itemsize for _, dt in SCHEME_PLANE_FIELDS)


def _count_kernel(counts: Counts, args, kwargs, lifetimes) -> None:
    counts["kernel.lifetimes"] += len(lifetimes)
    counts["kernel.events"] += float(
        lifetimes.disk_failures.sum()
        + lifetimes.human_errors.sum()
        + lifetimes.du_events.sum()
        + lifetimes.dl_events.sum()
    )


def _count_stacked(counts: Counts, args, kwargs, grid) -> None:
    counts["stacked.plane_bytes"] += sum(
        getattr(grid, f.name).nbytes
        for f in dataclasses.fields(grid)
        if getattr(grid, f.name) is not None
    )


def _count_planes(counts: Counts, args, kwargs, planes) -> None:
    spec = planes.spec
    row = _ROW_BYTES + (_SCHEME_ROW_BYTES if spec.has_schemes else 0)
    counts["stacked.plane_bytes"] += spec.n_rows * row


def _count_transport(counts: Counts, args, kwargs, mode) -> None:
    counts[f"transport.resolved.{mode}"] += 1


def _count_rounds(counts: Counts, args, kwargs, round_counts) -> None:
    if any(round_counts):
        counts["allocator.rounds"] += 1
        counts["allocator.lifetimes"] += sum(round_counts)


def _count_results(counts: Counts, args, kwargs, results) -> None:
    for result in results if isinstance(results, list) else [results]:
        counts["result.lifetimes"] += result.n_iterations
        counts["result.disk_failures"] += result.totals.get("disk_failures", 0.0)
        counts["result.human_errors"] += result.totals.get("human_errors", 0.0)
        counts["result.du_events"] += result.totals.get("du_events", 0.0)
        counts["parallel.retries"] += result.retried_shards
        if result.ess is not None:
            counts["allocator.ess"] += result.ess
            counts["allocator.ess_lifetimes"] += result.n_iterations


#: ``(owner, attribute, layer, count)``: every function the traced run
#: wraps.  ``layer=None`` wraps for counts only, without a span.
SPANS = (
    (sweep, "sweep", "sweep", None),
    (sweep, "sweep_grid", "sweep", None),
    (evaluation, "evaluate", "evaluation", None),
    (evaluation, "evaluate_stacked", "evaluation", None),
    (sweep, "evaluate", "evaluation", None),
    (sweep, "evaluate_stacked", "evaluation", None),
    (sweep, "analytical_result", "evaluation", None),
    (evaluation, "run_monte_carlo", None, _count_results),
    (evaluation, "run_stacked", None, _count_results),
    (runner, "run_sharded", "parallel", None),
    (parallel, "run_stacked_sharded", "parallel", None),
    (Future, "result", "parallel.wait", None),
    (parallel, "run_shard", "shard", None),
    (parallel, "run_stacked_shard", "shard", None),
    (parallel, "run_stacked_shard_shm", "shard", None),
    (parallel, "_allocator_round_counts", "allocator", _count_rounds),
    (SimulationPolicy, "simulate_batch", "kernel", _count_kernel),
    (SimulationPolicy, "simulate_stacked", "kernel", _count_kernel),
    (batch, "summarise_batch", "batch.summarise", None),
    (parallel, "stack_parameter_points", "stacked.build", _count_stacked),
    (parallel, "resolve_stacked_transport", "transport", _count_transport),
    (SharedGridPlanes, "from_points", "transport", _count_planes),
    (SharedGridPlanes, "dispose", "transport", None),
    (ShardJournal, "append", "journal", None),
    (StreamingMoments, "interval", "confidence", None),
    (parallel, "required_samples", "confidence", None),
    (batch, "confidence_interval", "confidence", None),
    (runner, "confidence_interval", "confidence", None),
    (ChainTemplate, "solve_many", "markov.solve", None),
    (TemplateEvaluator, "solve", "markov.solve", None),
    (checker, "cycle_stationary_availability", "markov.checker", None),
    (checker, "check_repair_matrix", "markov.checker", None),
)


class _Frames:
    """Span accumulators of one process: open frames plus per-layer sums."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Counts = defaultdict(float)

    def call(self, layer: Optional[str], fn: Callable, count, args, kwargs):
        if layer is None:
            result = fn(*args, **kwargs)
            self._count(count, args, kwargs, result)
            return result
        frame = [layer, 0]
        self.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += elapsed
            self.self_ns[layer] += elapsed - frame[1]
            self.total_ns[layer] += elapsed
            self.calls[layer] += 1
        self._count(count, args, kwargs, result)
        return result

    def _count(self, count, args, kwargs, result) -> None:
        """Run a count hook, charging its cost to the ``trace`` layer."""
        if count is None:
            return
        start = time.perf_counter_ns()
        count(self.counts, args, kwargs, result)
        elapsed = time.perf_counter_ns() - start
        self.self_ns["trace"] += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed


class Tracer:
    """Installs the layer wrappers and aggregates what they record."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self._switch = mmap.mmap(-1, 1)
        self.parent = _Frames()
        self._restore: List[tuple] = []
        self._worker_pid: Optional[int] = None
        self._worker: Optional[_Frames] = None

    def enable(self, on: bool) -> None:
        self._switch[0] = 1 if on else 0

    def install(self) -> None:
        """Wrap every function in :data:`SPANS`; call before the pool forks."""
        for owner, attribute, layer, count in SPANS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer, count))
            else:
                wrapped = self._wrap(original, layer, count)
            setattr(owner, attribute, wrapped)
            self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, layer: Optional[str], count) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._switch[0]:
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return tracer._worker_call(layer, fn, count, args, kwargs)
            if not tracer.parent.stack:
                # Outside an op: the benchmark's own output checks.
                return fn(*args, **kwargs)
            return tracer.parent.call(layer, fn, count, args, kwargs)

        return wrapper

    def op(self) -> "_OpSpan":
        """Return the context manager that times one op as the root span."""
        return _OpSpan(self.parent)

    def _worker_call(self, layer, fn, count, args, kwargs):
        if self._worker_pid != os.getpid():
            # First traced call in this (forked) worker: start afresh.
            self._worker_pid = os.getpid()
            self._worker = _Frames()
        frames = self._worker
        top_level = not frames.stack
        result = frames.call(layer, fn, count, args, kwargs)
        if top_level:
            self._flush_worker(frames)
        return result

    def _flush_worker(self, frames: _Frames) -> None:
        record = {
            "self_ns": dict(frames.self_ns),
            "total_ns": dict(frames.total_ns),
            "calls": dict(frames.calls),
            "counts": dict(frames.counts),
        }
        path = self.directory / f"worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
        self._worker = _Frames()

    def worker_totals(self) -> _Frames:
        """Merge every worker's flushed spans into one accumulator."""
        merged = _Frames()
        for path in sorted(self.directory.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for field in ("self_ns", "total_ns", "calls", "counts"):
                    target = getattr(merged, field)
                    for key, value in record[field].items():
                        target[key] += value
        return merged


class _OpSpan:
    """Root span of one op; returns its wall time in nanoseconds."""

    def __init__(self, frames: _Frames) -> None:
        self.frames = frames
        self.ns = 0

    def __enter__(self) -> "_OpSpan":
        self.frames.stack.append(["op", 0])
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.ns = time.perf_counter_ns() - self.start
        frame = self.frames.stack.pop()
        self.frames.self_ns["op"] += self.ns - frame[1]
        self.frames.total_ns["op"] += self.ns


#: Parent-side layers whose self times, with ``parallel.wait``, partition
#: the op wall time (the ``op`` layer's own self time is the residual).
PARENT_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SPANS if layer)) + ("trace",)
