"""Sharded parallel Monte Carlo executor with streaming aggregation.

This is the scale-out layer above the vectorised batch kernels, and the
executor of every single-point run of a policy with a batch kernel (only
event traces and policies without one stay on the scalar loop).  The
iteration budget is split into fixed-size *shards* — 50k lifetimes unless
``shard_size`` pins another size, whatever the worker count — each shard
runs on its own :class:`~repro.simulation.rng.RandomStreams` family
(spawned from the master seed at the shard's index, so streams never
collide and never depend on scheduling order), and shard results come
back as constant-size summaries — Chan–Golub–LeVeque mergeable moments
plus event totals — rather than per-lifetime sample arrays.  Merging is
deterministic (shard-index order) and exact, so

* ``workers=1`` and ``workers=N`` produce bit-identical results, and
* memory stays flat no matter how many lifetimes are simulated.

A run that is a single unpinned, non-adaptive shard draws from the root
stream family instead, the draws of one whole-budget batch
(:func:`~repro.core.montecarlo.batch.run_batch`).

On top of the shard rounds sits **CI-driven adaptive stopping**: with
``MonteCarloConfig.target_half_width`` set, the executor keeps dispatching
rounds — sized by the :func:`~repro.simulation.confidence.required_samples`
planner — until the Student-t interval is tight enough or the configured
iteration ceiling is reached.  ``mc --target-half-width 1e-5`` therefore
replaces guessing ``--iterations``.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.montecarlo.batch import (
    POINT_SUMMARY_TOTAL_FIELDS,
    segment_point_records,
    summarise_lifetimes,
    unpack_record,
)
from repro.core.montecarlo.config import DEFAULT_SHARD_CAP, MonteCarloConfig
from repro.core.montecarlo.faults import check_abort, check_fault
from repro.core.montecarlo.journal import (
    SCALAR_RANGE,
    ShardJournal,
    journal_entropy,
    record_from_summary,
    run_digest,
    summary_parts_from_record,
)
from repro.core.montecarlo.results import MonteCarloResult, merge_totals
from repro.core.montecarlo.transport import (
    GridPlanesSpec,
    SharedGridPlanes,
    attach_grid_slice,
    attach_segment_cached,
    reap_stale_segments,
    resolve_stacked_transport,
)
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.core.policies.stacked import StackedParams, stack_parameter_points
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.confidence import (
    ConfidenceInterval,
    StreamingMoments,
    required_samples,
)
from repro.simulation.rng import RandomStreams

#: Shard lifecycle events (submitted, finished, retried, timed out, pool
#: rebuilt, journal splice) go here at DEBUG.  No handler is installed:
#: enable them with ``logging.basicConfig(level=logging.DEBUG)``.
logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardSummary:
    """Constant-size outcome of one shard of simulated lifetimes.

    Attributes
    ----------
    shard_index:
        Position of the shard in the spawn tree (its ``spawn_child`` index).
    moments:
        Mergeable mean/variance of the shard's per-lifetime availabilities.
    totals:
        Summed event counters of the shard (``MonteCarloResult.totals``
        layout).
    """

    shard_index: int
    moments: StreamingMoments
    totals: Dict[str, float]


def plan_shards(n_iterations: int, shard_size: int) -> List[int]:
    """Split an iteration budget into shard sizes (all full but the last)."""
    if n_iterations < 1:
        raise SimulationError(f"need at least one iteration to shard, got {n_iterations!r}")
    if shard_size < 1:
        raise SimulationError(f"shard size must be at least 1, got {shard_size!r}")
    full, rest = divmod(int(n_iterations), int(shard_size))
    sizes = [int(shard_size)] * full
    if rest:
        sizes.append(rest)
    return sizes


def effective_shard_size(config: MonteCarloConfig) -> int:
    """Return the lifetimes per shard of a single-point run.

    A pinned ``shard_size``, otherwise ``DEFAULT_SHARD_CAP``.  Neither the
    worker count nor the round budget enters, so the decomposition — and
    every draw — is the same for any ``workers``.
    """
    if config.shard_size is not None:
        return int(config.shard_size)
    return DEFAULT_SHARD_CAP


def _draws_from_root(
    config: MonteCarloConfig, shard_index: int, shard_size: int
) -> bool:
    """Return whether a shard draws from the root stream family.

    An unpinned, non-adaptive run of at most ``DEFAULT_SHARD_CAP``
    lifetimes is a single shard, and that shard draws from
    ``RandomStreams(master_entropy)`` itself, as one whole-budget
    :func:`~repro.core.montecarlo.batch.run_batch` does, so its numbers
    equal that batch's bit for bit.  Every other shard owns
    ``spawn_child(shard_index)``.
    """
    return (
        config.shard_size is None
        and config.target_half_width is None
        and int(shard_index) == 0
        and int(shard_size) == int(config.n_iterations) <= DEFAULT_SHARD_CAP
    )


def run_shard(
    config: MonteCarloConfig,
    master_entropy: int,
    shard_index: int,
    shard_size: int,
) -> ShardSummary:
    """Run one shard and summarise it (executed inside worker processes).

    The shard rebuilds its stream family from ``(master_entropy,
    shard_index)`` alone — the parent never ships generator state, so the
    draws are identical whether the shard runs in-process, in a forked
    worker or in a spawned one.  A run that is one unpinned, non-adaptive
    shard uses the root family (see :func:`_draws_from_root`).
    """
    check_fault(shard_index)
    policy = resolve_policy(config.policy)
    streams = RandomStreams(master_entropy)
    if not _draws_from_root(config, shard_index, shard_size):
        streams = streams.spawn_child(shard_index)
    batch = policy.simulate_shard(
        config.params,
        config.horizon_hours,
        shard_size,
        streams,
        biasing=config.biasing,
    )
    moments, totals = summarise_lifetimes(batch)
    return ShardSummary(shard_index=shard_index, moments=moments, totals=totals)


#: Environment flag the pool initializer sets in every worker — the hook
#: the oversubscription regression test probes for.
WORKER_INIT_ENV = "REPRO_MC_WORKER"

#: Longest wait, in seconds, for a torn-down process pool's manager thread
#: to reap its terminated workers.
_MANAGER_JOIN_S = 5.0

#: Thread-count knobs of the BLAS/OpenMP runtimes numpy may load.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _clamp_blas_threadpools() -> None:
    """Best-effort clamp of BLAS pools that are already initialised.

    Forked workers inherit the parent's loaded BLAS with its configured
    thread count, which environment variables can no longer change; poke
    the runtime's setter directly when its symbol is reachable.
    """
    try:
        import ctypes

        lib = ctypes.CDLL(None)
    except Exception:
        return
    for symbol in (
        "openblas_set_num_threads",
        "openblas_set_num_threads64_",
        "MKL_Set_Num_Threads",
        "omp_set_num_threads",
    ):
        setter = getattr(lib, symbol, None)
        if setter is not None:
            try:
                setter(1)
            except Exception:
                pass


def _worker_initializer() -> None:
    """Pin worker-side BLAS/OpenMP pools to one thread; default SIGTERM.

    Without this, ``workers=N`` forked from a numpy-initialised parent runs
    up to ``N x cores`` BLAS threads — oversubscription that *slows* the
    sweep down.  The env guard respects thread counts an operator pinned
    explicitly: when any of the knobs is already set, both the
    ``setdefault`` and the runtime clamp leave that configuration alone.
    The marker variable lets tests assert the initializer actually ran in
    every worker.

    A forked worker also inherits the parent's SIGTERM handler (the CLI
    turns SIGTERM into ``KeyboardInterrupt``); the default action is
    restored so a worker terminated by a pool teardown exits quietly
    instead of printing a traceback.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.environ[WORKER_INIT_ENV] = "1"
    pinned_explicitly = any(var in os.environ for var in _BLAS_ENV_VARS)
    for var in _BLAS_ENV_VARS:
        os.environ.setdefault(var, "1")
    if not pinned_explicitly:
        # Forked workers inherit already-initialised BLAS pools that env
        # vars can no longer steer — clamp those through the runtime, but
        # only when the operator expressed no preference of their own.
        _clamp_blas_threadpools()


def worker_probe() -> Tuple[int, bool]:
    """Return ``(pid, initializer_ran)`` from inside a pool worker."""
    return os.getpid(), os.environ.get(WORKER_INIT_ENV) == "1"


def _make_pool(workers: int, kind: str = "process") -> Executor:
    """Build the worker pool, preferring cheap ``fork`` workers on Linux.

    Fork is only *safe* on Linux: macOS lists it as available but forking a
    process with framework state initialised (numpy is already imported)
    can crash workers, which is why CPython's default there is spawn.
    Every worker runs :func:`_worker_initializer` before its first shard.

    ``kind="thread"`` builds a :class:`ThreadPoolExecutor` instead: shards
    run in-process, sharing the parent's module state and — on the stacked
    path — the materialised grid planes outright, with no BLAS re-pinning
    needed (the threads inherit the parent's configuration).
    """
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-mc")
    use_fork = sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if use_fork else None)
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_worker_initializer
    )


def _crosses_process_boundary(pool: Optional[Executor]) -> bool:
    """Return whether shards submitted to ``pool`` leave this process.

    Thread pools keep shards in-process (their futures see the parent's
    memory directly); anything else pooled is treated as a process boundary,
    which errs on the side of the transports that always work.
    """
    return pool is not None and not isinstance(pool, ThreadPoolExecutor)


@contextlib.contextmanager
def worker_pool(workers: int, kind: str = "process"):
    """Context manager yielding a reusable pool (or ``None`` for 1 worker).

    Sweeps that run many sharded studies (the experiment grids) should
    create one pool here and pass it to each :func:`run_sharded` /
    ``run_monte_carlo`` call, instead of paying pool startup — worker
    process creation, and on spawn platforms a numpy/scipy re-import per
    worker — once per study.

    ``kind`` picks the executor (:data:`repro.core.montecarlo.config.POOLS`):
    ``"serial"`` yields ``None`` regardless of ``workers``, running the
    identical shard plan sequentially in-process — the pool oracle.
    """
    if int(workers) <= 1 or kind == "serial":
        yield None
        return
    pool = _make_pool(int(workers), kind)
    try:
        yield pool
    finally:
        pool.shutdown()


# ----------------------------------------------------------------------
# Fault-tolerant shard execution
# ----------------------------------------------------------------------
@dataclass
class _ShardStats:
    """Mutable per-run provenance counters of the fault-tolerant executor."""

    retried: int = 0
    resumed: int = 0
    completed: int = 0
    interrupted: bool = False


def _terminate_pool_workers(pool: Executor) -> None:
    """Tear a pool down without waiting for its shards: cancel, terminate, reap.

    ``shutdown(cancel_futures=True)`` only drops *queued* work; a worker
    stuck inside a shard never returns to pick up the cancellation, so the
    processes themselves must be terminated.  CPython's ``shutdown`` drops
    the pool's ``_processes`` and ``_executor_manager_thread`` references,
    so both are captured first; the workers are then sent SIGTERM and the
    manager thread, which reaps them, is joined for at most
    :data:`_MANAGER_JOIN_S` seconds.  The attributes are private, but
    guarded so an implementation change degrades to leaving the workers to
    die with the parent instead of crashing the run.  Thread pools have
    nothing to terminate (threads cannot be killed); a hung thread is
    simply abandoned with its executor.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=_MANAGER_JOIN_S)


class _PoolSupervisor:
    """Owns the worker pool behind one fault-tolerant run.

    Wraps either an internally created pool (rebuilt on worker loss or
    timeout) or an externally shared one (never rebuilt: its lifecycle —
    and the other studies running on it — belong to the caller, so a
    broken external pool re-raises instead).
    """

    def __init__(self, workers: int, kind: str, pool: Optional[Executor]) -> None:
        self._external = pool is not None
        self.pool = pool
        self._workers = int(workers)
        self._kind = kind

    def ensure(self) -> Optional[Executor]:
        """Create the own pool if the config calls for one; return it."""
        if (
            self.pool is None
            and not self._external
            and self._workers > 1
            and self._kind != "serial"
        ):
            self.pool = _make_pool(self._workers, self._kind)
        return self.pool

    def rebuild(self) -> Optional[Executor]:
        """Replace a failed own pool with a fresh one (``None`` if external).

        The failed pool's queued futures are cancelled and its worker
        processes terminated and reaped (:func:`_terminate_pool_workers`)
        before the new pool starts — a hung worker would otherwise keep
        its stuck shard (and on fork platforms its copy of the planes)
        alive until it finished, and the parent would wait for it at exit.
        In-flight shards are the caller's to resubmit.
        """
        if self._external:
            return None
        pool, self.pool = self.pool, None
        if pool is not None:
            _terminate_pool_workers(pool)
        self.pool = _make_pool(self._workers, self._kind)
        logger.debug("worker pool rebuilt: %d %s workers", self._workers, self._kind)
        return self.pool

    def abort(self) -> None:
        """Tear the own pool down without waiting (failure/interrupt path)."""
        if self._external or self.pool is None:
            return
        pool, self.pool = self.pool, None
        _terminate_pool_workers(pool)

    def close(self) -> None:
        """Orderly shutdown of the own pool (no-op for external pools)."""
        if self._external or self.pool is None:
            return
        pool, self.pool = self.pool, None
        pool.shutdown()


def _backoff_sleep(backoff: float, attempt: int) -> None:
    """Pause ``backoff * 2**(attempt-1)`` seconds before a resubmission."""
    if backoff > 0.0:
        time.sleep(backoff * (2.0 ** (attempt - 1)))


def _gather_shards(
    items: Sequence,
    run_inline: Callable,
    submit: Callable,
    supervisor: _PoolSupervisor,
    config: MonteCarloConfig,
    stats: _ShardStats,
) -> Iterator:
    """Yield one result per item, in item order, surviving shard failures.

    This is the retry engine both the scalar and the stacked path run on.
    ``items`` are opaque shard descriptors; ``run_inline(item)`` executes
    one in the calling thread, ``submit(pool, item)`` schedules one on the
    pool.  Because every shard recomputes bit-identical records from the
    master entropy and its stream index alone, a resubmission *is* the
    original shard — retries change provenance counters, never numbers.

    Failure handling, per ``config``:

    * an **in-shard exception** resubmits just that shard (exponential
      ``retry_backoff``), up to ``max_shard_retries`` attempts per shard;
    * a **timeout** — the next unfinished shard in plan order took longer
      than ``shard_timeout`` — and a **broken pool** (worker killed) tear
      the own pool down, rebuild it, and resubmit every unfinished shard;
      the triggering shard is charged one retry, innocent-bystander
      resubmissions are free (total rebuilds stay bounded by
      ``shards x max_shard_retries``);
    * on the inline path (no pool) only in-shard exceptions are
      retryable — there is no second thread to enforce a timeout from, and
      a worker loss cannot happen in-process;
    * an externally shared pool is never rebuilt: timeouts and broken
      pools re-raise so the owner decides (in-shard retries still work).

    Pending futures are cancelled on every abnormal exit, including
    generator close (``KeyboardInterrupt`` in the consumer).
    """
    timeout = config.shard_timeout
    max_retries = int(config.max_shard_retries)
    backoff = float(config.retry_backoff)
    total = len(items)

    def record_retry(index: int, attempt: int, cause: str) -> None:
        stats.retried += 1
        logger.debug(
            "shard %d/%d retried (attempt %d of %d): %s",
            index, total, attempt, max_retries, cause,
        )

    def submit_shard(pool_: Executor, index: int):
        logger.debug("shard %d/%d submitted", index, total)
        return submit(pool_, items[index])

    pool = supervisor.ensure()
    if pool is None:
        for index, item in enumerate(items):
            attempt = 0
            logger.debug("shard %d/%d submitted inline", index, total)
            while True:
                try:
                    result = run_inline(item)
                except Exception as error:
                    attempt += 1
                    if attempt > max_retries:
                        raise
                    record_retry(index, attempt, repr(error))
                    _backoff_sleep(backoff, attempt)
                    continue
                logger.debug("shard %d/%d finished", index, total)
                yield result
                break
        return
    pending = {index: submit_shard(pool, index) for index in range(total)}
    attempts = [0] * total
    try:
        # Collect in item (= plan) order so the merge stays deterministic
        # regardless of which worker finishes first.
        for index in range(total):
            while True:
                try:
                    result = pending[index].result(timeout=timeout)
                    del pending[index]
                    logger.debug("shard %d/%d finished", index, total)
                    yield result
                    break
                except FuturesTimeout:
                    attempts[index] += 1
                    logger.debug(
                        "shard %d/%d timed out after %ss (attempt %d)",
                        index, total, timeout, attempts[index],
                    )
                    if attempts[index] > max_retries:
                        raise SimulationError(
                            f"shard {index} of {total} did not finish "
                            f"within shard_timeout={timeout}s after "
                            f"{attempts[index]} attempts"
                        )
                    new_pool = supervisor.rebuild()
                    if new_pool is None:
                        raise SimulationError(
                            f"shard {index} timed out after {timeout}s on an "
                            "externally owned pool, which this run cannot "
                            "rebuild; pass an internal pool or raise "
                            "shard_timeout"
                        )
                    pool = new_pool
                    record_retry(index, attempts[index], f"timed out after {timeout}s")
                    _backoff_sleep(backoff, attempts[index])
                    for other in list(pending):
                        pending[other] = submit_shard(pool, other)
                except BrokenExecutor as error:
                    attempts[index] += 1
                    if attempts[index] > max_retries:
                        raise
                    new_pool = supervisor.rebuild()
                    if new_pool is None:
                        raise  # external pool: the owner handles worker loss
                    pool = new_pool
                    record_retry(index, attempts[index], repr(error))
                    _backoff_sleep(backoff, attempts[index])
                    for other in list(pending):
                        pending[other] = submit_shard(pool, other)
                except Exception as error:
                    attempts[index] += 1
                    if attempts[index] > max_retries:
                        raise
                    record_retry(index, attempts[index], repr(error))
                    _backoff_sleep(backoff, attempts[index])
                    pending[index] = submit_shard(pool, index)
    except BaseException:
        # Drop the remaining shards even on a shared pool, so a failure
        # doesn't leave orphan work blocking later studies.  GeneratorExit
        # lands here too, when an interrupted consumer closes the gather.
        for future in pending.values():
            future.cancel()
        raise


def _partial_interval(
    moments: StreamingMoments, confidence: float
) -> ConfidenceInterval:
    """Interval of a possibly-degenerate partial result (interrupt path).

    An interrupted run may have merged fewer than two lifetimes for a
    point; a Student-t interval does not exist there, so the partial
    result carries a NaN-width placeholder instead of refusing to report
    the shards that did finish.
    """
    try:
        return moments.interval(confidence)
    except SimulationError:
        return ConfidenceInterval(
            mean=moments.mean if moments.n else float("nan"),
            half_width=float("nan"),
            confidence=confidence,
            n_samples=moments.n,
            std_error=float("nan"),
        )


def _log_splice(journal: ShardJournal, spliced: int, planned: int) -> None:
    """Log how many of a plan's shards came from the journal."""
    if spliced:
        logger.debug(
            "journal %s: spliced %d of %d shards (resumed)", journal.path, spliced, planned
        )


def _open_journal(
    configs: Sequence[MonteCarloConfig],
    policy: SimulationPolicy,
    master_entropy: int,
    *,
    shard_size: Optional[int],
    crn: bool = False,
    scalar: bool = False,
) -> Optional[ShardJournal]:
    """Open the run's checkpoint journal when one is configured."""
    first = configs[0]
    path = first.journal_path
    if path is None:
        return None
    digest, key = run_digest(
        configs,
        policy,
        master_entropy=master_entropy,
        shard_size=shard_size,
        crn=crn,
        scalar=scalar,
    )
    return ShardJournal.open(
        path, digest, key, master_entropy, require_existing=first.resume is not None
    )


def _resolve_master_entropy(config: MonteCarloConfig) -> int:
    """Resolve the run's master entropy, honouring a resumed journal.

    A ``resume=`` run with ``seed=None`` adopts the journaled run's
    entropy (the digest check then verifies the rest of the key); in every
    other case the entropy derives from the seed exactly as before.
    """
    if config.resume is not None and config.seed is None:
        adopted = journal_entropy(config.resume)
        if adopted is not None:
            return adopted
    return RandomStreams(config.seed).seed_entropy


def run_sharded(
    config: MonteCarloConfig, pool: Optional[Executor] = None
) -> MonteCarloResult:
    """Run the configured study on the sharded executor and summarise it.

    Cuts each round into :func:`effective_shard_size` shards, dispatches
    them across ``config.workers`` processes (in-process for
    ``workers=1``), merges the streaming summaries, and — when
    ``config.target_half_width`` is set — keeps adding rounds until the
    interval is tight enough or ``config.adaptive_ceiling`` is hit.

    ``pool`` lets a sweep share one executor across many studies (see
    :func:`worker_pool`); its lifecycle then belongs to the caller.

    Failed shards are retried per ``config.max_shard_retries`` /
    ``shard_timeout`` (see :func:`_gather_shards`); with ``checkpoint=`` /
    ``resume=`` completed shard summaries go to a durable journal and
    already-journaled shards are skipped.  ``KeyboardInterrupt``/SIGTERM
    returns the partial result flagged ``interrupted=True`` instead of
    raising, with the journal flushed so the run can resume.
    """
    policy = resolve_policy(config.policy)  # fail fast on unknown policies
    master_entropy = _resolve_master_entropy(config)
    target = config.target_half_width
    ceiling = config.adaptive_ceiling if target is not None else config.n_iterations

    moments = StreamingMoments()
    totals: Dict[str, float] = {}
    next_index = 0
    round_budget = config.n_iterations
    shard_size = effective_shard_size(config)

    stats = _ShardStats()
    supervisor = _PoolSupervisor(int(config.workers), config.pool, pool)
    journal = _open_journal(
        [config],
        policy,
        master_entropy,
        shard_size=config.shard_size,
        scalar=True,
    )
    try:
        while round_budget > 0:
            sizes = plan_shards(round_budget, shard_size)
            plan = [(next_index + offset, size) for offset, size in enumerate(sizes)]
            next_index += len(sizes)
            summaries: List[Optional[ShardSummary]] = [None] * len(plan)
            to_run: List[Tuple[int, int, int]] = []
            for position, (index, size) in enumerate(plan):
                journaled = (
                    journal.records((index,) + SCALAR_RANGE)
                    if journal is not None
                    else None
                )
                if journaled is not None:
                    shard_moments, shard_totals = summary_parts_from_record(journaled)
                    summaries[position] = ShardSummary(index, shard_moments, shard_totals)
                    stats.resumed += 1
                else:
                    to_run.append((position, index, size))
            if journal is not None:
                _log_splice(journal, len(plan) - len(to_run), len(plan))
            gathered = _gather_shards(
                [(index, size) for _, index, size in to_run],
                run_inline=lambda item: run_shard(
                    config, master_entropy, item[0], item[1]
                ),
                submit=lambda pool_, item: pool_.submit(
                    run_shard, config, master_entropy, item[0], item[1]
                ),
                supervisor=supervisor,
                config=config,
                stats=stats,
            )
            try:
                for (position, index, _), summary in zip(to_run, gathered):
                    summaries[position] = summary
                    if journal is not None:
                        journal.append(
                            (index,) + SCALAR_RANGE,
                            record_from_summary(summary.moments, summary.totals),
                        )
                    stats.completed += 1
                    check_abort(stats.completed)
            except KeyboardInterrupt:
                stats.interrupted = True
                gathered.close()
                supervisor.abort()
            # Merge the round in shard-index (= plan) order; on an
            # interrupted round only the shards collected before the
            # interrupt contribute (the partial result's honest content).
            merged = [summary for summary in summaries if summary is not None]
            for summary in merged:
                moments.merge(summary.moments)
            totals = merge_totals([totals] + [s.totals for s in merged])
            if stats.interrupted:
                break
            round_budget = _next_round_budget(config, moments, shard_size, ceiling)
    except BaseException:
        # Don't make a failed shard wait for the rest of the round: drop
        # queued work and leave in-flight shards to die with their workers
        # so the error surfaces immediately.  An externally owned pool is
        # left alone — its lifecycle belongs to the caller.
        supervisor.abort()
        raise
    finally:
        supervisor.close()
        if journal is not None:
            journal.close()

    interval = (
        _partial_interval(moments, config.confidence)
        if stats.interrupted
        else moments.interval(config.confidence)
    )
    return MonteCarloResult(
        availability=moments.mean if moments.n else float("nan"),
        interval=interval,
        n_iterations=moments.n,
        horizon_hours=config.horizon_hours,
        totals=totals,
        label=config.label(),
        seed_entropy=master_entropy,
        ess=moments.ess() if config.biasing is not None and moments.n else None,
        retried_shards=stats.retried,
        resumed_shards=stats.resumed,
        interrupted=stats.interrupted,
    )


# ----------------------------------------------------------------------
# Stacked grids: sharding the flattened point x lifetime axis
# ----------------------------------------------------------------------
#: Shard size of a stacked grid when no explicit ``shard_size`` is pinned.
#: Deliberately **independent of the worker count**: the decomposition (and
#: therefore every random draw) is the same for any ``workers``, making
#: ``workers=N`` bit-identical to ``workers=1`` by construction rather than
#: only under a pinned shard size.  25k is the smallest size at which a
#: 16 x 8-point, 10k-lifetime grid on a 2-worker pool stops getting faster
#: (DESIGN.md, "Stream layout"); larger shards only grow the working set.
#: Single points keep ``DEFAULT_SHARD_CAP``.
DEFAULT_STACKED_SHARD_SIZE = 25_000


@dataclass(frozen=True)
class StackedShard:
    """One contiguous range of the flattened ``point x lifetime`` axis.

    Attributes
    ----------
    stream_index:
        Spawn index of the shard's stream family.  Unique per shard on the
        plain stacked path; on the CRN path it is the *within-point* shard
        index, so every point reuses the same family sequence (that reuse
        is the common-random-numbers coupling).
    start / stop:
        Flat row range ``[start, stop)`` covered by the shard.
    point_indices / counts:
        The sweep points the range intersects, and how many of the shard's
        rows belong to each (in point-major order).
    """

    stream_index: int
    start: int
    stop: int
    point_indices: Tuple[int, ...]
    counts: Tuple[int, ...]


def plan_stacked_shards(
    counts: Sequence[int], shard_size: int, crn: bool = False
) -> List[StackedShard]:
    """Cut the flattened grid into shards (point-major, deterministic).

    ``crn=False`` tiles the whole flat axis with fixed-size shards that may
    span several points; ``crn=True`` restarts the tiling (and the stream
    indices) at every point boundary so all points consume identical base
    streams.
    """
    sizes = [int(c) for c in counts]
    if not sizes:
        raise SimulationError("stacked planning requires at least one point")
    if any(size < 1 for size in sizes):
        raise SimulationError("every stacked point needs at least one lifetime")
    if int(shard_size) < 1:
        raise SimulationError(f"shard size must be at least 1, got {shard_size!r}")
    shard_size = int(shard_size)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    shards: List[StackedShard] = []
    if crn:
        for point, (offset, size) in enumerate(zip(offsets[:-1], sizes)):
            for within, s in enumerate(range(0, size, shard_size)):
                stop = min(s + shard_size, size)
                shards.append(
                    StackedShard(
                        stream_index=within,
                        start=int(offset + s),
                        stop=int(offset + stop),
                        point_indices=(point,),
                        counts=(stop - s,),
                    )
                )
        return shards
    total = int(offsets[-1])
    for index, s in enumerate(range(0, total, shard_size)):
        stop = min(s + shard_size, total)
        point = int(np.searchsorted(offsets, s, side="right") - 1)
        points: List[int] = []
        segment_counts: List[int] = []
        while point < len(sizes) and offsets[point] < stop:
            points.append(point)
            segment_counts.append(
                int(min(offsets[point + 1], stop) - max(offsets[point], s))
            )
            point += 1
        shards.append(
            StackedShard(
                stream_index=index,
                start=s,
                stop=stop,
                point_indices=tuple(points),
                counts=tuple(segment_counts),
            )
        )
    return shards


def _shard_rng(master_entropy: int, shard: StackedShard) -> np.random.Generator:
    """Return the shard's ``"montecarlo"`` stream, after any injected fault."""
    check_fault(shard.stream_index)
    streams = RandomStreams(master_entropy).spawn_child(shard.stream_index)
    return streams.stream("montecarlo")


def _simulate_stacked_shard(
    policy: SimulationPolicy,
    grid_slice: StackedParams,
    horizon_hours: float,
    master_entropy: int,
    shard: StackedShard,
    biasing: Optional[float] = None,
) -> np.ndarray:
    """Simulate one shard's rows and summarise them as point records.

    Exactly like :func:`run_shard`, the stream family is rebuilt from
    ``(master_entropy, stream_index)`` alone, so the draws are identical
    in-process, forked or spawned — and identical for any worker count and
    any transport, because every transport feeds the kernel value-identical
    parameter rows.
    """
    batch = policy.simulate_stacked(
        grid_slice, horizon_hours, _shard_rng(master_entropy, shard), biasing=biasing
    )
    return segment_point_records(batch, shard.point_indices, shard.counts)


def run_stacked_shard(
    policy: SimulationPolicy,
    point_params: Sequence,
    horizon_hours: float,
    master_entropy: int,
    shard: StackedShard,
    biasing: Optional[float] = None,
) -> np.ndarray:
    """Pickle-transport worker entry: rebuild the slice from scalars.

    ``point_params`` holds one scalar parameter point per entry of
    ``shard.point_indices``; the worker expands them into its own
    :class:`StackedParams` slice (``shard.counts`` rows each), so only a
    handful of scalars — never grid-sized arrays — cross the process
    boundary.  This is the process-pool default; the summary comes back as
    one :data:`~repro.core.montecarlo.batch.POINT_SUMMARY_DTYPE` record
    array on every transport.

    Periodic-scheme policies (the erasure family) re-resolve their scheme
    against each point worker-side, so the rebuilt slice carries the same
    per-row scheme planes the view/shm transports materialise parent-side.

    A policy whose kernel cannot take a stacked slice (``not
    policy.can_stack``) runs one :meth:`SimulationPolicy.simulate_batch`
    call per point segment instead, in plan order, from the shard's one
    stream.
    """
    if not policy.can_stack:
        rng = _shard_rng(master_entropy, shard)
        return np.concatenate([
            segment_point_records(
                policy.simulate_batch(params, horizon_hours, count, rng, biasing=biasing),
                (point,),
                (count,),
            )
            for params, point, count in zip(point_params, shard.point_indices, shard.counts)
        ])
    schemes = (
        [policy.scheme] * len(point_params) if policy.has_periodic_checks else None
    )
    grid_slice = stack_parameter_points(point_params, shard.counts, schemes=schemes)
    return _simulate_stacked_shard(
        policy, grid_slice, horizon_hours, master_entropy, shard,
        biasing=biasing,
    )


def run_stacked_shard_shm(
    policy: SimulationPolicy,
    spec: GridPlanesSpec,
    horizon_hours: float,
    master_entropy: int,
    shard: StackedShard,
    biasing: Optional[float] = None,
) -> np.ndarray:
    """Shared-memory worker entry: attach the planes, view the row range.

    The parent materialised the whole sweep's parameter planes once
    (:class:`~repro.core.montecarlo.transport.SharedGridPlanes`); this
    worker attaches by name and addresses its shard as read-only views of
    rows ``[shard.start, shard.stop)`` — zero copies, and the only pickled
    payload per shard is the tiny spec.
    """
    segment = attach_segment_cached(spec.name)
    grid_slice = attach_grid_slice(spec, segment.buf, shard.start, shard.stop, shard.counts)
    try:
        return _simulate_stacked_shard(
            policy, grid_slice, horizon_hours, master_entropy, shard,
            biasing=biasing,
        )
    finally:
        # Drop the buffer views promptly; the cached attachment itself is
        # reused by this worker's next shard and replaced (closed) when a
        # different sweep's segment comes along.
        del grid_slice


def _validate_stacked(
    configs: Sequence[MonteCarloConfig],
) -> Tuple[SimulationPolicy, MonteCarloConfig]:
    """Check that the configs form one coherent stacked grid."""
    if not configs:
        raise ConfigurationError("a stacked run requires at least one config")
    first = configs[0]
    policy = resolve_policy(first.policy)
    for config in configs:
        if resolve_policy(config.policy) != policy:
            raise ConfigurationError("stacked configs must share one policy")
        if config.collect_trace:
            raise ConfigurationError("event traces require the per-point scalar path")
        for attr in (
            "horizon_hours", "confidence", "seed", "workers",
            "shard_size", "transport", "target_half_width", "biasing",
            "allocator", "pool", "shard_timeout",
            "max_shard_retries", "retry_backoff", "checkpoint", "resume",
        ):
            if getattr(config, attr) != getattr(first, attr):
                raise ConfigurationError(
                    f"stacked configs must share {attr!r}: "
                    f"{getattr(config, attr)!r} != {getattr(first, attr)!r}"
                )
    return policy, first


def stacked_shard_size(config: MonteCarloConfig) -> int:
    """Return the stacked decomposition's shard size for a config."""
    if config.shard_size is not None:
        return int(config.shard_size)
    return DEFAULT_STACKED_SHARD_SIZE


def _run_stacked_shards(
    policy: SimulationPolicy,
    configs: Sequence[MonteCarloConfig],
    horizon_hours: float,
    master_entropy: int,
    shards: Sequence[StackedShard],
    supervisor: _PoolSupervisor,
    stats: _ShardStats,
    mode: str = "pickle",
    grid: Optional[StackedParams] = None,
    spec: Optional[GridPlanesSpec] = None,
    biasing: Optional[float] = None,
) -> Iterator[np.ndarray]:
    """Run the planned shards, yielding summary records in plan order.

    ``mode`` is the resolved transport: ``"pickle"`` ships each shard's
    scalar points and rebuilds the slice worker-side, ``"view"`` slices the
    materialised ``grid`` — in-process when unpooled, per-submission when the
    pool is a thread pool (threads see the parent's planes directly; no
    segment, no pickling, no rebuild) — and ``"shm"`` submits only the
    planes ``spec`` and workers attach the shared segment.  All three feed
    the kernels value-identical rows, so the records — and everything merged
    from them — are byte-identical across transports.

    Execution (plan-order collection, retry/timeout/rebuild semantics)
    delegates to :func:`_gather_shards`; every transport resubmits cleanly
    because a shard's inputs — scalar points, a grid view, or the planes
    spec — are parent-owned and survive any worker's death.
    """

    def _params(shard: StackedShard):
        return [configs[point].params for point in shard.point_indices]

    def _run_inline(shard: StackedShard) -> np.ndarray:
        if mode == "view":
            return _simulate_stacked_shard(
                policy, grid.slice(shard.start, shard.stop),
                horizon_hours, master_entropy, shard, biasing=biasing,
            )
        return run_stacked_shard(
            policy, _params(shard), horizon_hours, master_entropy, shard,
            biasing=biasing,
        )

    def _submit(pool: Executor, shard: StackedShard):
        if mode == "view":
            # Thread-pooled shards share the materialised grid outright:
            # each submission carries a zero-copy row-range view of the
            # parent's planes.  (Process pools never take this branch — the
            # transport resolver only yields "view" when shards stay
            # in-process.)
            return pool.submit(
                _simulate_stacked_shard, policy,
                grid.slice(shard.start, shard.stop),
                horizon_hours, master_entropy, shard, biasing,
            )
        if mode == "shm":
            return pool.submit(
                run_stacked_shard_shm, policy, spec,
                horizon_hours, master_entropy, shard, biasing,
            )
        return pool.submit(
            run_stacked_shard, policy, _params(shard),
            horizon_hours, master_entropy, shard, biasing,
        )

    first = configs[0]
    yield from _gather_shards(
        list(shards),
        run_inline=_run_inline,
        submit=_submit,
        supervisor=supervisor,
        config=first,
        stats=stats,
    )


def _merge_point_records(
    record_parts: Sequence[np.ndarray], n_points: int
) -> Tuple[List[StreamingMoments], List[Dict[str, float]]]:
    """Merge plan-ordered shard records into per-point moments and totals.

    The concatenated records are stably sorted by point, which groups each
    point's rows while preserving plan order within the group; the event
    totals then fall out of one ``np.add.reduceat`` per column, and the
    moments fold together with the same sequential Chan–Golub–LeVeque
    merges (in the same order) as the retired dict-of-floats transport —
    keeping ``workers=N`` bit-identical to ``workers=1`` and the whole
    merge bit-identical to the pre-record path.
    """
    moments = [StreamingMoments() for _ in range(n_points)]
    totals: List[Dict[str, float]] = [{} for _ in range(n_points)]
    parts = [part for part in record_parts if part.size]
    if not parts:
        return moments, totals
    records = np.concatenate(parts)
    records = records[np.argsort(records["point"], kind="stable")]
    points = records["point"]
    offsets = np.concatenate(([0], np.flatnonzero(np.diff(points)) + 1))
    sums = {
        key: np.add.reduceat(records[key], offsets)
        for key in POINT_SUMMARY_TOTAL_FIELDS
    }
    for row, point in enumerate(points[offsets]):
        totals[int(point)] = {
            key: float(sums[key][row]) for key in POINT_SUMMARY_TOTAL_FIELDS
        }
    for record in records:
        moments[int(record["point"])].merge(unpack_record(record)[0])
    return moments, totals


def _point_result(
    config: MonteCarloConfig,
    moments: StreamingMoments,
    totals: Dict[str, float],
    horizon_hours: float,
    master_entropy: int,
    stats: Optional[_ShardStats] = None,
    carry_counters: bool = True,
) -> MonteCarloResult:
    """Assemble one point's result from its merged summaries.

    Shared by the grid run and :func:`replay_stacked_point` so the
    bit-identical-replay guarantee can never drift on the assembly side.
    ``stats`` is run-level provenance: the ``interrupted`` flag lands on
    every point (it qualifies each point's numbers), while the
    retry/resume *counters* — which count shards of the whole grid, not of
    any one point — are carried by the first point only
    (``carry_counters``), so summing over a sweep's points totals the run
    instead of multiplying it by the grid size.  An interrupted run
    additionally degrades under-sampled points to NaN-width intervals
    instead of raising.
    """
    interrupted = stats is not None and stats.interrupted
    interval = (
        _partial_interval(moments, config.confidence)
        if interrupted
        else moments.interval(config.confidence)
    )
    return MonteCarloResult(
        availability=moments.mean if moments.n else float("nan"),
        interval=interval,
        n_iterations=moments.n,
        horizon_hours=horizon_hours,
        totals=totals,
        label=config.label(),
        seed_entropy=master_entropy,
        ess=moments.ess() if config.biasing is not None and moments.n else None,
        retried_shards=stats.retried if stats is not None and carry_counters else 0,
        resumed_shards=stats.resumed if stats is not None and carry_counters else 0,
        interrupted=interrupted,
    )


def run_stacked_sharded(
    configs: Sequence[MonteCarloConfig],
    *,
    crn: bool = False,
    pool: Optional[Executor] = None,
) -> List[MonteCarloResult]:
    """Run a whole sweep grid as stacked shards and summarise it per point.

    This is the execution layer behind
    :func:`repro.core.montecarlo.batch.run_stacked` — see there for the API
    contract.  ``pool`` lets a caller share one executor across several
    grids; its lifecycle then belongs to the caller.

    On the default ``transport="auto"``, process-pool shards carry their
    points' scalars and each worker rebuilds its own row slice, while
    thread and in-process shards take row-range views of one grid built
    here.  ``transport="shm"`` instead materialises the grid's broadcast
    arrays once into a context-managed shared-memory segment (unlinked on
    every exit path) and workers attach read-only row-range views.  Shard
    summaries come back as fixed-width record arrays merged with array ops
    in plan order, byte-identical on every transport.
    """
    policy, first = _validate_stacked(configs)
    if first.target_half_width is not None and crn:
        raise ConfigurationError(
            "adaptive allocation re-plans shard rounds from the merged "
            "interval widths; it cannot preserve the common-random-numbers "
            "coupling"
        )
    counts = [int(config.n_iterations) for config in configs]
    shards = plan_stacked_shards(counts, stacked_shard_size(first), crn=crn)
    master_entropy = _resolve_master_entropy(first)
    horizon = float(first.horizon_hours)

    stats = _ShardStats()
    supervisor = _PoolSupervisor(int(first.workers), first.pool, pool)
    journal = _open_journal(
        configs,
        policy,
        master_entropy,
        shard_size=stacked_shard_size(first),
        crn=crn,
    )

    def _run_plan(
        plan: Sequence[StackedShard], mode: str, grid=None, spec=None
    ) -> List[Optional[np.ndarray]]:
        """Run one shard plan: splice journaled records, gather the rest.

        Returns the plan's record parts *in plan order*; entries still
        ``None`` after an interrupt are the shards that never finished.
        Freshly gathered shards are journaled as they are collected.
        """
        parts: List[Optional[np.ndarray]] = [None] * len(plan)
        to_run: List[Tuple[int, StackedShard]] = []
        for position, shard in enumerate(plan):
            key = (shard.stream_index, shard.start, shard.stop)
            journaled = journal.records(key) if journal is not None else None
            if journaled is not None:
                parts[position] = journaled
                stats.resumed += 1
            else:
                to_run.append((position, shard))
        if journal is not None:
            _log_splice(journal, len(plan) - len(to_run), len(plan))
        gathered = _run_stacked_shards(
            policy, configs, horizon, master_entropy,
            [shard for _, shard in to_run], supervisor, stats,
            mode=mode, grid=grid, spec=spec, biasing=first.biasing,
        )
        try:
            for (position, shard), records in zip(to_run, gathered):
                parts[position] = records
                if journal is not None:
                    journal.append(
                        (shard.stream_index, shard.start, shard.stop), records
                    )
                stats.completed += 1
                check_abort(stats.completed)
        except KeyboardInterrupt:
            stats.interrupted = True
            gathered.close()
            supervisor.abort()
        return parts

    record_parts: List[np.ndarray] = []
    planes: Optional[SharedGridPlanes] = None
    try:
        supervisor.ensure()
        # Transport resolution keys on whether shards actually leave the
        # process: a thread pool (own or caller-shared) keeps them here, so
        # it gets the zero-copy "view" planes — the whole point of the
        # thread executor — instead of a per-shard rebuild.  A kernel
        # without stacked grids takes scalar points only, so its shards
        # always carry them.
        mode = resolve_stacked_transport(
            first.transport if policy.can_stack else "pickle",
            pooled=_crosses_process_boundary(supervisor.pool),
        )
        grid = spec = None
        schemes = (
            [policy.scheme] * len(configs) if policy.has_periodic_checks else None
        )
        if mode == "view":
            # Materialise the whole grid's broadcast planes exactly once
            # per sweep; in-process shards address them as row-range views.
            grid = stack_parameter_points(
                [c.params for c in configs], counts, schemes=schemes
            )
        elif mode == "shm":
            # Recover segments a SIGKILL'd earlier run left behind before
            # creating this sweep's own (atexit-registered) planes.
            reap_stale_segments()
            # Write the planes straight into the shared segment — one pass
            # over the grid bytes, no intermediate full-size arrays.
            planes = SharedGridPlanes.from_points(
                [c.params for c in configs], counts, schemes=schemes
            )
            spec = planes.spec
        record_parts.extend(
            part
            for part in _run_plan(shards, mode, grid=grid, spec=spec)
            if part is not None
        )
        if first.target_half_width is not None and not stats.interrupted:
            # CI-width-driven adaptive allocation: between rounds, merge
            # what every point has so far and dispatch the next round's
            # lifetimes to the points whose intervals are still too wide.
            # Follow-up rounds rebuild their rows from scalars (the pickle
            # transport) because the view/shm planes were laid out for the
            # initial uniform plan only; stream indices continue the global
            # shard sequence, so the whole run — rounds, allocations and
            # draws — is a pure function of the master seed.  Resumed runs
            # replay the identical allocation: journaled shards feed the
            # same merged moments into the same planner, so each round's
            # plan (and the journal keys) line up shard for shard.
            next_index = len(shards)
            while True:
                moments, _ = _merge_point_records(record_parts, len(configs))
                round_counts = _allocator_round_counts(configs, moments, first)
                if not any(round_counts):
                    break
                round_shards = _plan_allocator_shards(
                    round_counts, stacked_shard_size(first), next_index
                )
                next_index += len(round_shards)
                record_parts.extend(
                    part
                    for part in _run_plan(round_shards, "pickle")
                    if part is not None
                )
                if stats.interrupted:
                    break
    except BaseException:
        # Don't make a failed shard wait for the rest of the round: drop
        # queued work and leave in-flight shards to die with their workers
        # so the error surfaces immediately.  An externally owned pool is
        # left alone — its lifecycle belongs to the caller.
        supervisor.abort()
        raise
    finally:
        # The planes outlive every shard but never the sweep: unlink on
        # all exit paths so no /dev/shm segment survives a failure.
        if planes is not None:
            planes.dispose()
        supervisor.close()
        if journal is not None:
            journal.close()

    moments, point_totals = _merge_point_records(record_parts, len(configs))
    return [
        _point_result(
            config, point_moments, totals, horizon, master_entropy, stats,
            carry_counters=index == 0,
        )
        for index, (config, point_moments, totals) in enumerate(
            zip(configs, moments, point_totals)
        )
    ]


def _allocator_round_counts(
    configs: Sequence[MonteCarloConfig],
    moments: Sequence[StreamingMoments],
    first: MonteCarloConfig,
) -> List[int]:
    """Size every point's next adaptive round (0 = the point is done).

    Per point this is the same planning discipline as the single-point
    adaptive loop (:func:`_next_round_budget`): stop at the target or the
    point's ceiling, double through the zero-variance degeneracy, otherwise
    close the point's own ``required_samples`` gap.  The ``"ci_width"``
    allocator dispatches exactly those per-point gaps — wide intervals get
    big rounds, finished points get nothing; the ``"uniform"`` allocator
    levels every unmet point up to the largest gap, the naive
    equal-budget discipline kept as the baseline.
    """
    target = first.target_half_width
    needs: List[int] = []
    for config, point_moments in zip(configs, moments):
        ceiling = config.adaptive_ceiling
        headroom = ceiling - point_moments.n
        if headroom <= 0:
            needs.append(0)
            continue
        if point_moments.m2 == 0.0:
            # Degenerate zero-width interval (no event observed yet): keep
            # sampling, doubling per round, until an event or the ceiling.
            needs.append(int(min(max(point_moments.n, 1), headroom)))
            continue
        if point_moments.interval(config.confidence).half_width <= target:
            needs.append(0)
            continue
        try:
            needed = required_samples(
                point_moments.std(), target, confidence=config.confidence
            )
        except SimulationError:
            needed = ceiling
        needs.append(int(min(max(needed - point_moments.n, 1), headroom)))
    if first.allocator == "uniform" and any(needs):
        biggest = max(needs)
        needs = [
            min(biggest, config.adaptive_ceiling - point_moments.n) if need else 0
            for config, point_moments, need in zip(configs, moments, needs)
        ]
    return needs


def _plan_allocator_shards(
    round_counts: Sequence[int], shard_size: int, first_index: int
) -> List[StackedShard]:
    """Plan one adaptive round over the points with non-zero budgets.

    The round's flat axis covers only those points (remapped back to their
    grid indices), and stream indices continue the run's global shard
    sequence at ``first_index`` — every shard family stays unique, and a
    deterministic allocation replays to the same draws from the master
    seed alone.
    """
    active = [index for index, count in enumerate(round_counts) if count > 0]
    planned = plan_stacked_shards(
        [round_counts[index] for index in active], shard_size
    )
    return [
        StackedShard(
            stream_index=first_index + shard.stream_index,
            start=shard.start,
            stop=shard.stop,
            point_indices=tuple(active[point] for point in shard.point_indices),
            counts=shard.counts,
        )
        for shard in planned
    ]


def replay_stacked_point(
    configs: Sequence[MonteCarloConfig],
    point_index: int,
    *,
    crn: bool = False,
) -> MonteCarloResult:
    """Re-run one sweep point of a stacked grid, bit-identical to the grid.

    Only the shards whose flat ranges intersect the point are executed (the
    decomposition and every shard's stream family are deterministic in the
    master seed), so a single point of a large grid can be audited without
    paying for the rest.  The returned result equals the full grid run's
    entry for that point exactly; like the grid run, a ``resume=`` config
    with ``seed=None`` replays the journaled run's entropy.
    """
    policy, first = _validate_stacked(configs)
    point = int(point_index)
    if not 0 <= point < len(configs):
        raise ConfigurationError(
            f"point index {point_index!r} outside the grid of {len(configs)} points"
        )
    if first.target_half_width is not None:
        # Adaptive rounds are sized from *all* points' merged interval
        # widths, so one point's shards cannot be derived in isolation.
        # Replay instead re-runs the whole allocation single-process —
        # rounds, allocations and stream indices are deterministic in the
        # master seed, so the result still equals the grid run's entry bit
        # for bit.
        return run_stacked_sharded(configs, crn=crn, pool=None)[point]
    counts = [int(config.n_iterations) for config in configs]
    shards = [
        shard
        for shard in plan_stacked_shards(counts, stacked_shard_size(first), crn=crn)
        if point in shard.point_indices
    ]
    master_entropy = _resolve_master_entropy(first)
    horizon = float(first.horizon_hours)
    # Replay always rebuilds the intersecting shards' rows from scalars
    # (the pickle path): it touches only those rows, instead of
    # materialising the whole grid's planes to audit one point.  The
    # transports are value-identical, so the replayed result still equals
    # the grid run's entry bit for bit, whatever transport that run used.
    record_parts = list(
        _run_stacked_shards(
            policy, configs, horizon, master_entropy, shards,
            _PoolSupervisor(1, "serial", None), _ShardStats(),
            mode="pickle", biasing=first.biasing,
        )
    )
    moments, totals = _merge_point_records(record_parts, len(configs))
    return _point_result(
        configs[point], moments[point], totals[point], horizon, master_entropy
    )


def _next_round_budget(
    config: MonteCarloConfig,
    moments: StreamingMoments,
    shard_size: int,
    ceiling: int,
) -> int:
    """Return how many more lifetimes the adaptive loop should dispatch.

    Zero means stop: either adaptive mode is off, the interval already
    meets the target, or the ceiling is exhausted.
    """
    target = config.target_half_width
    if target is None:
        return 0
    headroom = ceiling - moments.n
    if headroom <= 0:
        return 0
    if moments.m2 == 0.0:
        # Zero observed variance (e.g. no downtime event in any lifetime at
        # rare-event parameters) makes the interval width 0, which would
        # trivially "meet" any target.  That is degeneracy, not
        # convergence — keep sampling, doubling per round, until either an
        # event produces a real interval or the ceiling decides.
        return min(max(moments.n, shard_size), headroom)
    # The first round merged config.n_iterations >= 2 samples (config
    # validation), so the interval always exists here.
    if moments.interval(config.confidence).half_width <= target:
        return 0
    try:
        needed = required_samples(moments.std(), target, confidence=config.confidence)
    except SimulationError:
        # Planner overflow (pathologically tight target): run out the
        # remaining ceiling instead of giving up.
        needed = ceiling
    # Always make progress by at least one shard; never exceed the ceiling.
    return min(max(needed - moments.n, shard_size), headroom)
