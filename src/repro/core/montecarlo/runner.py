"""Monte Carlo runner: policy-registry dispatch over two execution paths.

Runs many independent simulated lifetimes (as configured by
:class:`~repro.core.montecarlo.config.MonteCarloConfig`), averages their
availability and attaches a Student-t confidence interval — the estimator
described in the paper's Section III, where the interval width shrinks with
the square root of the iteration count.

The replacement policy is resolved by name through
:mod:`repro.core.policies.registry`; the configuration alone decides the
execution path:

* the **sharded** path (every run of a policy that ships a vectorised
  kernel, unless an event trace was requested, and every run that sets
  ``workers > 1``, ``shard_size`` or ``target_half_width``) cuts the budget
  into fixed-size shards — in-process at ``workers=1`` — and merges
  streaming summaries via :mod:`repro.core.montecarlo.parallel`, and
* the **scalar** path walks one Python event loop per lifetime — the
  per-lifetime reference, and the only path that can record the paper's
  Fig. 1 style episode traces, which can be replayed on the
  discrete-event engine through :mod:`repro.core.montecarlo.engine_bridge`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.montecarlo.parallel import run_sharded
from repro.core.montecarlo.config import MonteCarloConfig, PolicyRef
from repro.core.montecarlo.results import (
    EpisodeTrace,
    IterationResult,
    MonteCarloResult,
    merge_iteration_counters,
)
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind
from repro.simulation.confidence import confidence_interval
from repro.simulation.rng import RandomStreams


def _runs_scalar_loop(config: MonteCarloConfig) -> bool:
    """Return whether ``config`` runs on the per-lifetime scalar loop.

    Traces only exist on the scalar loop, and a single-process policy
    without a batch kernel has nothing else to run.
    """
    if config.collect_trace:
        return True
    policy = resolve_policy(config.policy)
    return not config.uses_sharded_path and not policy.has_batch_kernel


def _executor_provenance(config: MonteCarloConfig) -> str:
    """Name the execution path ``config`` runs on, and its pool if it has one.

    ``"scalar"`` or ``"sharded(N workers[, <kind> pool])"``: the pool is
    recorded only where one exists, with more than one worker.
    """
    if _runs_scalar_loop(config):
        return "scalar"
    workers = int(config.workers)
    pool = f", {config.pool} pool" if workers > 1 else ""
    return f"sharded({workers} worker{'s' if workers != 1 else ''}{pool})"


def run_iterations(
    config: MonteCarloConfig,
    streams: Optional[RandomStreams] = None,
) -> Tuple[List[IterationResult], Optional[EpisodeTrace]]:
    """Run all configured iterations on the scalar path, raw results.

    The first iteration optionally records an event trace (Fig. 1 style).
    ``streams`` lets a caller supply an externally seeded stream family;
    ``None`` builds one from ``config.seed``.
    """
    policy = resolve_policy(config.policy)
    if streams is None:
        streams = RandomStreams(config.seed)
    rng = streams.stream("montecarlo")
    iterations: List[IterationResult] = []
    trace: Optional[EpisodeTrace] = EpisodeTrace() if config.collect_trace else None
    for index in range(config.n_iterations):
        iteration_trace = trace if (index == 0 and trace is not None) else None
        iterations.append(
            policy.simulate(config.params, config.horizon_hours, rng, trace=iteration_trace)
        )
    return iterations, trace


def run_monte_carlo(config: MonteCarloConfig, pool=None) -> MonteCarloResult:
    """Run the configured study and return the aggregated result.

    Runs the sharded executor — in-process at ``workers=1`` — for every
    config but an event trace or a single-process policy without a batch
    kernel, which walk the scalar loop.  ``pool`` optionally shares an
    externally owned executor across sharded studies (see
    :func:`repro.core.montecarlo.parallel.worker_pool`); the scalar loop
    ignores it.
    """
    if not _runs_scalar_loop(config):
        return run_sharded(config, pool=pool)
    if config.journal_path is not None:
        raise ConfigurationError(
            "checkpoint/resume journals record *shard* summaries and need "
            f"the sharded executor; policy {resolve_policy(config.policy).name!r} "
            "has no batch kernel, so set workers, shard_size or "
            "target_half_width"
        )
    if config.biasing is not None:
        # The config validator already rejects biased traces; this catches
        # a policy without a batch kernel resolving to the scalar loop.
        raise ConfigurationError(
            "failure biasing requires the vectorised batch kernels; policy "
            f"{resolve_policy(config.policy).name!r} has no batch kernel and "
            "resolved to the scalar path"
        )
    streams = RandomStreams(config.seed)
    iterations, _ = run_iterations(config, streams=streams)
    return summarise_iterations(iterations, config, seed_entropy=streams.seed_entropy)


def run_monte_carlo_with_trace(
    config: MonteCarloConfig,
) -> Tuple[MonteCarloResult, EpisodeTrace]:
    """Run the study on the scalar path and also return the first trace."""
    traced_config = config if config.collect_trace else replace(config, collect_trace=True)
    streams = RandomStreams(traced_config.seed)
    iterations, trace = run_iterations(traced_config, streams=streams)
    assert trace is not None  # collect_trace was forced on above
    result = summarise_iterations(
        iterations, traced_config, seed_entropy=streams.seed_entropy
    )
    return result, trace


def summarise_iterations(
    iterations: List[IterationResult],
    config: MonteCarloConfig,
    seed_entropy: Optional[int] = None,
) -> MonteCarloResult:
    """Aggregate raw iteration results into a :class:`MonteCarloResult`."""
    if len(iterations) < 2:
        raise ConfigurationError("at least two iterations are required to summarise")
    availabilities = np.array([it.availability for it in iterations], dtype=float)
    interval = confidence_interval(availabilities, confidence=config.confidence)
    return MonteCarloResult(
        availability=float(availabilities.mean()),
        interval=interval,
        n_iterations=len(iterations),
        horizon_hours=config.horizon_hours,
        totals=merge_iteration_counters(iterations),
        label=config.label(),
        seed_entropy=seed_entropy,
    )


def estimate_availability(
    params: AvailabilityParameters,
    policy: PolicyRef = PolicyKind.CONVENTIONAL,
    n_iterations: int = 20_000,
    horizon_hours: float = 10 * 8760.0,
    seed: Optional[int] = 0,
    confidence: float = 0.99,
    workers: int = 1,
    target_half_width: Optional[float] = None,
) -> MonteCarloResult:
    """One-call convenience wrapper around :func:`run_monte_carlo`."""
    config = MonteCarloConfig(
        params=params,
        policy=policy,
        horizon_hours=horizon_hours,
        n_iterations=n_iterations,
        confidence=confidence,
        seed=seed,
        workers=workers,
        target_half_width=target_half_width,
    )
    return run_monte_carlo(config)
