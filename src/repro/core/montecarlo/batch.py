"""Vectorised batch execution of a Monte Carlo availability study.

Where :mod:`repro.core.montecarlo.runner` walks one Python event loop per
lifetime, this executor hands the whole iteration budget to the policy's
struct-of-arrays numpy kernel (see :mod:`repro.core.policies.vectorized`)
and summarises the per-lifetime availabilities with the same Student-t
interval as the scalar path.  Policies without a vectorised kernel fall
back to a scalar loop inside :meth:`SimulationPolicy.simulate_batch`, so
``run_batch`` works for every registered policy.

Multi-process execution lives one layer up in
:mod:`repro.core.montecarlo.parallel`, which splits the budget into shards
and runs each shard through the same kernels used here.

**Stacked grids.**  :func:`run_stacked` takes one config per sweep point and
runs the whole ``points x lifetimes`` grid through the policy's stacked
batch kernel: per-study scalars become per-lifetime broadcast arrays (see
:mod:`repro.core.policies.stacked`), so an entire parameter sweep costs a
handful of kernel invocations instead of one full study per point.
Per-point results come back from one segmented aggregation
(``np.add.reduceat``-style moments per point,
:func:`segment_point_records`); the flattened axis is sharded by
:mod:`repro.core.montecarlo.parallel` with the same spawn-indexed stream
discipline as single-point runs.  A policy whose kernel cannot take a
stacked grid runs in the same shards, one kernel call per point segment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.montecarlo.config import MonteCarloConfig
from repro.core.montecarlo.results import MonteCarloResult
from repro.core.policies.base import BatchLifetimes
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.simulation.confidence import (
    StreamingMoments,
    confidence_interval,
    segmented_moments,
)
from repro.simulation.rng import RandomStreams


def run_batch_lifetimes(
    config: MonteCarloConfig, streams: Optional[RandomStreams] = None
) -> BatchLifetimes:
    """Run all configured lifetimes through the batch kernel, raw results.

    ``streams`` lets a caller supply an externally seeded stream family
    (e.g. a shard's spawned child); ``None`` builds one from ``config.seed``.
    """
    policy = resolve_policy(config.policy)
    if streams is None:
        streams = RandomStreams(config.seed)
    rng = streams.stream("montecarlo")
    return policy.simulate_batch(
        config.params,
        config.horizon_hours,
        config.n_iterations,
        rng,
        biasing=config.biasing,
    )


def summarise_batch(
    batch: BatchLifetimes,
    config: MonteCarloConfig,
    seed_entropy: Optional[int] = None,
) -> MonteCarloResult:
    """Aggregate a batch into a :class:`MonteCarloResult`."""
    # Same up-front check (and error type) as the scalar path's
    # summarise_iterations — a too-small batch must not surface as a
    # SimulationError from deep inside the interval computation.
    if len(batch) < 2:
        raise ConfigurationError("at least two iterations are required to summarise")
    weights = batch.weights()
    availabilities = batch.weighted_availabilities(weights)
    interval = confidence_interval(availabilities, confidence=config.confidence)
    ess = None
    if weights is not None:
        moments = StreamingMoments.from_samples(availabilities, weights=weights)
        ess = moments.ess()
    return MonteCarloResult(
        availability=float(availabilities.mean()),
        interval=interval,
        n_iterations=len(batch),
        horizon_hours=config.horizon_hours,
        totals=batch.totals(),
        label=config.label(),
        seed_entropy=seed_entropy,
        ess=ess,
    )


def run_batch(config: MonteCarloConfig) -> MonteCarloResult:
    """Run the configured study on the vectorised path and summarise it."""
    streams = RandomStreams(config.seed)
    batch = run_batch_lifetimes(config, streams=streams)
    return summarise_batch(batch, config, seed_entropy=streams.seed_entropy)


# ----------------------------------------------------------------------
# Stacked grids: one kernel invocation for many sweep points
# ----------------------------------------------------------------------
#: Fixed-width record of one sweep point's rows within a shard: the shard
#: summary wire format of the stacked executor.  One row per point the
#: shard intersects — mergeable moments (``n``/``mean``/``m2``) plus the
#: event totals — so a whole shard's outcome crosses the process boundary
#: as one small structured array instead of a list of per-point dicts.
POINT_SUMMARY_DTYPE = np.dtype(
    [
        ("point", np.int64),
        ("n", np.int64),
        ("mean", np.float64),
        ("m2", np.float64),
        ("w_sum", np.float64),
        ("w2_sum", np.float64),
        ("downtime_hours", np.float64),
        ("du_events", np.float64),
        ("dl_events", np.float64),
        ("disk_failures", np.float64),
        ("human_errors", np.float64),
    ]
)

#: The event-counter fields of :data:`POINT_SUMMARY_DTYPE`, in the
#: ``MonteCarloResult.totals`` key order.
POINT_SUMMARY_TOTAL_FIELDS = (
    "downtime_hours",
    "du_events",
    "dl_events",
    "disk_failures",
    "human_errors",
)


def segment_point_records(
    batch: BatchLifetimes,
    point_indices: Sequence[int],
    counts: Sequence[int],
) -> np.ndarray:
    """Aggregate a point-major batch into a :data:`POINT_SUMMARY_DTYPE` array.

    ``counts[i]`` consecutive lifetimes of ``batch`` belong to sweep point
    ``point_indices[i]``.  One segmented pass computes every point's
    moments (the two-pass arithmetic of
    :func:`~repro.simulation.confidence.segmented_moments`) and its event
    totals (``np.add.reduceat``), with no per-point Python loop over
    samples, into one record array the parent merges with array ops.
    """
    if len(point_indices) != len(counts):
        raise ConfigurationError("one point index is required per segment")
    weights = batch.weights()
    moments = segmented_moments(
        batch.weighted_availabilities(weights), counts, weights=weights
    )
    sizes = np.asarray(list(counts), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    records = np.zeros(len(moments), dtype=POINT_SUMMARY_DTYPE)
    records["point"] = np.asarray(list(point_indices), dtype=np.int64)
    records["n"] = sizes
    records["mean"] = [moment.mean for moment in moments]
    records["m2"] = [moment.m2 for moment in moments]
    records["w_sum"] = [moment.w_sum for moment in moments]
    records["w2_sum"] = [moment.w2_sum for moment in moments]
    for key in POINT_SUMMARY_TOTAL_FIELDS:
        values = getattr(batch, key)
        if weights is not None:
            values = weights * values
        records[key] = np.add.reduceat(values, offsets)
    return records


def run_stacked(
    configs: Sequence[MonteCarloConfig],
    *,
    crn: bool = False,
    pool=None,
) -> List[MonteCarloResult]:
    """Run one Monte Carlo study per config as a single stacked grid.

    All configs must share policy, horizon, confidence, seed and the
    sharded-executor settings;
    their parameter points and iteration counts form the grid.  The
    flattened ``point x lifetime`` axis is cut into fixed-size shards whose
    stream families are spawned at the shard index (worker-count
    independent), so ``workers=N`` is bit-identical to ``workers=1`` and
    every point can be replayed from the master seed alone
    (:func:`repro.core.montecarlo.parallel.replay_stacked_point`).

    ``crn=True`` enables **common random numbers**: shards then never cross
    point boundaries and every point reuses the *same* within-point stream
    indices, so all points consume identical base streams — the opt-in
    variance-reduction mode for policy/parameter contrasts.

    Returns one :class:`MonteCarloResult` per config, in config order.
    """
    from repro.core.montecarlo.parallel import run_stacked_sharded

    return run_stacked_sharded(configs, crn=crn, pool=pool)
