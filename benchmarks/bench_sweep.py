"""Engine benchmarks: the sweep engines against their per-point ancestors.

The benchmarks, one per bullet:

* **Analytical**: at 1000 sweep points the columnar template sweep
  (build the chain once, evaluate each rate once over the swept symbol
  columns, one batched factorization) must be at least **10x** faster than
  the retired per-point path that reconstructs builder, chain, validation
  and solver objects for every point — while producing byte-identical
  points.  Both sides are timed warm, as the median of five calls.
* **Monte Carlo stacked grids** (PR 4): a 32-point sweep at 5000 lifetimes
  per point, run as one stacked grid (per-lifetime parameter arrays, a
  handful of kernel invocations for the whole grid, segmented per-point
  aggregation), must be at least **5x** faster than the per-point path it
  replaces — one full independent sharded study per value, each paying its
  own kernel launches, shard scheduling and executor lifecycle.  The
  stacked decomposition is worker-count independent, so the same benchmark
  asserts that ``workers=2`` results are bit-identical to ``workers=1``.
* **Row searches**: one paper-point batch of 500k lifetimes per policy
  (conventional, automatic fail-over) and geometry (RAID1(1+1),
  RAID5(3+1), RAID5(7+1), RAID6(10+2)), run on the numpy column-pass row
  searches and on the per-row ``argmin``/``partition`` searches they
  replaced (the test-only references in ``tests/core/test_compiled.py``).
  The conventional cases call the clock-matrix kernel directly, since
  ``batch_conventional`` runs these inputs on the memoryless kernel.
  Byte-identical batches and generator states are asserted; the speedup is
  recorded with its spread and carries no floor.
* **Memoryless kernel**: the unbiased exponential conventional kernel,
  one aggregate failure clock per lifetime, against the clock-matrix
  kernel it replaced on those inputs: one 500k-lifetime paper-point batch,
  and the ``mc_grid`` grid in default 25k-row shards, in process.  Time
  (median of :data:`TIMING_REPEATS`, alternating, with its spread) and
  each kernel's ``tracemalloc`` peak are recorded; only the mean disk
  failures are asserted to agree within 5 standard errors.
* **Zero-copy transport** (PR 5): a 256-point x 10k-lifetime grid on 4
  workers, run on the shared-memory parameter planes (``transport="shm"``)
  against the per-shard pickle rebuild (the process-pool default), with
  **bit-identical results always asserted**.  The **2x floor** is an
  explicit opt-in (``REPRO_BENCH_TRANSPORT_STRICT=1``, >= 4 cores): it
  describes the *transport-bound* regime — per-point payloads large
  relative to kernel time — whereas at this model's payload (ten scalars
  per point) the scalar-pickle transport is already near-optimal: its
  grid-byte work (the per-shard ``StackedParams`` rebuilds) rides in the
  workers in parallel, while the shared-memory plane pays one serial
  parent-side pass over the grid bytes.  Every run records the measured
  speedup into ``BENCH_sweep.json`` so the trajectory stays honest;
  ``REPRO_BENCH_TRANSPORT_{POINTS,LIFETIMES,WORKERS}`` shrink the grid for
  CI's ``benchmarks`` job.

* **Erasure checker-cycle grids** (PR 7): a 48-point share-failure-rate
  sweep of a 3-of-10 erasure scheme (monthly checker, repair below 7) at
  2000 lifetimes per point, run as one stacked grid with per-row scheme
  planes, must be at least **5x** faster than per-point sharded studies —
  the same floor the conventional kernels clear, now demonstrated on the
  periodic-repair family whose analytical face is the checker-cycle
  solver rather than a steady-state solve.  Like the conventional
  benchmark, the grid sits in the overhead-dominated regime (paper-like
  rates, few events per lifetime) where stacking is designed to pay;
  event-rich grids are kernel-bound on both paths and converge to parity.
  ``REPRO_BENCH_ERASURE_{POINTS,LIFETIMES}`` shrink the grid for quick
  runs.

* **Thread-pool shards** (PR 8): a 64-point x 5k-lifetime grid on 4
  workers, run end-to-end (pool startup included) on the thread pool —
  workers share the materialized grid planes outright, no fork, no
  per-shard pickle — against the default process pool, whose workers
  rebuild each shard from pickled points.  Bit-identity is always
  asserted (the pool oracle); the strict floor
  (``REPRO_BENCH_THREAD_STRICT=1``) belongs to startup-dominated grids —
  once kernels dominate, the GIL caps the thread pool at numpy's
  released-GIL parallelism and the honest expectation is parity.
  ``REPRO_BENCH_THREAD_{POINTS,LIFETIMES}`` shrink the grid for CI.

* **Rare-event budget** (PR 6): a two-point failure-rate grid whose
  analytical unavailabilities sit at 1e-11 and 4e-11 — five orders of
  magnitude below what a naive estimator can resolve at any sane budget.
  Failure-biased importance sampling (``biasing=50``) plus the
  CI-width-driven stacked allocator must reach a 5e-11 half-width target
  spending at most **1 %** of the lifetime budget the naive estimator
  would need for the same target (>= **100x** variance efficiency).  The
  naive budget is derived from the analytical unavailability (exact) and
  the size-biased mean event downtime measured on the biased pilot — a
  weight-*ratio*, stable where the raw weighted second moment is not.
  ``REPRO_BENCH_RARE_{LIFETIMES,TARGET,CEILING}`` shrink or tighten the
  run for quick runs.

* **Analytical op**: the repository benchmark's ``analytical`` op in one
  process — two 100 x 100 hep x failure-rate template grids and a 200-hep
  3-of-10 erasure checker-cycle sweep — on the column conversion and the
  batched cycle fixed-point solve, against the per-point result
  conversion, the per-point checker loop and the one-matrix solve they
  replaced (the test-only references in
  ``tests/core/test_sweep_engine.py`` and ``tests/markov/test_checker.py``).
  Each side is timed for the op alone and for the op plus building every
  point its grids defer until read.  Byte-identical points are asserted;
  the speedup is recorded with its spread and carries no floor.

* **Dense stationary solve**: ``ChainTemplate.solve_many`` on the
  ``analytical`` op's 100 x 100 hep x failure-rate grid (k = 10,000) and
  one ``TemplateEvaluator.solve`` (k = 1), per template (conventional,
  automatic fail-over), both on the GTH state reduction.  Batch rows are
  asserted equal to the single solves bit for bit; time, recorded with its
  spread, carries no floor.

* **Likelihood-ratio arithmetic**: the same two rare points at 200k
  lifetimes each (the repository benchmark's ``rare_event`` first round),
  stacked into one in-process batch at ``biasing=50``, run on the
  closed-form exponential likelihood ratios and on the general-form
  sampler methods they replaced (the test-only references in
  ``tests/core/test_likelihood_ratio.py``).  Byte-identical batches,
  ``log_weights`` included, and generator states are asserted; the
  speedup is recorded with its spread and carries no floor.

* **Point decomposition**: one 2M-lifetime study at the paper's point
  (λ=1e-6, hep=1e-3) per policy (conventional, automatic fail-over), run
  as one whole-budget batch (``run_batch``) and as the default
  ``run_monte_carlo`` — 50k-lifetime shards in-process.  Wall time and
  ``tracemalloc`` peak are taken in separate calls, alternating, each as
  the median of :data:`TIMING_REPEATS` with its spread.  Only the memory
  ordering is asserted (the shards' peak below the batch's); time carries
  no floor.

* **Stacked grid decomposition**: the repository benchmark's ``mc_grid``
  shape (16 heps x 8 failure rates at 10k lifetimes per point,
  ``conventional``) on one shared 2-worker pool with a journal, at pinned
  shard sizes of 8192 (the earlier default), 25,000 (the default) and
  50,000 lifetimes, alternating, each the median of
  :data:`TIMING_REPEATS` with its spread.  The default run's
  ``tracemalloc`` peak comes from a separate in-process call.  Only the
  bit-identity of ``workers=1`` and ``workers=2`` at the default is
  asserted; time carries no floor.

* **Start-up**: ``import repro``, ``repro mc``, ``repro solve`` and
  ``repro reproduce``, each in a fresh interpreter, :data:`STARTUP_REPEATS`
  times, alternating.  The median wall time is recorded with its spread,
  together with the number of scipy modules each command left loaded.  Only
  that count is asserted (zero): none of the four computes with scipy.
  Time carries no floor.

Run with ``pytest benchmarks/bench_sweep.py -s`` to see the measured
speedups alongside the timing records; machine-readable results land in
``BENCH_sweep.json`` (see ``benchmarks/conftest.py``), accumulated across
runs and rendered by ``python -m repro bench history``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core.evaluation import chain_template, clear_template_cache, evaluate
from repro.core.montecarlo import (
    DEFAULT_SHARD_CAP,
    DEFAULT_STACKED_SHARD_SIZE,
    MonteCarloConfig,
    run_batch,
    run_monte_carlo,
    run_stacked,
)
from repro.core.montecarlo.parallel import plan_stacked_shards, worker_pool
from repro.core.montecarlo.transport import shared_memory_available
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy, vectorized
from repro.core.policies.erasure import erasure_policy
from repro.core.policies.stacked import stack_parameter_points
from repro.core.sweep import sweep, sweep_grid
from repro.markov.rates import symbol_table
from repro.simulation.confidence import t_critical
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry
from tests.core.rebuild_oracle import sweep_per_point_rebuild

#: Sweep size of the headline comparison.
N_POINTS = 1000

#: Required advantage of the template engine over per-point rebuilds.
REQUIRED_SPEEDUP = 10.0

#: Timed calls per side of the template-vs-rebuild comparison (median kept).
TIMING_REPEATS = 5

#: Grid shape of the stacked Monte Carlo acceptance benchmark.
MC_POINTS = 32
MC_LIFETIMES = 5000

#: Required advantage of the stacked grid over per-point sharded studies.
REQUIRED_MC_SPEEDUP = 5.0

BASE = paper_parameters(disk_failure_rate=1e-6, hep=0.01)
HEP_VALUES = [float(h) for h in np.linspace(1e-4, 0.05, N_POINTS)]
RATE_VALUES = [float(r) for r in np.linspace(5e-7, 5.5e-6, N_POINTS)]


def _timed_calls(call):
    """Return the wall-clock seconds of :data:`TIMING_REPEATS` calls."""
    times = []
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


@pytest.mark.parametrize(
    ("policy", "axis", "values"),
    [
        ("conventional", "hep", HEP_VALUES),
        ("conventional", "failure_rate", RATE_VALUES),
        ("automatic_failover", "hep", HEP_VALUES),
    ],
    ids=["conventional-hep", "conventional-rate", "failover-hep"],
)
def test_template_sweep_10x_faster_than_rebuild(policy, axis, values, bench_record):
    """The template-engine acceptance: >= 10x at 1k points, byte-identical results.

    Both sides are timed warm — one untimed call first fills the template
    cache — as the median of :data:`TIMING_REPEATS` calls, and the record
    carries the speedup's min/max beside the median so a single noisy call
    cannot pass for a trend.
    """
    clear_template_cache()
    fast = sweep(BASE, axis, values, policy, backend="analytical")
    template_times = _timed_calls(
        lambda: sweep(BASE, axis, values, policy, backend="analytical")
    )
    slow = sweep_per_point_rebuild(BASE, axis, values, policy)
    rebuild_times = _timed_calls(
        lambda: sweep_per_point_rebuild(BASE, axis, values, policy)
    )

    template_seconds = float(np.median(template_times))
    speedup = float(np.median(rebuild_times)) / max(template_seconds, 1e-9)
    speedup_min = min(rebuild_times) / max(max(template_times), 1e-9)
    speedup_max = max(rebuild_times) / max(min(template_times), 1e-9)
    print(
        f"\n{policy}/{axis}: {N_POINTS} points — template {template_seconds:.4f}s, "
        f"rebuild {np.median(rebuild_times):.3f}s (median of {TIMING_REPEATS}; "
        f"speedup {speedup:.1f}x, range {speedup_min:.1f}-{speedup_max:.1f}x)"
    )
    bench_record(
        f"template_sweep:{policy}-{axis}",
        points=N_POINTS,
        seconds=template_seconds,
        speedup=speedup,
        speedup_min=round(speedup_min, 3),
        speedup_max=round(speedup_max, 3),
    )
    assert fast == slow
    assert speedup >= REQUIRED_SPEEDUP, (
        f"template sweep only {speedup:.1f}x faster than per-point rebuild "
        f"(required {REQUIRED_SPEEDUP:g}x)"
    )


def _mc_grid_configs(workers: int, shard_size=None) -> "list[MonteCarloConfig]":
    """Return the 32-point hep grid of the stacked acceptance benchmark.

    The per-point baseline runs with ``shard_size=None`` — the derived
    decomposition the pre-stacked dispatch would actually use (one shard
    per worker and study).  The stacked side pins 40k-lifetime shards, its
    intended operating point: the whole 160k-row grid becomes four kernel
    invocations (still worker-count independent, as the bit-identity check
    below asserts).
    """
    heps = np.linspace(0.0, 0.05, MC_POINTS)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-6, hep=float(hep)),
            policy="conventional",
            n_iterations=MC_LIFETIMES,
            horizon_hours=87_600.0,
            seed=2017,
            workers=workers,
            shard_size=shard_size,
        )
        for hep in heps
    ]


def test_stacked_mc_sweep_5x_faster_than_per_point(bench_record):
    """The PR 4 acceptance: >= 5x at 32 points x 5k lifetimes.

    The per-point baseline is the pre-stacked Monte Carlo sweep dispatch:
    one full independent sharded study per grid point, each paying its own
    kernel launches, shard scheduling and worker-pool lifecycle (exactly
    what ``run_monte_carlo`` does per config).  The stacked engine runs the
    same 160k lifetimes as one grid on the same worker count.  Both sides
    simulate identical iteration budgets with identical kernels; estimates
    must agree within overlapping 99 % intervals per point.
    """
    workers = 2
    stacked_shard = 40_000
    per_point_configs = _mc_grid_configs(workers)
    stacked_configs = _mc_grid_configs(workers, shard_size=stacked_shard)
    run_stacked(stacked_configs[:2])  # warm imports/pool machinery

    start = time.perf_counter()
    per_point = [run_monte_carlo(config) for config in per_point_configs]
    per_point_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stacked = run_stacked(stacked_configs)
    stacked_seconds = time.perf_counter() - start

    speedup = per_point_seconds / max(stacked_seconds, 1e-9)
    print(
        f"\nstacked MC sweep: {MC_POINTS} points x {MC_LIFETIMES} lifetimes — "
        f"stacked {stacked_seconds:.3f}s, per-point {per_point_seconds:.3f}s "
        f"(speedup {speedup:.1f}x)"
    )
    bench_record(
        "stacked_mc_sweep",
        points=MC_POINTS,
        seconds=stacked_seconds,
        speedup=speedup,
        lifetimes_per_point=MC_LIFETIMES,
        workers=workers,
    )

    # Same scenarios, same iteration budgets: every point's 99 % intervals
    # must overlap between the two engines.
    for point_stacked, point_ref in zip(stacked, per_point):
        low = max(point_stacked.interval.lower, point_ref.interval.lower)
        high = min(point_stacked.interval.upper, point_ref.interval.upper)
        assert low <= high, f"intervals disagree at {point_stacked.label}"

    # The stacked decomposition is worker-count independent: workers=2 must
    # be bit-identical to workers=1, point for point.
    single = run_stacked(_mc_grid_configs(1, shard_size=stacked_shard))
    for one, two in zip(single, stacked):
        assert one.availability == two.availability
        assert one.interval.half_width == two.interval.half_width
        assert one.totals == two.totals

    assert speedup >= REQUIRED_MC_SPEEDUP, (
        f"stacked sweep only {speedup:.1f}x faster than per-point studies "
        f"(required {REQUIRED_MC_SPEEDUP:g}x)"
    )


# ----------------------------------------------------------------------
# Kernel row searches and the zero-copy transport plane
# ----------------------------------------------------------------------
#: Required advantage of the zero-copy execution plane over the legacy
#: plane in the strict (transport-bound regime) configuration.
REQUIRED_TRANSPORT_SPEEDUP = 2.0

#: Transport-grid shape; the env overrides shrink it for CI smoke runs.
TRANSPORT_POINTS = int(os.environ.get("REPRO_BENCH_TRANSPORT_POINTS", "256"))
TRANSPORT_LIFETIMES = int(os.environ.get("REPRO_BENCH_TRANSPORT_LIFETIMES", "10000"))
TRANSPORT_WORKERS = int(os.environ.get("REPRO_BENCH_TRANSPORT_WORKERS", "4"))

#: Opt-in gate for the 2x floor — meaningful only where transport, not the
#: kernels, bounds the sweep (see the module docstring).
TRANSPORT_STRICT = os.environ.get("REPRO_BENCH_TRANSPORT_STRICT") == "1"

_BATCH_FIELDS = ("downtime_hours", "du_events", "dl_events", "disk_failures", "human_errors")


#: Lifetimes of the row-search comparison: one paper-point batch.
ROW_SEARCH_LIFETIMES = 500_000

#: Geometries of the row-search comparison; the clock matrix has one column
#: per disk.  RAID5(3+1) is the paper's array and keeps the unsuffixed op
#: names.
ROW_SEARCH_GEOMETRIES = {
    "RAID1(1+1)": RaidGeometry.raid1(),
    "RAID5(3+1)": RaidGeometry.raid5(3),
    "RAID5(7+1)": RaidGeometry.raid5(7),
    "RAID6(10+2)": RaidGeometry.raid6(10),
}


def _paper_point_batch(policy: str, geometry: str, retired: bool):
    """Run one paper-point batch, optionally on the retired row searches."""
    from tests.core.test_compiled import RETIRED_PRIMITIVES

    params = paper_parameters(
        geometry=ROW_SEARCH_GEOMETRIES[geometry], disk_failure_rate=1e-6, hep=0.01
    )
    rng = RandomStreams(2017).stream("montecarlo")
    searches = (
        mock.patch.multiple(vectorized, **RETIRED_PRIMITIVES)
        if retired
        else contextlib.nullcontext()
    )
    # Unbiased exponential runs take the memoryless kernels, which search
    # no clock matrix; time the clock-matrix kernels instead.
    kernel = (
        vectorized._clock_matrix_conventional
        if policy == "conventional"
        else functools.partial(
            vectorized._clock_matrix_spare_pool, n_spares=get_policy(policy).n_spares
        )
    )
    with searches:
        batch = kernel(params, 87_600.0, ROW_SEARCH_LIFETIMES, rng)
    return batch, rng


@pytest.mark.parametrize("geometry", list(ROW_SEARCH_GEOMETRIES))
@pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
def test_kernel_row_search(policy, geometry, bench_record):
    """Column-pass row searches vs the per-row argmin/partition searches.

    The retired searches are the test-only references in
    ``tests/core/test_compiled.py``, patched into the kernels.  Batches and
    the final generator state must match byte for byte.  Both sides are
    timed warm, alternating, as the median of :data:`TIMING_REPEATS` calls;
    the speedup carries no floor because host speed drifts between calls.
    """
    _paper_point_batch(policy, geometry, False)  # warm both sides
    _paper_point_batch(policy, geometry, True)
    seconds = {False: [], True: []}
    for _ in range(TIMING_REPEATS):
        for retired in (True, False):
            start = time.perf_counter()
            _paper_point_batch(policy, geometry, retired)
            seconds[retired].append(time.perf_counter() - start)

    batch, rng = _paper_point_batch(policy, geometry, False)
    reference, rng_ref = _paper_point_batch(policy, geometry, True)
    for field in _BATCH_FIELDS:
        assert getattr(batch, field).tobytes() == getattr(reference, field).tobytes(), field
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    new, old = seconds[False], seconds[True]
    speedup = float(np.median(old)) / max(float(np.median(new)), 1e-9)
    print(
        f"\nkernel row search {policy} {geometry}: {ROW_SEARCH_LIFETIMES} lifetimes — column "
        f"passes {np.median(new):.3f}s ({min(new):.3f}-{max(new):.3f}), argmin/partition "
        f"{np.median(old):.3f}s ({min(old):.3f}-{max(old):.3f}), speedup {speedup:.2f}x"
    )
    suffix = "" if geometry == "RAID5(3+1)" else f":{geometry}"
    bench_record(
        f"kernel_row_search:{policy}{suffix}",
        points=1,
        seconds=float(np.median(new)),
        speedup=speedup,
        lifetimes_per_point=ROW_SEARCH_LIFETIMES,
        seconds_min=round(min(new), 6),
        seconds_max=round(max(new), 6),
        reference_seconds=round(float(np.median(old)), 6),
        reference_seconds_min=round(min(old), 6),
        reference_seconds_max=round(max(old), 6),
        speedup_min=round(min(old) / max(max(new), 1e-9), 3),
        speedup_max=round(max(old) / max(min(new), 1e-9), 3),
    )


#: Lifetimes of the point-decomposition comparison: the repository
#: benchmark's ``mc_point`` op.
POINT_LIFETIMES = 2_000_000


def _peak_mb(call) -> float:
    """Return the ``tracemalloc`` peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
def test_point_decomposition(policy, bench_record):
    """Default 50k-lifetime shards vs one whole-budget batch at one point.

    Both sides run in-process.  Time and memory peak come from separate
    calls, because tracing allocations slows the run.  Only the memory
    ordering is asserted; the time ratio carries no floor.
    """
    config = MonteCarloConfig(
        params=paper_parameters(disk_failure_rate=1e-6, hep=1e-3),
        policy=policy,
        n_iterations=POINT_LIFETIMES,
        seed=2017,
    )
    sides = {"batch": lambda: run_batch(config), "shards": lambda: run_monte_carlo(config)}
    for call in sides.values():  # warm both sides
        call()
    seconds = {name: [] for name in sides}
    peaks = {name: [] for name in sides}
    for _ in range(TIMING_REPEATS):
        for name, call in sides.items():
            start = time.perf_counter()
            call()
            seconds[name].append(time.perf_counter() - start)
    for _ in range(TIMING_REPEATS):
        for name, call in sides.items():
            peaks[name].append(_peak_mb(call))

    new, old = seconds["shards"], seconds["batch"]
    peak, peak_ref = float(np.median(peaks["shards"])), float(np.median(peaks["batch"]))
    assert peak < peak_ref
    speedup = float(np.median(old)) / max(float(np.median(new)), 1e-9)
    print(
        f"\npoint decomposition {policy}: {POINT_LIFETIMES} lifetimes — "
        f"{DEFAULT_SHARD_CAP}-lifetime shards {np.median(new):.3f}s "
        f"({min(new):.3f}-{max(new):.3f}), peak {peak:.1f} MB; one batch "
        f"{np.median(old):.3f}s ({min(old):.3f}-{max(old):.3f}), peak "
        f"{peak_ref:.1f} MB; speedup {speedup:.2f}x"
    )
    bench_record(
        f"point_decomposition:{policy}",
        points=1,
        seconds=float(np.median(new)),
        speedup=speedup,
        lifetimes_per_point=POINT_LIFETIMES,
        shard_size=DEFAULT_SHARD_CAP,
        seconds_min=round(min(new), 6),
        seconds_max=round(max(new), 6),
        reference_seconds=round(float(np.median(old)), 6),
        reference_seconds_min=round(min(old), 6),
        reference_seconds_max=round(max(old), 6),
        peak_mb=round(peak, 3),
        peak_mb_min=round(min(peaks["shards"]), 3),
        peak_mb_max=round(max(peaks["shards"]), 3),
        reference_peak_mb=round(peak_ref, 3),
        reference_peak_mb_min=round(min(peaks["batch"]), 3),
        reference_peak_mb_max=round(max(peaks["batch"]), 3),
    )


#: The ``mc_grid`` shape of the repository benchmark, without its jitter.
GRID_HEPS = [float(h) for h in np.logspace(-4.0, -2.0, 16)]
GRID_RATES = [float(r) for r in np.logspace(-7.0, -4.0, 8)]
GRID_LIFETIMES = 10_000

#: Pinned shard sizes of the grid decomposition bench: the earlier
#: default, the default and the single-point cap.
GRID_SHARD_SIZES = (8192, DEFAULT_STACKED_SHARD_SIZE, DEFAULT_SHARD_CAP)


def _decomposition_grid(**overrides) -> "list[MonteCarloConfig]":
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=rate, hep=hep),
            policy="conventional",
            n_iterations=GRID_LIFETIMES,
            horizon_hours=87_600.0,
            seed=2017,
            **overrides,
        )
        for hep in GRID_HEPS
        for rate in GRID_RATES
    ]


def test_stacked_grid_decomposition(bench_record, tmp_path):
    """Stacked grid shard sizes on the ``mc_grid`` shape, one 2-worker pool.

    Every timed call journals to a fresh path, as the repository
    benchmark's op does.  Only the bit-identity of ``workers=1`` and
    ``workers=2`` at the default shard size is asserted; the times carry
    no floor.
    """
    points = len(GRID_HEPS) * len(GRID_RATES)
    journals = itertools.count()

    def run(pool, shard_size=None):
        path = tmp_path / f"grid-{next(journals)}.journal"
        configs = _decomposition_grid(
            workers=2, shard_size=shard_size, checkpoint=str(path)
        )
        return run_stacked(configs, pool=pool)

    seconds = {size: [] for size in GRID_SHARD_SIZES}
    with worker_pool(2) as pool:
        run(pool)  # warm the pool's workers
        for _ in range(TIMING_REPEATS):
            for size in GRID_SHARD_SIZES:
                start = time.perf_counter()
                run(pool, size)
                seconds[size].append(time.perf_counter() - start)
        pooled = run(pool)

    tracemalloc.start()
    try:
        single = run_stacked(_decomposition_grid(workers=1))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    for one, two in zip(single, pooled):
        assert one.availability == two.availability
        assert one.interval.half_width == two.interval.half_width
        assert one.totals == two.totals

    reference = float(np.median(seconds[8192]))
    for size, times in seconds.items():
        median = float(np.median(times))
        shards = len(plan_stacked_shards([GRID_LIFETIMES] * points, size))
        print(
            f"\nstacked grid decomposition: {points} points x {GRID_LIFETIMES} "
            f"lifetimes, {size}-lifetime shards ({shards}): {median:.3f}s "
            f"({min(times):.3f}-{max(times):.3f}), "
            f"{reference / median:.2f}x the 8192-lifetime shards"
        )
        extra = {}
        if size == DEFAULT_STACKED_SHARD_SIZE:
            extra = {"default": True, "peak_mb": round(peak, 3)}
        bench_record(
            f"stacked_grid_decomposition:{size}",
            points=points,
            seconds=median,
            speedup=reference / median,
            lifetimes_per_point=GRID_LIFETIMES,
            shard_size=size,
            shards=shards,
            workers=2,
            seconds_min=round(min(times), 6),
            seconds_max=round(max(times), 6),
            **extra,
        )
    print(f"default in-process tracemalloc peak: {peak:.1f} MB")


#: Lifetimes of the memoryless-kernel comparison at the paper's point.
MEMORYLESS_LIFETIMES = 500_000


def _memoryless_shapes():
    """Return each compared shape as its list of ``(params, lifetimes)`` calls."""
    point = paper_parameters(disk_failure_rate=1e-6, hep=1e-3)
    grid = stack_parameter_points(
        [
            paper_parameters(disk_failure_rate=rate, hep=hep)
            for hep in GRID_HEPS
            for rate in GRID_RATES
        ],
        [GRID_LIFETIMES] * (len(GRID_HEPS) * len(GRID_RATES)),
    )
    shards = [
        grid.slice(start, min(start + DEFAULT_STACKED_SHARD_SIZE, len(grid)))
        for start in range(0, len(grid), DEFAULT_STACKED_SHARD_SIZE)
    ]
    return {
        "paper_point": [(point, MEMORYLESS_LIFETIMES)],
        "mc_grid": [(shard, len(shard)) for shard in shards],
    }


#: Per-lifetime counters the memoryless comparison checks.
MEMORYLESS_COUNTERS = ("disk_failures", "dl_events", "human_errors", "downtime_hours")


def _run_calls(kernel, calls) -> np.ndarray:
    """Run ``calls`` on one stream; return ``(n, sum, sum of squares)`` per counter.

    One row per :data:`MEMORYLESS_COUNTERS` entry.  Only the sums outlive
    a call, so a ``tracemalloc`` peak is the largest single call's, not the
    collected output's.
    """
    rng = RandomStreams(2017).stream("montecarlo")
    totals = np.zeros((len(MEMORYLESS_COUNTERS), 3))
    for params, n in calls:
        batch = kernel(params, 87_600.0, n, rng)
        for row, name in zip(totals, MEMORYLESS_COUNTERS):
            counts = getattr(batch, name).astype(float)
            row += (counts.size, counts.sum(), counts @ counts)
    return totals


def _mean_and_se(totals: np.ndarray):
    """Return the mean and its standard error from ``(n, sum, sum of squares)``."""
    n, total, squares = totals
    mean = total / n
    return mean, np.sqrt((squares - n * mean * mean) / (n - 1) / n)


#: Each compared kernel pair: ``(memoryless, clock matrix)`` with the same
#: signature.
MEMORYLESS_KERNELS = {
    "conventional": (vectorized._memoryless_conventional, vectorized._clock_matrix_conventional),
    "automatic_failover": (
        functools.partial(vectorized._memoryless_spare_pool, n_spares=1),
        functools.partial(vectorized._clock_matrix_spare_pool, n_spares=1),
    ),
    "hot_spare_pool_k3": (
        functools.partial(vectorized._memoryless_spare_pool, n_spares=3),
        functools.partial(vectorized._clock_matrix_spare_pool, n_spares=3),
    ),
}


@pytest.mark.parametrize("shape", ["paper_point", "mc_grid"])
@pytest.mark.parametrize("policy", list(MEMORYLESS_KERNELS))
def test_memoryless_kernel(policy, shape, bench_record):
    """Memoryless vs clock-matrix kernel, unbiased and exponential.

    Three kernel pairs: ``conventional`` and the spare pools of fail-over
    (one spare) and of ``hot_spare_pool_k3``.  Two shapes: one
    500k-lifetime batch at the paper's point, and the repository
    benchmark's event-rich ``mc_grid`` grid (16 heps x 8 failure rates up
    to 1e-4 at 10k lifetimes per point) cut into default 25k-row shards,
    run in process.  Both kernels are timed warm, alternating, as the
    median of :data:`TIMING_REPEATS` calls; each kernel's ``tracemalloc``
    peak comes from a separate call.  The two kernels make different draws
    from the same law, so only the mean counts of
    :data:`MEMORYLESS_COUNTERS` are compared, each within 5 standard
    errors: disk failures, the split of repair windows into data losses
    and wrong pulls, and the downtime those outages cost.  Time carries
    no floor.
    """
    calls = _memoryless_shapes()[shape]
    lifetimes = sum(n for _, n in calls)
    memoryless, clock_matrix = MEMORYLESS_KERNELS[policy]
    sides = {
        "memoryless": lambda: _run_calls(memoryless, calls),
        "clock_matrix": lambda: _run_calls(clock_matrix, calls),
    }
    totals = {name: call() for name, call in sides.items()}  # warm both sides
    seconds = {name: [] for name in sides}
    for _ in range(TIMING_REPEATS):
        for name, call in sides.items():
            start = time.perf_counter()
            call()
            seconds[name].append(time.perf_counter() - start)
    peaks = {name: _peak_mb(call) for name, call in sides.items()}

    means = {}
    for name, new_totals, old_totals in zip(
        MEMORYLESS_COUNTERS, totals["memoryless"], totals["clock_matrix"]
    ):
        (new, new_se), (old, old_se) = _mean_and_se(new_totals), _mean_and_se(old_totals)
        assert abs(new - old) <= 5.0 * np.hypot(new_se, old_se), name
        means[name] = f"{new:.5g} vs {old:.5g}"

    fast, slow = seconds["memoryless"], seconds["clock_matrix"]
    speedup = float(np.median(slow)) / max(float(np.median(fast)), 1e-9)
    print(
        f"\nmemoryless {policy} kernel {shape}: {lifetimes} lifetimes in {len(calls)} "
        f"calls — memoryless {np.median(fast):.3f}s ({min(fast):.3f}-{max(fast):.3f}), "
        f"peak {peaks['memoryless']:.1f} MB; clock matrix {np.median(slow):.3f}s "
        f"({min(slow):.3f}-{max(slow):.3f}), peak {peaks['clock_matrix']:.1f} MB; "
        f"speedup {speedup:.2f}x; means "
        + ", ".join(f"{name} {pair}" for name, pair in means.items())
    )
    # The conventional records keep the names they had before the spare
    # pools joined.
    op = f"memoryless_kernel:{shape}"
    if policy != "conventional":
        op = f"memoryless_kernel:{policy}:{shape}"
    bench_record(
        op,
        points=1 if shape == "paper_point" else len(GRID_HEPS) * len(GRID_RATES),
        seconds=float(np.median(fast)),
        speedup=speedup,
        lifetimes_per_point=MEMORYLESS_LIFETIMES if shape == "paper_point" else GRID_LIFETIMES,
        seconds_min=round(min(fast), 6),
        seconds_max=round(max(fast), 6),
        reference_seconds=round(float(np.median(slow)), 6),
        reference_seconds_min=round(min(slow), 6),
        reference_seconds_max=round(max(slow), 6),
        speedup_min=round(min(slow) / max(max(fast), 1e-9), 3),
        speedup_max=round(max(slow) / max(min(fast), 1e-9), 3),
        peak_mb=round(peaks["memoryless"], 3),
        reference_peak_mb=round(peaks["clock_matrix"], 3),
    )


def _run_fresh(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with this checkout's ``src`` importable."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout
    )


#: Alternating 2M-lifetime paper-point ops in one interpreter; prints each
#: op's policy, wall seconds and minor page faults.
PAGE_FAULT_SCRIPT = """
import resource, time
from repro.core.evaluation import evaluate
from repro.core.parameters import paper_parameters

params = paper_parameters(disk_failure_rate=1e-6, hep=1e-3)
for op in range({ops}):
    policy = ("conventional", "automatic_failover")[op % 2]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    evaluate(params, policy, backend="monte_carlo", n_iterations=2_000_000, seed=op)
    seconds = time.perf_counter() - start
    print(policy, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux", reason="minor page faults are read from getrusage on Linux"
)
def test_page_faults_per_op(bench_record):
    """Minor page faults per 2M-lifetime op, per policy, in a fresh interpreter.

    The ops alternate ``conventional`` and ``automatic_failover`` at the
    paper's point as perfbench's ``mc_point`` does, in a new interpreter so
    no earlier benchmark has moved malloc's thresholds.  The first op of
    each policy maps its working set and is reported apart; the steady
    ops should take almost none.  No floor is asserted.
    """
    ops = 2 * (TIMING_REPEATS + 1)
    proc = _run_fresh(PAGE_FAULT_SCRIPT.format(ops=ops), timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = [line.split() for line in proc.stdout.splitlines()]
    for policy in ("conventional", "automatic_failover"):
        mine = [(float(seconds), int(faults)) for name, seconds, faults in runs if name == policy]
        (first_seconds, first_faults), steady = mine[0], mine[1:]
        faults = [count for _, count in steady]
        times = [seconds for seconds, _ in steady]
        print(
            f"\npage faults per 2M-lifetime {policy} op: first {first_faults}, then "
            f"median {np.median(faults):.0f} ({min(faults)}-{max(faults)}); "
            f"{np.median(times):.3f}s ({min(times):.3f}-{max(times):.3f})"
        )
        bench_record(
            f"page_faults:{policy}",
            points=1,
            seconds=float(np.median(times)),
            lifetimes_per_point=2_000_000,
            seconds_min=round(min(times), 6),
            seconds_max=round(max(times), 6),
            minor_faults=int(np.median(faults)),
            minor_faults_min=min(faults),
            minor_faults_max=max(faults),
            first_op_minor_faults=first_faults,
        )


#: Fresh interpreters per start-up command (the median is recorded).
STARTUP_REPEATS = 7

#: Start-up commands, each run as a user runs it, its output discarded.
STARTUP_COMMANDS = {
    "import_repro": "import repro",
    "repro_mc": "from repro.cli import main; assert main(['mc']) == 0",
    "repro_solve": "from repro.cli import main; assert main(['solve']) == 0",
    "repro_reproduce": "from repro.cli import main; assert main(['reproduce']) == 0",
}

#: One start-up command; prints how many scipy modules it left loaded.
STARTUP_SCRIPT = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    {command}
print(sum(name.partition(".")[0] == "scipy" for name in sys.modules))
"""


def test_cli_startup(bench_record):
    """Wall time of each :data:`STARTUP_COMMANDS` entry from a cold start.

    Each command runs in a new interpreter, :data:`STARTUP_REPEATS` times,
    the commands alternating; the wall time includes interpreter start-up,
    as a user sees it.  None of them computes with scipy, so none may load
    it; no time floor is asserted.
    """
    times = {op: [] for op in STARTUP_COMMANDS}
    scipy_modules = {op: [] for op in STARTUP_COMMANDS}
    for _ in range(STARTUP_REPEATS):
        for op, command in STARTUP_COMMANDS.items():
            start = time.perf_counter()
            proc = _run_fresh(STARTUP_SCRIPT.format(command=command), timeout=300)
            times[op].append(time.perf_counter() - start)
            assert proc.returncode == 0, proc.stderr
            scipy_modules[op].append(int(proc.stdout.split()[-1]))
    for op in STARTUP_COMMANDS:
        seconds = times[op]
        print(
            f"\nstart-up {op}: {np.median(seconds):.3f}s "
            f"({min(seconds):.3f}-{max(seconds):.3f}), "
            f"{max(scipy_modules[op])} scipy modules"
        )
        bench_record(
            f"startup:{op}",
            seconds=float(np.median(seconds)),
            seconds_min=round(min(seconds), 6),
            seconds_max=round(max(seconds), 6),
            repeats=STARTUP_REPEATS,
            scipy_modules=max(scipy_modules[op]),
        )
    for op, counts in scipy_modules.items():
        assert counts == [0] * STARTUP_REPEATS, f"{op} loaded scipy"


def _transport_configs(transport: str, n_iterations=None):
    heps = np.linspace(0.0, 0.05, TRANSPORT_POINTS)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-6, hep=float(hep)),
            policy="conventional",
            n_iterations=int(n_iterations or TRANSPORT_LIFETIMES),
            horizon_hours=87_600.0,
            seed=2017,
            workers=TRANSPORT_WORKERS,
            shard_size=40_000,
            transport=transport,
        )
        for hep in heps
    ]


def test_stacked_shm_transport(bench_record):
    """Shared-memory vs pickle transport: bit-identity + recorded speedup.

    The shm side (``transport="shm"``) moves the parameter planes across
    the process boundary once through shared memory and workers attach
    row-range views.  The pickle side — the process-pool default —
    pickles each shard's points and rebuilds its ``StackedParams`` slice
    in the worker.  Both run the stock ``conventional`` policy, so
    results must be bit-identical (same shard plan, same streams,
    value-identical parameter rows) — that assertion runs everywhere.  The >= 2x floor runs only with
    ``REPRO_BENCH_TRANSPORT_STRICT=1`` on >= 4 cores: it belongs to the
    transport-bound regime (large per-point payloads), which this model's
    ten-scalar points do not reach — there the honest expectation is
    parity.
    """
    if not shared_memory_available():
        pytest.skip("POSIX shared memory is not usable on this host")
    cores = os.cpu_count() or 1
    if TRANSPORT_STRICT and cores < 4:
        pytest.skip(f"strict transport acceptance requires >= 4 cores, have {cores}")

    with worker_pool(TRANSPORT_WORKERS) as pool:
        # Warm the pool and both code paths at full size outside the timed
        # region (first-touch page faults, allocator growth, imports).
        run_stacked(_transport_configs("pickle"), pool=pool)
        run_stacked(_transport_configs("shm"), pool=pool)

        start = time.perf_counter()
        legacy = run_stacked(_transport_configs("pickle"), pool=pool)
        legacy_seconds = time.perf_counter() - start

        start = time.perf_counter()
        zero_copy = run_stacked(_transport_configs("shm"), pool=pool)
        shm_seconds = time.perf_counter() - start

    for fast, reference in zip(zero_copy, legacy):
        assert fast.availability == reference.availability
        assert fast.interval.half_width == reference.interval.half_width
        assert fast.totals == reference.totals

    speedup = legacy_seconds / max(shm_seconds, 1e-9)
    print(
        f"\nstacked shm transport: {TRANSPORT_POINTS} points x "
        f"{TRANSPORT_LIFETIMES} lifetimes, {TRANSPORT_WORKERS} workers — "
        f"shm {shm_seconds:.3f}s, pickle {legacy_seconds:.3f}s "
        f"(speedup {speedup:.2f}x{', strict' if TRANSPORT_STRICT else ''})"
    )
    bench_record(
        "stacked_shm_transport",
        points=TRANSPORT_POINTS,
        seconds=shm_seconds,
        speedup=speedup,
        lifetimes_per_point=TRANSPORT_LIFETIMES,
        workers=TRANSPORT_WORKERS,
        strict=TRANSPORT_STRICT,
    )
    if TRANSPORT_STRICT:
        assert speedup >= REQUIRED_TRANSPORT_SPEEDUP, (
            f"shm transport only {speedup:.2f}x faster than the pickle "
            f"transport (required {REQUIRED_TRANSPORT_SPEEDUP:g}x)"
        )


# ----------------------------------------------------------------------
# The thread-pool shard executor
# ----------------------------------------------------------------------
#: Thread-pool grid shape; the env overrides shrink it for CI smoke runs.
THREAD_POINTS = int(os.environ.get("REPRO_BENCH_THREAD_POINTS", "64"))
THREAD_LIFETIMES = int(os.environ.get("REPRO_BENCH_THREAD_LIFETIMES", "5000"))
THREAD_WORKERS = int(os.environ.get("REPRO_BENCH_THREAD_WORKERS", "4"))

#: Opt-in floor for the thread pool over the process pool — meaningful
#: only on startup-dominated grids (see the module docstring).
REQUIRED_THREAD_SPEEDUP = 1.2
THREAD_STRICT = os.environ.get("REPRO_BENCH_THREAD_STRICT") == "1"


def _thread_configs(pool: str):
    heps = np.linspace(0.0, 0.05, THREAD_POINTS)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-6, hep=float(hep)),
            policy="conventional",
            n_iterations=THREAD_LIFETIMES,
            horizon_hours=87_600.0,
            seed=2017,
            workers=THREAD_WORKERS,
            shard_size=40_000,
            pool=pool,
        )
        for hep in heps
    ]


def test_thread_pool_transport(bench_record):
    """Thread pool vs process pool, end to end: bit-identity + speedup.

    Both sides run the whole grid through ``run_stacked`` with *no shared
    pool* — pool startup is part of the measurement, because that is the
    thread pool's structural advantage: no fork, no per-worker import
    replay, and the materialized grid planes are shared outright instead
    of crossing a process boundary.  The shard plan, spawn-indexed
    streams and CGL merge order are pool-independent, so the results must
    be bit-identical (the pool oracle).  The speedup is always recorded;
    the floor is opt-in (``REPRO_BENCH_THREAD_STRICT=1``) because
    kernel-bound grids converge to parity under the GIL.
    """
    run_stacked(_thread_configs("serial")[:2])  # warm kernels/imports

    start = time.perf_counter()
    process = run_stacked(_thread_configs("process"))
    process_seconds = time.perf_counter() - start

    start = time.perf_counter()
    threaded = run_stacked(_thread_configs("thread"))
    thread_seconds = time.perf_counter() - start

    for fast, reference in zip(threaded, process):
        assert fast.availability == reference.availability
        assert fast.interval.half_width == reference.interval.half_width
        assert fast.totals == reference.totals

    speedup = process_seconds / max(thread_seconds, 1e-9)
    print(
        f"\nthread pool transport: {THREAD_POINTS} points x "
        f"{THREAD_LIFETIMES} lifetimes, {THREAD_WORKERS} workers — "
        f"thread {thread_seconds:.3f}s, process {process_seconds:.3f}s "
        f"(speedup {speedup:.2f}x{', strict' if THREAD_STRICT else ''})"
    )
    bench_record(
        "thread_pool_transport",
        points=THREAD_POINTS,
        seconds=thread_seconds,
        speedup=speedup,
        lifetimes_per_point=THREAD_LIFETIMES,
        workers=THREAD_WORKERS,
        strict=THREAD_STRICT,
    )
    if THREAD_STRICT:
        assert speedup >= REQUIRED_THREAD_SPEEDUP, (
            f"thread pool only {speedup:.2f}x faster than the process pool "
            f"(required {REQUIRED_THREAD_SPEEDUP:g}x)"
        )


# ----------------------------------------------------------------------
# PR 6: importance-sampled rare-event engine + CI-width allocator
# ----------------------------------------------------------------------
#: Required variance efficiency of IS + ci_width over the naive uniform
#: budget (100x efficiency == the <= 1 % budget acceptance).
REQUIRED_RARE_EFFICIENCY = 100.0

#: Failure rates of the rare-event grid.  At ``hep=0`` their analytical
#: unavailabilities are 1e-11 and 4e-11 — both far below the 1e-7 rarity
#: gate asserted below.  The biasing factor is shared across the stacked
#: grid (a stacking invariant), so the rates are chosen where lambda * H
#: * biasing stays small enough per disk for the tilt to be healthy.
RARE_RATES = (5e-8, 1e-7)
RARE_BIASING = 50.0
RARE_RARITY_GATE = 1e-7

#: First-round size doubles as the variance-pilot size.  Rounds much
#: smaller than this undercover at these tail levels (too few weighted
#: events per round), so the smoke override should not go below ~50k.
RARE_LIFETIMES = int(os.environ.get("REPRO_BENCH_RARE_LIFETIMES", "100000"))
RARE_TARGET = float(os.environ.get("REPRO_BENCH_RARE_TARGET", "5e-11"))
RARE_CEILING = int(os.environ.get("REPRO_BENCH_RARE_CEILING", "4000000"))


def _rare_configs():
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=rate, hep=0.0),
            policy="conventional",
            n_iterations=RARE_LIFETIMES,
            horizon_hours=87_600.0,
            seed=2017,
            biasing=RARE_BIASING,
            target_half_width=RARE_TARGET,
            max_iterations=RARE_CEILING,
            allocator="ci_width",
        )
        for rate in RARE_RATES
    ]


def test_rare_event_budget(bench_record):
    """The PR 6 acceptance: >= 100x variance efficiency on the rare grid.

    The naive (unbiased, uniform-allocation) budget for a ``target``
    half-width is ``(z / target)^2 * var_naive`` lifetimes per point.  At
    unavailabilities of 1e-11 a naive run cannot even *measure* its own
    variance, so the benchmark derives it exactly from the decomposition
    ``var_naive = U * m - U^2``: ``U`` is the analytical unavailability
    (exact — the same dual-face reference the estimator is validated
    against) and ``m`` is the size-biased mean event downtime fraction,
    estimated from the biased pilot as the weight ratio
    ``sum(w u^2) / sum(w u)`` over event lifetimes.  The ratio shares its
    extreme weights between numerator and denominator, making it stable
    across seeds where the raw weighted second moment is not.

    The importance-sampled side then actually runs: the stacked ci_width
    allocator spends first rounds everywhere and routes every further
    lifetime to whichever point's merged interval is still too wide.  Its
    total spend must come in at <= 1 % of the naive budget, and every
    point's final interval must cover the analytical truth.
    """
    z = t_critical(0.99, 1_000_000)
    uniform_budget = 0.0
    references = []
    for rate in RARE_RATES:
        params = paper_parameters(disk_failure_rate=rate, hep=0.0)
        unavailability = evaluate(
            params, policy="conventional", backend="analytical"
        ).unavailability
        assert unavailability <= RARE_RARITY_GATE, (
            f"lambda={rate:g} is not a rare-event scenario "
            f"(analytical unavailability {unavailability:.2e})"
        )
        references.append(unavailability)
        rng = RandomStreams(2017).stream("montecarlo")
        pilot = get_policy("conventional").simulate_batch(
            params, 87_600.0, RARE_LIFETIMES, rng, biasing=RARE_BIASING
        )
        weights = pilot.weights()
        downtime_fraction = 1.0 - pilot.availabilities()
        events = downtime_fraction > 0.0
        assert events.any(), f"biased pilot saw no events at lambda={rate:g}"
        size_biased_mean = float(
            np.sum(weights[events] * downtime_fraction[events] ** 2)
            / np.sum(weights[events] * downtime_fraction[events])
        )
        var_naive = unavailability * size_biased_mean - unavailability**2
        uniform_budget += (z / RARE_TARGET) ** 2 * var_naive

    run_stacked(_rare_configs()[:1])  # warm kernels outside the timed region

    start = time.perf_counter()
    results = run_stacked(_rare_configs())
    seconds = time.perf_counter() - start

    spent = sum(point.n_iterations for point in results)
    efficiency = uniform_budget / spent
    print(
        f"\nrare-event budget: {len(RARE_RATES)} points, target {RARE_TARGET:g} — "
        f"IS+ci_width spent {spent} lifetimes in {seconds:.3f}s, naive budget "
        f"{uniform_budget:.3e} (variance efficiency {efficiency:.0f}x)"
    )
    bench_record(
        "rare_event_budget",
        points=len(RARE_RATES),
        seconds=seconds,
        variance_efficiency=efficiency,
        lifetimes_spent=spent,
        uniform_budget=uniform_budget,
        biasing=RARE_BIASING,
        target_half_width=RARE_TARGET,
    )

    for point, reference in zip(results, references):
        assert point.n_iterations <= RARE_CEILING
        covered = (
            point.interval.lower <= 1.0 - reference <= point.interval.upper
        )
        assert covered, (
            f"{point.label}: interval misses the analytical reference "
            f"{reference:.3e} (estimate {point.unavailability:.3e} "
            f"+/- {point.interval.half_width:.2e})"
        )
        assert point.interval.half_width <= RARE_TARGET, (
            f"{point.label}: allocator stopped above the target half-width"
        )
    assert efficiency >= REQUIRED_RARE_EFFICIENCY, (
        f"importance-sampled budget is {100 / efficiency:.1f}% of the naive "
        f"budget (required <= 1 %, i.e. >= {REQUIRED_RARE_EFFICIENCY:g}x "
        "variance efficiency)"
    )


#: Lifetimes per point of the likelihood-ratio comparison: the size of the
#: repository benchmark's ``rare_event`` first round.
LR_LIFETIMES = 200_000


def _rare_first_round(retired: bool):
    """Run the rare grid's first round as one batch, optionally on the oracle."""
    from tests.core.test_likelihood_ratio import RETIRED_LR

    points = [paper_parameters(disk_failure_rate=rate, hep=0.0) for rate in RARE_RATES]
    grid = stack_parameter_points(points, [LR_LIFETIMES] * len(points))
    rng = RandomStreams(2017).stream("montecarlo")
    sampler = (
        mock.patch.multiple(vectorized._BiasedSampler, **RETIRED_LR)
        if retired
        else contextlib.nullcontext()
    )
    with sampler:
        batch = get_policy("conventional").simulate_stacked(
            grid, 87_600.0, rng, biasing=RARE_BIASING
        )
    return batch, rng


def test_biased_lr_arithmetic(bench_record):
    """Closed-form exponential likelihood ratios vs the general form.

    The general-form ``_accumulate``/``sample_matrix`` are the test-only
    references in ``tests/core/test_likelihood_ratio.py``, patched into the
    sampler.  Batches (``log_weights`` included) and the final generator
    state must match byte for byte.  Both sides are timed warm, alternating,
    as the median of :data:`TIMING_REPEATS` calls; the speedup carries no
    floor because host speed drifts between calls.
    """
    _rare_first_round(False)  # warm both sides
    _rare_first_round(True)
    seconds = {False: [], True: []}
    for _ in range(TIMING_REPEATS):
        for retired in (True, False):
            start = time.perf_counter()
            _rare_first_round(retired)
            seconds[retired].append(time.perf_counter() - start)

    batch, rng = _rare_first_round(False)
    reference, rng_ref = _rare_first_round(True)
    for field in _BATCH_FIELDS + ("log_weights",):
        assert getattr(batch, field).tobytes() == getattr(reference, field).tobytes(), field
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    new, old = seconds[False], seconds[True]
    speedup = float(np.median(old)) / max(float(np.median(new)), 1e-9)
    print(
        f"\nbiased LR arithmetic: {len(RARE_RATES)} points x {LR_LIFETIMES} lifetimes, "
        f"biasing {RARE_BIASING:g} — closed form {np.median(new):.3f}s "
        f"({min(new):.3f}-{max(new):.3f}), general form {np.median(old):.3f}s "
        f"({min(old):.3f}-{max(old):.3f}), speedup {speedup:.2f}x"
    )
    bench_record(
        "biased_lr_arithmetic",
        points=len(RARE_RATES),
        seconds=float(np.median(new)),
        speedup=speedup,
        lifetimes_per_point=LR_LIFETIMES,
        biasing=RARE_BIASING,
        seconds_min=round(min(new), 6),
        seconds_max=round(max(new), 6),
        reference_seconds=round(float(np.median(old)), 6),
        reference_seconds_min=round(min(old), 6),
        reference_seconds_max=round(max(old), 6),
        speedup_min=round(min(old) / max(max(new), 1e-9), 3),
        speedup_max=round(max(old) / max(min(new), 1e-9), 3),
    )


# ----------------------------------------------------------------------
# The analytical op: column conversion, batched checker-cycle solves, and
# points built on read
# ----------------------------------------------------------------------
#: Axes of the repository benchmark's ``analytical`` op (its inputs without
#: the per-seed jitter): two 100 x 100 template grids and a 200-hep
#: erasure sweep, 20,200 points in all.
ANALYTICAL_HEPS = [float(h) for h in np.logspace(-4.0, -1.0, 100)]
ANALYTICAL_RATES = [float(r) for r in np.logspace(-7.0, -4.0, 100)]
ANALYTICAL_ERASURE_HEPS = [float(h) for h in np.logspace(-4.0, -1.0, 200)]


def _analytical_op(retired: bool):
    """Run the analytical op, optionally on the retired per-point paths.

    Returns the two grids and the erasure sweep; the grids hold columns
    and build their points only when read (:func:`_analytical_points`).
    """
    from tests.core.test_sweep_engine import retired_sweep_paths

    with retired_sweep_paths() if retired else contextlib.nullcontext():
        grids = [
            sweep_grid(
                paper_parameters(), "hep", ANALYTICAL_HEPS, "failure_rate",
                ANALYTICAL_RATES, policy, backend="analytical",
            )
            for policy in ("conventional", "automatic_failover")
        ]
        erasure = sweep(
            paper_parameters(geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=1e-6),
            "hep", ANALYTICAL_ERASURE_HEPS, erasure_policy(3, 10, repair_threshold=8),
            backend="analytical",
        )
    return grids, erasure


def _analytical_points(output) -> list:
    """Every point of an analytical op's output, grids first."""
    grids, erasure = output
    return [point for grid in grids for row in grid.points for point in row] + erasure


def test_analytical_result_path(bench_record):
    """Column conversion and batched fixed points vs the per-point paths.

    The retired per-point result conversion, per-point checker loop and
    one-matrix fixed-point solve are the test-only references, patched into
    the engine.  Every field of every point must match byte for byte.  Each
    side is timed twice per call: the op alone, and the op plus building
    every point of its grids, which the op itself defers until they are
    read.  Both sides are timed warm, alternating, as the median of
    :data:`TIMING_REPEATS` calls; the speedup carries no floor because host
    speed drifts between calls.  Each timed call starts from a collected
    heap: the points of one call would otherwise leave a full collection
    owed to whichever side runs next.
    """
    from tests.core.test_sweep_engine import hex_dump

    _analytical_points(_analytical_op(False))  # warm both sides: template cache, imports
    _analytical_points(_analytical_op(True))
    op_seconds = {False: [], True: []}
    built_seconds = {False: [], True: []}
    for _ in range(TIMING_REPEATS):
        for retired in (True, False):
            gc.collect()
            start = time.perf_counter()
            output = _analytical_op(retired)
            op_done = time.perf_counter()
            _analytical_points(output)
            built = time.perf_counter()
            op_seconds[retired].append(op_done - start)
            built_seconds[retired].append(built - start)
            del output

    points = _analytical_points(_analytical_op(False))
    assert hex_dump(points) == hex_dump(_analytical_points(_analytical_op(True)))

    new, old = op_seconds[False], op_seconds[True]
    new_built, old_built = built_seconds[False], built_seconds[True]
    speedup = float(np.median(old)) / max(float(np.median(new)), 1e-9)
    print(
        f"\nanalytical op: {len(points)} points — columns/batched "
        f"{np.median(new):.4f}s ({min(new):.4f}-{max(new):.4f}), "
        f"{np.median(new_built):.4f}s with points; per-point "
        f"{np.median(old):.4f}s ({min(old):.4f}-{max(old):.4f}), "
        f"{np.median(old_built):.4f}s with points; speedup {speedup:.2f}x"
    )
    bench_record(
        "analytical_result_path",
        points=len(points),
        seconds=float(np.median(new)),
        speedup=speedup,
        seconds_min=round(min(new), 6),
        seconds_max=round(max(new), 6),
        seconds_with_points=round(float(np.median(new_built)), 6),
        reference_seconds=round(float(np.median(old)), 6),
        reference_seconds_min=round(min(old), 6),
        reference_seconds_max=round(max(old), 6),
        reference_seconds_with_points=round(float(np.median(old_built)), 6),
        speedup_min=round(min(old) / max(max(new), 1e-9), 3),
        speedup_max=round(max(old) / max(min(new), 1e-9), 3),
    )


# ----------------------------------------------------------------------
# The dense stationary solve: GTH on batch-innermost rate planes
# ----------------------------------------------------------------------
#: Calls per timed repeat of a single (k = 1) solve.
SINGLE_SOLVE_CALLS = 200


@pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
def test_dense_stationary_solve(policy, bench_record):
    """One GTH solve over the analytical op's grid, and a batch of one.

    ``ChainTemplate.solve_many`` over the repository benchmark's 100 x 100
    hep x failure-rate grid (k = 10,000) and ``TemplateEvaluator.solve`` at
    one point (k = 1), alternating, each the median of
    :data:`TIMING_REPEATS` with its min and max (a single solve as the mean
    of :data:`SINGLE_SOLVE_CALLS` calls), each batch from a collected heap.
    Every tenth batch row must equal the single solve of its point bit for
    bit; time carries no floor.
    """
    base = paper_parameters()
    template = chain_template(policy, base.with_hep(ANALYTICAL_HEPS[0]))
    grid = np.meshgrid(ANALYTICAL_HEPS, ANALYTICAL_RATES, indexing="ij")
    heps, rates = (column.ravel() for column in grid)
    columns = dict(symbol_table(base), hep=heps, lam=rates)
    single = template.evaluator(base.with_hep(1e-3))
    batch_times, single_times = [], []
    for _ in range(TIMING_REPEATS):
        gc.collect()
        start = time.perf_counter()
        pi = template.solve_many(columns)
        batch_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(SINGLE_SOLVE_CALLS):
            single.solve()
        single_times.append((time.perf_counter() - start) / SINGLE_SOLVE_CALLS)

    for row in range(0, len(heps), 10):
        params = base.with_hep(float(heps[row])).with_failure_rate(float(rates[row]))
        assert np.array_equal(pi[row], template.evaluator(params).solve())

    seconds = float(np.median(batch_times))
    print(
        f"\nmarkov_solve:{policy}: k={len(heps)} {seconds * 1e3:.2f} ms "
        f"({min(batch_times) * 1e3:.2f}-{max(batch_times) * 1e3:.2f}); "
        f"k=1 {np.median(single_times) * 1e6:.1f} us"
    )
    bench_record(
        f"markov_solve:{policy}",
        points=len(heps),
        seconds=seconds,
        seconds_min=round(min(batch_times), 6),
        seconds_max=round(max(batch_times), 6),
        single_seconds=round(float(np.median(single_times)), 8),
        single_seconds_min=round(min(single_times), 8),
        single_seconds_max=round(max(single_times), 8),
    )


# ----------------------------------------------------------------------
# PR 7: erasure checker-cycle grids on the stacked engine
# ----------------------------------------------------------------------
#: Grid shape of the erasure stacked acceptance benchmark; the env
#: overrides shrink it for quick runs.
ERASURE_POINTS = int(os.environ.get("REPRO_BENCH_ERASURE_POINTS", "48"))
ERASURE_LIFETIMES = int(os.environ.get("REPRO_BENCH_ERASURE_LIFETIMES", "2000"))


def _erasure_grid_configs(workers: int, shard_size=None) -> "list[MonteCarloConfig]":
    from repro.storage.raid import RaidGeometry

    rates = np.linspace(1e-6, 1e-5, ERASURE_POINTS)
    return [
        MonteCarloConfig(
            params=paper_parameters(
                geometry=RaidGeometry.erasure(3, 10),
                disk_failure_rate=float(rate),
                hep=0.1,
            ),
            policy=get_policy("erasure"),
            n_iterations=ERASURE_LIFETIMES,
            horizon_hours=87_600.0,
            seed=2017,
            workers=workers,
            shard_size=shard_size,
        )
        for rate in rates
    ]


def test_stacked_erasure_sweep_5x_faster_than_per_point(bench_record):
    """The PR 7 acceptance: >= 5x on a k-of-N checker-cycle grid.

    Same contract as the conventional-kernel benchmark above, on the
    periodic-repair family: the per-point baseline runs one independent
    sharded study per failure rate, the stacked side rides the per-row
    scheme planes through a handful of ``batch_erasure`` invocations.
    Estimates must agree within overlapping 99 % intervals per point, and
    the stacked decomposition stays worker-count independent.
    """
    workers = 2
    stacked_shard = 40_000
    per_point_configs = _erasure_grid_configs(workers)
    stacked_configs = _erasure_grid_configs(workers, shard_size=stacked_shard)
    run_stacked(stacked_configs[:2])  # warm imports/pool machinery

    start = time.perf_counter()
    per_point = [run_monte_carlo(config) for config in per_point_configs]
    per_point_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stacked = run_stacked(stacked_configs)
    stacked_seconds = time.perf_counter() - start

    speedup = per_point_seconds / max(stacked_seconds, 1e-9)
    print(
        f"\nstacked erasure sweep: {ERASURE_POINTS} points x "
        f"{ERASURE_LIFETIMES} lifetimes — stacked {stacked_seconds:.3f}s, "
        f"per-point {per_point_seconds:.3f}s (speedup {speedup:.1f}x)"
    )
    bench_record(
        "stacked_erasure_sweep",
        points=ERASURE_POINTS,
        seconds=stacked_seconds,
        speedup=speedup,
        lifetimes_per_point=ERASURE_LIFETIMES,
        workers=workers,
    )

    for point_stacked, point_ref in zip(stacked, per_point):
        low = max(point_stacked.interval.lower, point_ref.interval.lower)
        high = min(point_stacked.interval.upper, point_ref.interval.upper)
        assert low <= high, f"intervals disagree at {point_stacked.label}"

    single = run_stacked(_erasure_grid_configs(1, shard_size=stacked_shard))
    for one, two in zip(single, stacked):
        assert one.availability == two.availability
        assert one.totals == two.totals

    assert speedup >= REQUIRED_MC_SPEEDUP, (
        f"stacked erasure sweep only {speedup:.1f}x faster than per-point "
        f"studies (required {REQUIRED_MC_SPEEDUP:g}x)"
    )


def test_template_sweep_bench(benchmark):
    """Timing record: 1k-point hep sweep on the warmed template engine."""
    sweep(BASE, "hep", HEP_VALUES[:10], "conventional")  # warm the cache
    points = benchmark(sweep, BASE, "hep", HEP_VALUES, "conventional")
    assert len(points) == N_POINTS


def test_per_point_rebuild_bench(benchmark):
    """Timing record: the retired per-point path at a tenth of the size."""
    points = benchmark(
        sweep_per_point_rebuild, BASE, "hep", HEP_VALUES[:100], "conventional"
    )
    assert len(points) == 100


def test_fault_recovery_overhead(bench_record, tmp_path):
    """Chaos record: crash-retry and kill-and-resume overhead of a sweep.

    A small stacked grid runs three ways: clean, with one injected shard
    crash (retried in place), and interrupted after two shards then resumed
    from its journal.  All three must be bit-identical — the whole point of
    deriving shard streams from ``(master_entropy, shard_index)`` — and the
    recovery overhead plus the retry/resume counters land in
    ``BENCH_sweep.json`` so ``bench history`` shows the fault-tolerance
    trajectory next to the raw speedups.
    """
    from repro.core.montecarlo import FaultPlan, fault_plan

    def grid(checkpoint=None, resume=None):
        heps = np.linspace(0.0, 0.05, 8)
        return [
            MonteCarloConfig(
                params=paper_parameters(disk_failure_rate=1e-6, hep=float(hep)),
                policy="conventional",
                n_iterations=2000,
                horizon_hours=87_600.0,
                seed=2017,
                shard_size=4000,
                max_shard_retries=2,
                retry_backoff=0.0,
                checkpoint=checkpoint,
                resume=resume,
            )
            for hep in heps
        ]

    start = time.perf_counter()
    clean = run_stacked(grid())
    clean_seconds = time.perf_counter() - start

    with fault_plan(FaultPlan.single(0, "raise"), tmp_path / "crash"):
        start = time.perf_counter()
        crashed = run_stacked(grid())
        crash_seconds = time.perf_counter() - start

    journal = str(tmp_path / "sweep.journal")
    with fault_plan(FaultPlan(abort_after=2), tmp_path / "abort"):
        interrupted = run_stacked(grid(checkpoint=journal))
    assert any(point.interrupted for point in interrupted)
    start = time.perf_counter()
    resumed = run_stacked(grid(resume=journal))
    resume_seconds = time.perf_counter() - start

    assert sum(point.retried_shards for point in crashed) >= 1
    assert sum(point.resumed_shards for point in resumed) >= 2
    for reference, other in ((clean, crashed), (clean, resumed)):
        for a, b in zip(reference, other):
            assert a.availability == b.availability
            assert a.totals == b.totals

    print(
        f"\nfault recovery: clean {clean_seconds:.3f}s, crash-retry "
        f"{crash_seconds:.3f}s, resume {resume_seconds:.3f}s"
    )
    bench_record(
        "fault_recovery",
        points=8,
        seconds=crash_seconds,
        speedup=clean_seconds / max(crash_seconds, 1e-9),
        lifetimes_per_point=2000,
        retried_shards=int(sum(point.retried_shards for point in crashed)),
        resumed_shards=int(sum(point.resumed_shards for point in resumed)),
    )
