"""Tests for the memoryless conventional and spare-pool kernels.

Unbiased runs whose every row fails exponentially take a memoryless
kernel: ``_memoryless_conventional`` carries one next-failure time per
lifetime, ``_memoryless_spare_pool`` also a pool count.  Both draw each
failure from the aggregate clock ``Exp(k*lambda)`` of the ``k`` disks
still running and settle each repair or rebuild window as one race, an
exponential length and one uniform.  Weibull laws and failure-biased runs
keep the clock matrix (``_clock_matrix_conventional``,
``_clock_matrix_spare_pool``).  Under test: each pair of kernels draws
lifetimes from the same law, the input alone picks the kernel, the
memoryless paths hold no clock matrix, a one-row grid decides every
repair window as its point does, a process keeps its shard pages mapped
between runs, and the estimates meet the analytical chains.  Both
memoryless kernels simulate only the lifetimes that fail before the
horizon, one binomial per point segment: the law holds where most
lifetimes are idle, each point of a shard is thinned on its own, and the
summary folds the idle lifetimes in exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.core.evaluation import evaluate
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo, segment_point_records
from repro.core.parameters import paper_parameters
from repro.core.policies import stack_parameter_points, vectorized
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _clock_matrix_conventional,
    _clock_matrix_spare_pool,
    _memoryless_conventional,
    _memoryless_spare_pool,
    batch_conventional,
    batch_spare_pool,
)
from repro.exceptions import ConfigurationError
from repro.simulation.confidence import StreamingMoments
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

HORIZON = 87_600.0

#: Lifetimes per kernel in the same-law comparison.
LAW_LIFETIMES = 120_000

COUNTERS = ("disk_failures", "dl_events", "du_events", "human_errors", "downtime_hours")

RAID5, RAID1, RAID6 = RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4)
MIXED_GEOMETRIES = (RAID5, RAID1, RAID6)

CONVENTIONAL = (_memoryless_conventional, _clock_matrix_conventional)
SPARE_POOL = (_memoryless_spare_pool, _clock_matrix_spare_pool)


def _point(geometry, rate, hep, **fields):
    params = paper_parameters(geometry=geometry, disk_failure_rate=rate, hep=hep)
    return dataclasses.replace(params, **fields)


def _mixed_grid(pools=None):
    """Return the RAID5/RAID1/RAID6 grid, with one pool size per point if given."""
    points = [
        _point(geometry, 1e-4, hep) for geometry, hep in zip(MIXED_GEOMETRIES, (0.02, 0.05, 0.1))
    ]
    return stack_parameter_points(points, [LAW_LIFETIMES // 3] * 3, n_spares=pools)


#: Same-law inputs: ``(kernels, params builder, kernel keywords, lifetimes
#: per side)``.
LAW_INPUTS = {
    "raid5-hep0.05": (CONVENTIONAL, lambda: _point(RAID5, 1e-4, 0.05), {}, LAW_LIFETIMES),
    "raid1-hep0.1": (CONVENTIONAL, lambda: _point(RAID1, 1e-4, 0.1), {}, LAW_LIFETIMES),
    # At hep 0 a repair window's uniform decides data loss alone.
    "raid5-hep0": (CONVENTIONAL, lambda: _point(RAID5, 1e-4, 0.0), {}, LAW_LIFETIMES),
    # The widest race: five survivors, (n-1)*lambda = 5*lambda.
    "raid6-rate3e-4-hep0.1": (CONVENTIONAL, lambda: _point(RAID6, 3e-4, 0.1), {}, 20_000),
    "mixed-grid": (CONVENTIONAL, _mixed_grid, {}, LAW_LIFETIMES),
    "failover-raid5-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.05), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "pool2-raid5-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.05), {"n_spares": 2}, LAW_LIFETIMES
    ),
    "failover-raid1-hep0.1": (
        SPARE_POOL, lambda: _point(RAID1, 1e-4, 0.1), {"n_spares": 1}, LAW_LIFETIMES
    ),
    # Event-rich at lambda=3e-4: at a sixth of LAW_LIFETIMES each still
    # fails three or more of its tests against a kernel that drops W from
    # the clean recovery or leaves the pulled disk in A's race.
    "failover-raid5-rate3e-4-hep0.2": (
        SPARE_POOL, lambda: _point(RAID5, 3e-4, 0.2), {"n_spares": 1}, 20_000
    ),
    "pool3-raid6-rate3e-4-hep0.1": (
        SPARE_POOL, lambda: _point(RAID6, 3e-4, 0.1), {"n_spares": 3}, 20_000
    ),
    "failover-raid5-hep0": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.0), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "pools-mixed-grid": (SPARE_POOL, lambda: _mixed_grid((1, 2, 3)), {}, LAW_LIFETIMES),
    # Wrong pulls take 100 h to undo at lambda=1e-3, so a clock often fires
    # during one and the exposed service after it starts late: its second
    # failure must come from the clocks already running, not a fresh draw
    # from the service start, which reads z of about -16 on dl_events at
    # this input.
    "failover-slow-recovery": (
        SPARE_POOL,
        lambda: _point(RAID5, 1e-3, 0.3, human_error_rate=0.01),
        {"n_spares": 1},
        20_000,
    ),
}


def _run(kernel, params, n, seed, **kwargs):
    rng = RandomStreams(seed).stream("montecarlo")
    return kernel(params, HORIZON, n, rng, **kwargs)


def _histogram_table(a, b, min_column=10):
    """Return the 2 x K histogram table of ``a`` and ``b``, sparse bins merged.

    Adjacent bins are pooled until each column holds ``min_column``
    lifetimes, so every expected cell count is about half that or more.
    """
    width = int(max(a.max(), b.max())) + 1
    table = np.stack([np.bincount(a, minlength=width), np.bincount(b, minlength=width)])
    columns = []
    pending = np.zeros(2, dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= min_column:
            columns.append(pending)
            pending = np.zeros(2, dtype=np.int64)
    columns[-1] = columns[-1] + pending
    return np.array(columns).T


def _law_pair(entry):
    """Run both kernels of one same-law input at the class's fixed seeds."""
    (memoryless, clock_matrix), build, kwargs, n = entry
    params = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (
            _run(memoryless, params, n, seed=101, **kwargs),
            _run(clock_matrix, params, n, seed=202, **kwargs),
        )


class TestSameLawAsClockMatrix:
    """The two kernels draw each lifetime's counters from one law."""

    @pytest.fixture(scope="class", params=list(LAW_INPUTS))
    def pair(self, request):
        return _law_pair(LAW_INPUTS[request.param])

    @pytest.mark.parametrize("field", COUNTERS)
    def test_means_agree(self, pair, field):
        memoryless, clock_matrix = (getattr(batch, field).astype(float) for batch in pair)
        se = np.hypot(
            memoryless.std(ddof=1) / np.sqrt(memoryless.size),
            clock_matrix.std(ddof=1) / np.sqrt(clock_matrix.size),
        )
        assert abs(memoryless.mean() - clock_matrix.mean()) <= 4.0 * se

    def test_disk_failure_histograms_agree(self, pair):
        table = _histogram_table(*(batch.disk_failures for batch in pair))
        assert table.shape[1] > 10
        assert chi2_contingency(table)[1] >= 1e-3


#: Sparse same-law inputs: at the paper's point (lambda = 1e-6) about 70%
#: of lifetimes see no failure in the horizon, at lambda = 1e-7 about 97%,
#: and the memoryless kernels never simulate those.
SPARSE_INPUTS = {
    "paper-point": (CONVENTIONAL, lambda: _point(RAID5, 1e-6, 1e-3), {}, LAW_LIFETIMES),
    "rate1e-7-hep0.05": (CONVENTIONAL, lambda: _point(RAID5, 1e-7, 0.05), {}, LAW_LIFETIMES),
    "failover-paper-point": (
        SPARE_POOL, lambda: _point(RAID5, 1e-6, 1e-3), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "failover-rate1e-7-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-7, 0.05), {"n_spares": 1}, LAW_LIFETIMES
    ),
}


class TestSameLawWhenSparse(TestSameLawAsClockMatrix):
    """The same comparison where most lifetimes are idle and thinned."""

    @pytest.fixture(scope="class", params=list(SPARSE_INPUTS))
    def pair(self, request):
        return _law_pair(SPARSE_INPUTS[request.param])

    def test_disk_failure_histograms_agree(self, pair):
        # Few lifetimes fail more than twice here, so the merged histogram
        # has three to five columns.
        table = _histogram_table(*(batch.disk_failures for batch in pair))
        assert table.shape[1] >= 3
        assert chi2_contingency(table)[1] >= 1e-3


def _p_fail(rate, n_disks=4):
    """Return the chance that a lifetime's first failure comes before the horizon."""
    return -math.expm1(-n_disks * rate * HORIZON)


MEMORYLESS = {"conventional": _memoryless_conventional, "failover": _memoryless_spare_pool}

#: Two points in one stacked shard: a sparse point next to one where every
#: lifetime fails, and two identical neighbours.  A binomial drawn over the
#: whole shard would hand the first point failures that belong to the
#: second.
SHARED_SHARD_RATES = {"sparse-next-to-dense": (1e-7, 1e-4), "identical-neighbours": (1e-7, 1e-7)}


@pytest.mark.parametrize("rates", list(SHARED_SHARD_RATES))
@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_each_point_of_a_shard_is_thinned_on_its_own(kernel, rates):
    count = 40_000
    points = [_point(RAID5, rate, 0.05) for rate in SHARED_SHARD_RATES[rates]]
    batch = _run(MEMORYLESS[kernel], stack_parameter_points(points, [count] * 2), 2 * count, seed=7)
    assert batch.segments.tolist() == [count, count]
    for index, point in enumerate(points):
        p = _p_fail(point.disk_failure_rate)
        failed = batch.disk_failures[index * count : (index + 1) * count] > 0
        assert abs(failed.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / count), index


@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_a_grid_without_segments_is_thinned_row_by_row(kernel):
    # Nothing says which rows of such a grid share a point, so every row is
    # its own segment: one Bernoulli(p) per lifetime.
    count = 40_000
    grid = stack_parameter_points([_point(RAID5, 1e-7, 0.05)], [count])
    batch = _run(MEMORYLESS[kernel], dataclasses.replace(grid, segments=None), count, seed=8)
    assert batch.segments.tolist() == [1] * count
    assert np.array_equal(batch.simulated, batch.disk_failures > 0)
    p = _p_fail(1e-7)
    assert abs(batch.simulated.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / count)


def test_folded_summary_equals_the_dense_arrays():
    # The first point simulates no lifetime, the last all of them; only
    # the middle one is thinned in part.
    counts = [500, 30_000, 2_000]
    points = [_point(RAID5, rate, 0.05) for rate in (1e-12, 1e-6, 1e-3)]
    batch = _run(
        _memoryless_conventional, stack_parameter_points(points, counts), sum(counts), seed=9
    )
    assert batch.simulated[0] == 0 and batch.simulated[2] == counts[2]
    assert 0 < batch.simulated[1] < counts[1]
    records = segment_point_records(batch, range(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    for record, start, count in zip(records, starts, counts):
        rows = slice(start, start + count)
        dense = StreamingMoments.from_samples(batch.availabilities()[rows])
        assert record["n"] == dense.n
        for name in ("mean", "m2", "w_sum", "w2_sum"):
            np.testing.assert_allclose(record[name], getattr(dense, name), rtol=1e-14, atol=0.0)
        for name in ("du_events", "dl_events", "disk_failures", "human_errors"):
            assert record[name] == getattr(batch, name)[rows].sum(), name
        # The same values summed in another grouping: last bits only.
        np.testing.assert_allclose(
            record["downtime_hours"], batch.downtime_hours[rows].sum(), rtol=1e-14, atol=0.0
        )
    idle = slice(0, counts[0])
    assert not batch.disk_failures[idle].any() and not batch.downtime_hours[idle].any()


class _FirstUniformAtOne:
    """A generator whose first ``random`` array starts with 1.0.

    ``1.0 * p`` is the largest product a drawn uniform ``V < 1`` can round
    ``V * p`` up to, and it inverts to the horizon itself.
    """

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def random(self, size=None):
        values = self._rng.random(size)
        if self._first:
            self._first = False
            values[0] = 1.0
        return values

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_first_failure_at_the_horizon_retires_without_a_failure(kernel):
    rng = _FirstUniformAtOne(RandomStreams(4).stream("montecarlo"))
    batch = MEMORYLESS[kernel](paper_parameters(), HORIZON, 2_000, rng)
    heads = int(batch.simulated[0])
    assert heads > 1
    assert batch.disk_failures[0] == 0 and batch.downtime_hours[0] == 0.0
    assert np.all(batch.disk_failures[1:heads] >= 1)
    assert not batch.disk_failures[heads:].any()


#: Same-law inputs at hep 0.
HEP_0_INPUTS = ["raid5-hep0", "failover-raid5-hep0"]


@pytest.mark.parametrize("name", HEP_0_INPUTS)
def test_hep_0_windows_end_in_data_loss_or_repair(name):
    # p_he equals p_dl at hep 0, so a window's uniform names only the
    # race's winner.
    (memoryless, _), build, kwargs, n = LAW_INPUTS[name]
    batch = _run(memoryless, build(), n, seed=101, **kwargs)
    assert not batch.human_errors.any()
    assert batch.dl_events.any()


def _shape_grid(shapes):
    """Return a two-point grid of 100 lifetimes per failure shape."""
    points = [
        paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=shape)
        for shape in shapes
    ]
    return stack_parameter_points(points, [100] * len(points))


#: Inputs that keep the clock matrix: ``(params, biasing)``.
CLOCK_MATRIX_INPUTS = [
    (paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=1.3), None),
    (_shape_grid([1.0, 1.3]), None),
    (paper_parameters(disk_failure_rate=1e-4, hep=0.05), 8.0),
    (_shape_grid([1.0, 1.0]), 8.0),
]
CLOCK_MATRIX_IDS = ["weibull-point", "one-weibull-row", "biased-point", "biased-grid"]


def _assert_same_batch(got, want):
    for field in COUNTERS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestPathSelection:
    """The input alone picks the kernel; only the clock matrix builds clocks."""

    @pytest.fixture
    def clock_matrices(self, monkeypatch):
        built = []
        initial_clocks = vectorized._initial_clocks

        def spy(*args, **kwargs):
            built.append(args)
            return initial_clocks(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_initial_clocks", spy)
        return built

    @pytest.mark.parametrize(
        "policy", ["conventional", "baseline", "automatic_failover", "hot_spare_pool"]
    )
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    def test_unbiased_exponential_builds_no_clock_matrix(self, clock_matrices, policy, grid):
        params = (
            paper_parameters(disk_failure_rate=1e-4, hep=0.05)
            if grid == "point"
            else _shape_grid([1.0, 1.0])
        )
        resolve_policy(policy).batch(params, HORIZON, 200, np.random.default_rng(3))
        assert clock_matrices == []

    @pytest.mark.parametrize("params,biasing", CLOCK_MATRIX_INPUTS, ids=CLOCK_MATRIX_IDS)
    def test_weibull_or_biased_builds_a_clock_matrix(self, clock_matrices, params, biasing):
        kwargs = {} if biasing is None else {"biasing": biasing}
        got = _run(batch_conventional, params, 200, seed=5, **kwargs)
        assert len(clock_matrices) == 1
        want = _run(_clock_matrix_conventional, params, 200, seed=5, **kwargs)
        _assert_same_batch(got, want)

    @pytest.mark.parametrize("n_spares", [1, 3])
    @pytest.mark.parametrize("params,biasing", CLOCK_MATRIX_INPUTS, ids=CLOCK_MATRIX_IDS)
    def test_weibull_or_biased_spare_pool_builds_a_clock_matrix(
        self, clock_matrices, params, biasing, n_spares
    ):
        kwargs = {"n_spares": n_spares}
        if biasing is not None:
            kwargs["biasing"] = biasing
        got = _run(batch_spare_pool, params, 200, seed=5, **kwargs)
        assert len(clock_matrices) == 1
        want = _run(_clock_matrix_spare_pool, params, 200, seed=5, **kwargs)
        _assert_same_batch(got, want)
        assert (got.log_weights is None) == (biasing is None)

    def test_unbiased_exponential_runs_the_memoryless_kernel(self):
        params = _shape_grid([1.0, 1.0])
        for kernel, memoryless in (
            (batch_conventional, _memoryless_conventional),
            (batch_spare_pool, _memoryless_spare_pool),
        ):
            got = _run(kernel, params, 200, seed=5)
            _assert_same_batch(got, _run(memoryless, params, 200, seed=5))
            assert got.log_weights is None

    @pytest.mark.parametrize("kernel", [batch_spare_pool, _clock_matrix_spare_pool])
    def test_pool_sizes_are_checked_on_both_paths(self, kernel):
        with pytest.raises(ConfigurationError, match="at least one spare"):
            kernel(paper_parameters(), HORIZON, 10, np.random.default_rng(0), n_spares=0)
        grid = stack_parameter_points([paper_parameters()] * 2, [5, 5], n_spares=[1, 0])
        with pytest.raises(ConfigurationError, match="at least one spare"):
            kernel(grid, HORIZON, 10, np.random.default_rng(0))


#: Memoryless kernels with the pool sizes of a one-row check:
#: ``(kernel, pool size)``, ``None`` for the conventional kernel.
ONE_ROW_KERNELS = {
    "conventional": (_memoryless_conventional, None),
    "failover": (_memoryless_spare_pool, 1),
    "pool3": (_memoryless_spare_pool, 3),
}


@pytest.mark.parametrize("rate", [1e-4, 1e-6], ids=["rate1e-4", "paper-point"])
@pytest.mark.parametrize("kernel", list(ONE_ROW_KERNELS))
def test_one_row_grid_keeps_its_points_counters(kernel, rate):
    # A one-row grid takes its race probabilities from per-row planes
    # through the scalar arithmetic, so it decides every window as its
    # point does.  Downtime may differ in the last bits: the outages draw
    # restores through the row-aware distributions.
    body, pool = ONE_ROW_KERNELS[kernel]
    point = paper_parameters(disk_failure_rate=rate, hep=0.05 if rate == 1e-4 else 1e-3)
    n = 20_000
    point_kwargs = {} if pool is None else {"n_spares": pool}
    grid = stack_parameter_points([point], [n], n_spares=None if pool is None else [pool])
    outcomes = []
    for params, kwargs in ((grid, {}), (point, point_kwargs)):
        rng = RandomStreams(3).stream("montecarlo")
        outcomes.append((body(params, HORIZON, n, rng, **kwargs), rng.bit_generator.state))
    (got, got_state), (want, want_state) = outcomes
    assert got_state == want_state
    for field in ("disk_failures", "dl_events", "du_events", "human_errors"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    np.testing.assert_allclose(got.downtime_hours, want.downtime_hours, rtol=1e-12)


def _paper_point_shard_peak(kernel, **kwargs):
    """Return the ``tracemalloc`` peak of one 50k-lifetime paper-point shard."""
    params = paper_parameters()
    _run(kernel, params, 50_000, seed=2017, **kwargs)  # warm caches
    tracemalloc.start()
    try:
        _run(kernel, params, 50_000, seed=2017, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paper_point_shard_peaks_below_4_5_mb():
    # One default 50k-lifetime shard at the paper's point: the memoryless
    # kernel holds a few per-lifetime vectors, no (50k, 4) clock matrix and
    # no arena buffers.
    assert _paper_point_shard_peak(batch_conventional) < 4.5e6


def test_paper_point_failover_shard_peaks_below_5_mb():
    # The same for fail-over, whose clock-matrix body peaks at 5.85 MB.
    assert _paper_point_shard_peak(batch_spare_pool, n_spares=1) < 5e6


#: Two 200k-lifetime paper-point runs per policy; prints each run's minor
#: page faults.
PAGE_FAULT_SCRIPT = """
import resource
from repro.core.evaluation import evaluate
from repro.core.parameters import paper_parameters

for policy in ("conventional", "automatic_failover"):
    for seed in (1, 2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(paper_parameters(), policy, backend="monte_carlo", n_iterations=200_000, seed=seed)
        print(policy, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the budget depends on glibc malloc's mmap and trim thresholds",
)
def test_second_run_reuses_the_mapped_pages():
    # A fresh interpreter, so no earlier test has raised malloc's
    # thresholds.  Without the kernel module's 2 MiB warm-up block the
    # second conventional run faults its working set in again (about 4,000
    # minor faults).
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PAGE_FAULT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [line.split() for line in proc.stdout.splitlines()]
    assert [policy for policy, _ in runs[1::2]] == ["conventional", "automatic_failover"]
    for policy, faults in runs[1::2]:
        assert int(faults) <= 100, runs


@pytest.mark.parametrize("hep", [0.0, 0.1])
@pytest.mark.parametrize(
    "geometry", [RaidGeometry.raid1(), RaidGeometry.raid5(7)], ids=["raid1", "raid5-7"]
)
@pytest.mark.parametrize("policy", ["conventional", "baseline"])
def test_monte_carlo_meets_the_analytical_chain(policy, geometry, hep):
    params = paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=hep)
    exact = evaluate(params, policy, backend="analytical").availability
    result = run_monte_carlo(
        MonteCarloConfig(params=params, policy=policy, n_iterations=100_000, seed=11)
    )
    assert abs(result.availability - exact) <= 4.0 * result.interval.std_error


#: Fail-over Monte Carlo over Fig. 3 chain unavailability at hep = 0.1 and
#: its z-score (100k lifetimes, seed 11); the clock-matrix kernel read
#: 0.734 (+10.9), 0.897 (+8.4) and 0.945 (+9.1) at the same seed.
FIG3_GAP_AT_HEP_0_1 = {"raid1": "0.701 (z +12.6)", "raid5-3": "0.873 (z +10.4)", "raid5-7": "0.958 (z +6.8)"}

FIG3_GEOMETRIES = {"raid1": RAID1, "raid5-3": RAID5, "raid5-7": RaidGeometry.raid5(7)}


def _fig3_cases():
    for name, geometry in FIG3_GEOMETRIES.items():
        for hep in (0.0, 0.01):
            yield pytest.param(geometry, hep, id=f"{name}-{hep}")
        gap = pytest.mark.xfail(
            strict=True,
            reason=(
                "the spare-pool model misses the Fig. 3 chain at hep = 0.1: Monte Carlo / "
                f"chain unavailability {FIG3_GAP_AT_HEP_0_1[name]}"
            ),
        )
        yield pytest.param(geometry, 0.1, id=f"{name}-0.1", marks=gap)


@pytest.mark.parametrize("geometry,hep", _fig3_cases())
def test_failover_monte_carlo_meets_the_fig3_chain(geometry, hep):
    params = paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=hep)
    exact = evaluate(params, "automatic_failover", backend="analytical").availability
    result = run_monte_carlo(
        MonteCarloConfig(
            params=params, policy="automatic_failover", n_iterations=100_000, seed=11
        )
    )
    assert abs(result.availability - exact) <= 4.0 * result.interval.std_error
