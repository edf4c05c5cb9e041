"""Tests for the memoryless conventional kernel.

Unbiased runs whose every row fails exponentially take
``_memoryless_conventional``: one episode start per lifetime, the next
failure drawn at rate ``n*lambda`` and a failure during the repair at rate
``(n-1)*lambda``.  Weibull laws and failure-biased runs keep the clock
matrix (``_clock_matrix_conventional``).  Under test: both kernels draw
lifetimes from the same law, the input alone picks the kernel, the
memoryless path holds no clock matrix, and its estimates meet the
analytical chains.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.core.evaluation import evaluate
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo
from repro.core.parameters import paper_parameters
from repro.core.policies import stack_parameter_points, vectorized
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _clock_matrix_conventional,
    _memoryless_conventional,
    batch_conventional,
)
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

HORIZON = 87_600.0

#: Lifetimes per kernel in the same-law comparison.
LAW_LIFETIMES = 120_000

COUNTERS = ("disk_failures", "dl_events", "du_events", "human_errors", "downtime_hours")

MIXED_GEOMETRIES = (RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4))


def _law_input(name):
    """Return the parameters of one same-law comparison input."""
    if name == "raid5-hep0.05":
        return paper_parameters(disk_failure_rate=1e-4, hep=0.05)
    if name == "raid1-hep0.1":
        return paper_parameters(geometry=RaidGeometry.raid1(), disk_failure_rate=1e-4, hep=0.1)
    points = [
        paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=hep)
        for geometry, hep in zip(MIXED_GEOMETRIES, (0.02, 0.05, 0.1))
    ]
    return stack_parameter_points(points, [LAW_LIFETIMES // 3] * 3)


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


class TestSameLawAsClockMatrix:
    """The two kernels draw each lifetime's counters from one law."""

    @pytest.fixture(scope="class", params=["raid5-hep0.05", "raid1-hep0.1", "mixed-grid"])
    def pair(self, request):
        params = _law_input(request.param)
        return (
            _run(_memoryless_conventional, params, LAW_LIFETIMES, seed=101),
            _run(_clock_matrix_conventional, params, LAW_LIFETIMES, seed=202),
        )

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


def _shape_grid(shapes):
    """Return a two-point grid of 100 lifetimes per failure shape."""
    points = [
        paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=shape)
        for shape in shapes
    ]
    return stack_parameter_points(points, [100] * len(points))


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

    @pytest.mark.parametrize("policy", ["conventional", "baseline"])
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    def test_unbiased_exponential_builds_no_clock_matrix(self, clock_matrices, policy, grid):
        params = (
            paper_parameters(disk_failure_rate=1e-4, hep=0.05)
            if grid == "point"
            else _shape_grid([1.0, 1.0])
        )
        resolve_policy(policy).batch(params, HORIZON, 200, np.random.default_rng(3))
        assert clock_matrices == []

    @pytest.mark.parametrize(
        "params,biasing",
        [
            (paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=1.3), None),
            (_shape_grid([1.0, 1.3]), None),
            (paper_parameters(disk_failure_rate=1e-4, hep=0.05), 8.0),
            (_shape_grid([1.0, 1.0]), 8.0),
        ],
        ids=["weibull-point", "one-weibull-row", "biased-point", "biased-grid"],
    )
    def test_weibull_or_biased_builds_a_clock_matrix(self, clock_matrices, params, biasing):
        kwargs = {} if biasing is None else {"biasing": biasing}
        got = _run(batch_conventional, params, 200, seed=5, **kwargs)
        assert len(clock_matrices) == 1
        want = _run(_clock_matrix_conventional, params, 200, seed=5, **kwargs)
        for field in COUNTERS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_unbiased_exponential_runs_the_memoryless_kernel(self):
        params = _shape_grid([1.0, 1.0])
        got = _run(batch_conventional, params, 200, seed=5)
        want = _run(_memoryless_conventional, params, 200, seed=5)
        for field in COUNTERS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.log_weights is None


def test_paper_point_shard_peaks_below_4_5_mb():
    # One default 50k-lifetime shard at the paper's point: the memoryless
    # kernel holds a few per-lifetime vectors, no (50k, 4) clock matrix and
    # no arena buffers.
    params = paper_parameters()
    _run(batch_conventional, params, 50_000, seed=2017)  # warm caches
    tracemalloc.start()
    try:
        _run(batch_conventional, params, 50_000, seed=2017)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


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
