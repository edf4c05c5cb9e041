"""Tests for the row-search primitives and the thread/serial shard pools.

The oracle pattern under test: ``pool=serial`` is the retained reference
path, and every other pool at any worker count must reproduce it
*bit-identically* — same availabilities, same intervals, same event
totals, same replay.  The numpy row searches are column passes; the per-row
``argmin``/``partition`` searches they replaced live on below as test-only
references, both for the primitives and, patched into the kernels, for
whole batches.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.core.evaluation import evaluate
from repro.core.montecarlo import (
    POOLS,
    MonteCarloConfig,
    replay_stacked_point,
    run_sharded,
    run_stacked,
    segment_point_records,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import stack_parameter_points
from repro.core.policies import vectorized
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _columns,
    _min_excluding,
    _row_min,
    _scan_columns,
    _second_smallest,
)
from repro.exceptions import ConfigurationError
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

#: Stress point where downtime events are frequent enough that any backend
#: divergence would corrupt the comparison arrays within a few hundred runs.
STRESS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _config(n=600, seed=7, **overrides):
    overrides.setdefault("params", STRESS)
    overrides.setdefault("policy", "conventional")
    return MonteCarloConfig(
        n_iterations=n, horizon_hours=HORIZON, seed=seed, **overrides
    )


def _grid_configs(heps=(0.02, 0.05, 0.1), n=400, seed=11, **overrides):
    return [
        _config(
            n=n,
            seed=seed,
            params=paper_parameters(disk_failure_rate=1e-4, hep=hep),
            **overrides,
        )
        for hep in heps
    ]


def _assert_results_identical(a, b):
    assert a.availability == b.availability
    assert a.interval.lower == b.interval.lower
    assert a.interval.upper == b.interval.upper
    assert a.n_iterations == b.n_iterations
    assert a.totals == b.totals


class TestConfigSurface:
    def test_pool_membership_validated(self):
        with pytest.raises(ConfigurationError, match="pool"):
            _config(pool="greenlet")

    @pytest.mark.parametrize("pool", ["thread", "serial"])
    def test_in_process_pools_reject_shm_transport(self, pool):
        with pytest.raises(ConfigurationError, match="shm"):
            _config(pool=pool, transport="shm", shard_size=200, workers=2)

    def test_with_pool_helper(self):
        config = _config()
        assert config.pool == "process"
        assert config.with_pool("thread").pool == "thread"
        # the helper still validates
        with pytest.raises(ConfigurationError):
            _config().with_pool("greenlet")

    def test_constants_exported(self):
        assert POOLS == ("process", "thread", "serial")

    @pytest.mark.parametrize("name", ["kernel", "executor"])
    def test_execution_path_is_not_a_config_option(self, name):
        # The input alone picks the simulator; no field or helper selects it.
        assert name not in {field.name for field in dataclasses.fields(MonteCarloConfig)}
        assert not hasattr(MonteCarloConfig, f"with_{name}")
        with pytest.raises(TypeError, match=name):
            MonteCarloConfig(**{name: "numpy"})


class TestPoolOracle:
    """workers=N on any pool must be bit-identical to the workers=1 reference."""

    def test_single_point_pools_match_reference(self):
        reference = run_sharded(_config(shard_size=200, workers=1))
        for pool, workers in [
            ("process", 2),
            ("thread", 2),
            ("thread", 4),
            ("serial", 4),
        ]:
            result = run_sharded(
                _config(shard_size=200, workers=workers, pool=pool)
            )
            _assert_results_identical(reference, result)

    def test_stacked_pools_match_reference(self):
        reference = run_stacked(_grid_configs(workers=1))
        for pool, workers in [("thread", 2), ("thread", 4), ("serial", 3)]:
            results = run_stacked(_grid_configs(workers=workers, pool=pool))
            for ref, res in zip(reference, results):
                _assert_results_identical(ref, res)

    def test_thread_pool_pickle_transport_matches_view(self):
        reference = run_stacked(_grid_configs(workers=2, pool="thread"))
        pickled = run_stacked(
            _grid_configs(workers=2, pool="thread", transport="pickle")
        )
        for ref, res in zip(reference, pickled):
            _assert_results_identical(ref, res)

    def test_replay_matches_thread_pool_grid_entry(self):
        configs = _grid_configs(workers=2, pool="thread")
        grid = run_stacked(configs)
        for index in (0, 2):
            _assert_results_identical(grid[index], replay_stacked_point(configs, index))

    def test_adaptive_allocation_is_pool_independent(self):
        def run(pool):
            return run_stacked(
                _grid_configs(
                    heps=(0.05, 0.1),
                    n=300,
                    workers=2,
                    pool=pool,
                    target_half_width=5e-4,
                    max_iterations=1500,
                )
            )

        for ref, res in zip(run("process"), run("thread")):
            _assert_results_identical(ref, res)

    def test_crn_is_pool_independent(self):
        reference = run_stacked(_grid_configs(workers=1), crn=True)
        threaded = run_stacked(_grid_configs(workers=2, pool="thread"), crn=True)
        for ref, res in zip(reference, threaded):
            _assert_results_identical(ref, res)


class TestProvenance:
    def test_sharded_provenance_names_pool(self):
        estimate = evaluate(
            STRESS, "conventional", backend="monte_carlo",
            n_iterations=400, seed=3, shard_size=200, workers=2,
            pool_kind="thread",
        )
        assert estimate.provenance == "executor=sharded(2 workers, thread pool)"

    def test_batch_provenance_names_path(self):
        estimate = evaluate(
            STRESS, "conventional", backend="monte_carlo",
            n_iterations=400, seed=3,
        )
        assert estimate.provenance == "executor=sharded(1 worker)"

    def test_scalar_only_policy_provenance_names_path(self):
        scalar_only = SimulationPolicy(
            name="scalar_only",
            description="no batch kernel",
            scalar=resolve_policy("conventional").scalar,
        )
        estimate = evaluate(
            STRESS, scalar_only, backend="monte_carlo",
            n_iterations=50, seed=3,
        )
        assert estimate.provenance == "executor=scalar"


# ----------------------------------------------------------------------
# Row-search primitives against the per-row searches they replaced
# ----------------------------------------------------------------------
def _ref_min_and_slot(clocks):
    slot = np.argmin(clocks, axis=1)
    return slot, clocks[np.arange(clocks.shape[0]), slot]


def _ref_min_excluding(clocks, exclude):
    masked = clocks.copy()
    rows = np.arange(clocks.shape[0])
    masked[rows, exclude] = np.inf
    slot = np.argmin(masked, axis=1)
    return slot, masked[rows, slot]


def _ref_second_smallest(clocks):
    return np.argmin(clocks, axis=1), np.partition(clocks, 1, axis=1)[:, 1]


#: The argmin/partition primitives, keyed by the ``vectorized`` name each
#: stands in for.
RETIRED_PRIMITIVES = {
    "_row_min": lambda clocks: _ref_min_and_slot(clocks)[1],
    "_min_excluding": _ref_min_excluding,
    "_second_smallest": _ref_second_smallest,
}


def _tricky_matrices():
    inf = np.inf
    matrices = {
        "ties": np.array([[3.0, 1.0, 2.0], [5.0, 5.0, 5.0]]),
        "tie-at-column-0": np.array([[1.0, 1.0], [2.0, 1.0]]),
        "all-inf-row": np.array([[inf, inf, inf], [1.0, inf, 0.5]]),
        "duplicate-minima": np.array([[2.0, 1.0, 1.0, 4.0], [inf, 7.0, 7.0, 7.0]]),
        "signed-zeros": np.array([[0.0, -0.0, 1.0]]),
        "inf-masked-slots": np.array([[4.0, 3.0, inf, inf], [9.0, 2.0, 5.0, inf]]),
        "no-rows": np.empty((0, 4)),
    }
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 8):
        matrices[f"one-row-n{n}"] = rng.exponential(100.0, size=(1, n))
        dense = rng.exponential(100.0, size=(64, n))
        dense[rng.random(dense.shape) < 0.2] = inf
        dense[:8, -1] = dense[:8, 0]
        matrices[f"dense-n{n}"] = dense
    return matrices


TRICKY = _tricky_matrices()
tricky = pytest.mark.parametrize("clocks", list(TRICKY.values()), ids=list(TRICKY))


def _excludes(clocks):
    """Every column excluded in turn, plus a random column per row."""
    m, n = clocks.shape
    for column in range(n):
        yield np.full(m, column)
    yield np.random.default_rng(m).integers(0, n, size=m)


def _assert_pair_equal(got, ref):
    for got_part, ref_part in zip(got, ref):
        np.testing.assert_array_equal(got_part, ref_part)
        assert got_part.dtype.kind == ref_part.dtype.kind


class TestRowSearchPrimitives:
    """The numpy column passes select what argmin/partition select."""

    @tricky
    def test_min_and_slot_matches_argmin(self, clocks):
        slot, first, _ = _scan_columns(_columns(clocks), clocks.shape[0])
        _assert_pair_equal((slot, first), _ref_min_and_slot(clocks))

    @tricky
    def test_row_min_matches_argmin(self, clocks):
        np.testing.assert_array_equal(_row_min(clocks), _ref_min_and_slot(clocks)[1])

    @tricky
    def test_min_excluding_matches_masked_argmin(self, clocks):
        for exclude in _excludes(clocks):
            _assert_pair_equal(
                _min_excluding(clocks, exclude), _ref_min_excluding(clocks, exclude)
            )

    def test_min_excluding_column_zero_with_the_rest_inf(self):
        clocks = np.array([[1.0, np.inf, np.inf]])
        slot, best = _min_excluding(clocks, np.array([0]))
        assert slot.tolist() == [0] and best.tolist() == [np.inf]

    @tricky
    def test_second_smallest_matches_partition(self, clocks):
        _assert_pair_equal(_second_smallest(clocks), _ref_second_smallest(clocks))

    def test_primitives_do_not_write_to_the_clocks(self):
        clocks = TRICKY["dense-n4"]
        before = clocks.copy()
        _row_min(clocks), _second_smallest(clocks)
        _min_excluding(clocks, np.zeros(64, dtype=np.intp))
        assert clocks.tobytes() == before.tobytes()


def _oracle_params(grid, shape):
    if grid == "point":
        return paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=shape), [300]
    counts = [200, 150, 150]
    points = [
        paper_parameters(
            geometry=geometry, disk_failure_rate=1e-4, hep=0.05, failure_shape=shape
        )
        for geometry in (RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4))
    ]
    return stack_parameter_points(points, counts), counts


def _clock_matrix_batch(policy):
    """Return ``policy``'s kernel, on the clock matrix for any input.

    Unbiased exponential runs of every policy here take a memoryless
    path, which holds no clock matrix to search.
    """
    if policy == "conventional":
        return vectorized._clock_matrix_conventional
    if policy == "baseline":
        return lambda params, *args, **kwargs: vectorized._clock_matrix_conventional(
            params.without_human_error(), *args, **kwargs
        )
    return functools.partial(
        vectorized._clock_matrix_spare_pool, n_spares=resolve_policy(policy).n_spares
    )


def _kernel_records(policy, params, counts, biasing):
    rng = RandomStreams(19).stream("montecarlo")
    kwargs = {} if biasing is None else {"biasing": biasing}
    batch = _clock_matrix_batch(policy)(params, HORIZON, sum(counts), rng, **kwargs)
    records = segment_point_records(batch, range(len(counts)), counts)
    return records.tobytes(), rng.bit_generator.state


class TestRowSearchKernelOracle:
    """Whole kernels on the column passes equal them on argmin/partition."""

    @pytest.mark.parametrize("shape", [1.0, 1.3], ids=["exponential", "weibull"])
    @pytest.mark.parametrize("biasing", [None, 8.0], ids=["unbiased", "biased"])
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    @pytest.mark.parametrize(
        "policy", ["conventional", "baseline", "automatic_failover", "hot_spare_pool"]
    )
    def test_batch_records_byte_identical(self, monkeypatch, policy, grid, biasing, shape):
        params, counts = _oracle_params(grid, shape)
        got = _kernel_records(policy, params, counts, biasing)
        calls = []
        for name, reference in RETIRED_PRIMITIVES.items():
            def counted(*args, _reference=reference):
                calls.append(1)
                return _reference(*args)

            monkeypatch.setattr(vectorized, name, counted)
        ref = _kernel_records(policy, params, counts, biasing)
        assert calls, "no retired primitive ran"
        assert got[0] == ref[0]
        assert got[1] == ref[1]
