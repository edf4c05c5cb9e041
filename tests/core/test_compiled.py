"""Tests for the row-search primitives, the compiled kernel backend and the
thread/serial shard pools.

The oracle pattern under test: ``kernel=numpy`` and ``pool=serial`` are the
retained reference paths, and every fast path (compiled row searches, thread
or process pools at any worker count) must reproduce them *bit-identically*
— same availabilities, same intervals, same event totals, same replay.  The
numpy row searches are column passes; the per-row ``argmin``/``partition``
searches they replaced live on below as test-only references, both for the
primitives and, patched into the kernels, for whole batches.

Compiled-backend assertions are gated on numba being importable
(``pip install .[compiled]``, exercised by the CI ``compiled-smoke`` job);
the primitives, pool oracle, configuration surface and fallback behaviour
run everywhere.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.evaluation import evaluate
from repro.core.montecarlo import (
    KERNELS,
    POOLS,
    MonteCarloConfig,
    compiled_available,
    has_compiled_face,
    kernel_context,
    replay_stacked_point,
    resolve_kernel,
    run_batch,
    run_batch_lifetimes,
    run_sharded,
    run_stacked,
    segment_point_records,
)
from repro.core.montecarlo.compiled import (
    compiled_ops,
    reset_compiled_state,
    warmup_compiled,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import available_policies, stack_parameter_points
from repro.core.policies import vectorized
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _min_and_slot,
    _min_excluding,
    _row_min,
    _second_smallest,
    active_kernel_ops,
    kernel_ops,
)
from repro.exceptions import ConfigurationError
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

needs_numba = pytest.mark.skipif(
    not compiled_available(), reason="numba not installed (pip install .[compiled])"
)
needs_no_numba = pytest.mark.skipif(
    compiled_available(), reason="numba is installed; fallback paths unreachable"
)

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


@pytest.fixture
def fresh_compiled_state():
    """Clear the probe/ops caches around a test that pokes them."""
    reset_compiled_state()
    yield
    reset_compiled_state()


class TestKernelResolution:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("fortran")

    def test_numpy_resolves_to_numpy(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_auto_resolves_to_a_concrete_backend(self):
        assert resolve_kernel("auto") in ("numpy", "compiled")

    @needs_no_numba
    def test_compiled_without_numba_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match=r"\[compiled\]"):
            resolve_kernel("compiled")

    @needs_no_numba
    def test_auto_fallback_is_silent(self, fresh_compiled_state):
        # numba is optional: its absence is the default path, so resolving
        # "auto" (first probe included) must not emit any warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("auto") == "numpy"
            assert resolve_kernel("auto") == "numpy"

    @needs_numba
    def test_auto_prefers_compiled_when_numba_present(self):
        assert resolve_kernel("auto") == "compiled"
        assert resolve_kernel("compiled") == "compiled"

    def test_kernel_context_yields_concrete_name(self):
        with kernel_context("numpy") as active:
            assert active == "numpy"
            assert active_kernel_ops() is None


class TestConfigSurface:
    def test_kernel_membership_validated(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            _config(kernel="fortran")

    def test_pool_membership_validated(self):
        with pytest.raises(ConfigurationError, match="pool"):
            _config(pool="greenlet")

    def test_compiled_kernel_rejects_scalar_executor(self):
        with pytest.raises(ConfigurationError, match="scalar"):
            _config(kernel="compiled", executor="scalar")

    def test_compiled_kernel_rejects_trace_collection(self):
        with pytest.raises(ConfigurationError, match="trace"):
            _config(kernel="compiled", collect_trace=True)

    @pytest.mark.parametrize("pool", ["thread", "serial"])
    def test_in_process_pools_reject_shm_transport(self, pool):
        with pytest.raises(ConfigurationError, match="shm"):
            _config(pool=pool, transport="shm", shard_size=200, workers=2)

    def test_with_kernel_and_with_pool_helpers(self):
        config = _config()
        assert config.kernel == "auto" and config.pool == "process"
        assert config.with_kernel("numpy").kernel == "numpy"
        assert config.with_pool("thread").pool == "thread"
        # helpers still validate
        with pytest.raises(ConfigurationError):
            _config().with_kernel("fortran")

    def test_constants_exported(self):
        assert KERNELS == ("auto", "numpy", "compiled", "fused")
        assert POOLS == ("process", "thread", "serial")


class TestCompiledFaces:
    # erasure has no row searches for kernel="compiled" to accelerate, but
    # it earns its compiled face through the fused event loop (PR 9).
    EXPECTED = {
        "automatic_failover": True,
        "baseline": True,
        "conventional": True,
        "erasure": True,
        "hot_spare_pool": True,
    }

    def test_every_registered_policy_is_classified(self):
        assert set(available_policies()) == set(self.EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_face_verdict(self, name):
        assert has_compiled_face(resolve_policy(name)) is self.EXPECTED[name]

    def test_no_batch_kernel_means_no_compiled_face(self):
        class Scalar:
            batch = None

        assert has_compiled_face(Scalar()) is False


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

    def test_auto_kernel_equals_numpy_kernel(self):
        # With numba absent "auto" trivially falls back; with numba present
        # this is the end-to-end compiled-vs-numpy bit-identity check.
        auto = run_batch(_config(kernel="auto"))
        ref = run_batch(_config(kernel="numpy"))
        _assert_results_identical(ref, auto)


class TestProvenance:
    def test_sharded_provenance_names_pool_and_kernel(self):
        estimate = evaluate(
            STRESS, "conventional", backend="monte_carlo",
            n_iterations=400, seed=3, shard_size=200, workers=2,
            pool_kind="thread",
        )
        assert "thread pool" in estimate.provenance
        assert f"kernel={resolve_kernel('auto')}" in estimate.provenance

    def test_batch_provenance_names_resolved_kernel(self):
        estimate = evaluate(
            STRESS, "conventional", backend="monte_carlo",
            n_iterations=400, seed=3, kernel="numpy",
        )
        assert estimate.provenance == "executor=batch kernel=numpy"


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
    "_min_and_slot": _ref_min_and_slot,
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
        _assert_pair_equal(_min_and_slot(clocks), _ref_min_and_slot(clocks))

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
        _row_min(clocks), _min_and_slot(clocks), _second_smallest(clocks)
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


def _kernel_records(policy, params, counts, biasing, compact):
    rng = RandomStreams(19).stream("montecarlo")
    kwargs = {"compact": compact} if biasing is None else {"compact": compact, "biasing": biasing}
    batch = resolve_policy(policy).batch(params, HORIZON, sum(counts), rng, **kwargs)
    records = segment_point_records(batch, range(len(counts)), counts)
    return records.tobytes(), rng.bit_generator.state


class TestRowSearchKernelOracle:
    """Whole kernels on the column passes equal them on argmin/partition."""

    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "gathered"])
    @pytest.mark.parametrize("shape", [1.0, 1.3], ids=["exponential", "weibull"])
    @pytest.mark.parametrize("biasing", [None, 8.0], ids=["unbiased", "biased"])
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    @pytest.mark.parametrize(
        "policy", ["conventional", "baseline", "automatic_failover", "hot_spare_pool"]
    )
    def test_batch_records_byte_identical(
        self, monkeypatch, policy, grid, biasing, shape, compact
    ):
        params, counts = _oracle_params(grid, shape)
        got = _kernel_records(policy, params, counts, biasing, compact)
        calls = []
        for name, reference in RETIRED_PRIMITIVES.items():
            def counted(*args, _reference=reference):
                calls.append(1)
                return _reference(*args)

            monkeypatch.setattr(vectorized, name, counted)
        ref = _kernel_records(policy, params, counts, biasing, compact)
        assert calls, "no retired primitive ran"
        assert got[0] == ref[0]
        assert got[1] == ref[1]


# ----------------------------------------------------------------------
# Compiled-backend suites (skipped without numba)
# ----------------------------------------------------------------------
@needs_numba
class TestCompiledOpsUnit:
    """The njit scans against the argmin/partition references."""

    def test_warmup_compiles_all_primitives(self):
        warmup_compiled()  # must not raise; benches rely on it

    @tricky
    def test_min_and_slot_matches_argmin(self, clocks):
        _assert_pair_equal(compiled_ops().min_and_slot(clocks), _ref_min_and_slot(clocks))

    @tricky
    def test_min_excluding_matches_masked_argmin(self, clocks):
        for exclude in _excludes(clocks):
            _assert_pair_equal(
                compiled_ops().min_excluding(clocks, exclude),
                _ref_min_excluding(clocks, exclude),
            )

    @tricky
    def test_second_smallest_matches_partition(self, clocks):
        _assert_pair_equal(
            compiled_ops().second_smallest(clocks), _ref_second_smallest(clocks)
        )

    def test_kernel_ops_routing_is_scoped(self):
        assert active_kernel_ops() is None
        with kernel_ops(compiled_ops()):
            assert active_kernel_ops() is compiled_ops()
        assert active_kernel_ops() is None


def _batch_pair(policy, params, biasing=None, n=400, seed=19):
    config = MonteCarloConfig(
        params=params, policy=policy, n_iterations=n,
        horizon_hours=HORIZON, seed=seed, biasing=biasing,
    )
    numpy_batch = run_batch_lifetimes(config.with_kernel("numpy"))
    compiled_batch = run_batch_lifetimes(config.with_kernel("compiled"))
    return numpy_batch, compiled_batch


@needs_numba
class TestCompiledBitIdentity:
    """Per policy x geometry x biasing: compiled batch == numpy batch."""

    GEOMETRIES = [RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4)]

    @pytest.mark.parametrize("policy", sorted(TestCompiledFaces.EXPECTED))
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_batch_bit_identity(self, policy, geometry):
        params = paper_parameters(
            geometry=geometry, disk_failure_rate=1e-4, hep=0.05
        )
        ref, got = _batch_pair(policy, params)
        np.testing.assert_array_equal(got.downtime_hours, ref.downtime_hours)
        np.testing.assert_array_equal(got.du_events, ref.du_events)
        np.testing.assert_array_equal(got.dl_events, ref.dl_events)
        np.testing.assert_array_equal(got.disk_failures, ref.disk_failures)
        np.testing.assert_array_equal(got.human_errors, ref.human_errors)
        assert got.log_weights is None and ref.log_weights is None

    @pytest.mark.parametrize("biasing", [2.0, 8.0])
    def test_biased_batch_bit_identity(self, biasing):
        ref, got = _batch_pair("conventional", STRESS, biasing=biasing)
        np.testing.assert_array_equal(got.downtime_hours, ref.downtime_hours)
        np.testing.assert_allclose(
            got.log_weights, ref.log_weights, rtol=0.0, atol=1e-12
        )

    def test_stacked_mixed_geometry_bit_identity(self):
        def run(kernel):
            return run_stacked(
                [
                    _config(
                        n=300,
                        params=paper_parameters(
                            geometry=geometry, disk_failure_rate=1e-4, hep=0.05
                        ),
                        kernel=kernel,
                    )
                    for geometry in self.GEOMETRIES
                ]
            )

        for ref, res in zip(run("numpy"), run("compiled")):
            _assert_results_identical(ref, res)

    def test_thread_pool_compiled_matches_serial_numpy(self):
        reference = run_sharded(_config(shard_size=200, workers=1, kernel="numpy"))
        compiled = run_sharded(
            _config(shard_size=200, workers=4, pool="thread", kernel="compiled")
        )
        _assert_results_identical(reference, compiled)


@needs_numba
class TestCompiledStatisticalPin:
    """The statistically-pinned check: the compiled CI covers the truth.

    Redundant with bit-identity today (same draws, same selections), but
    it is the contract a future fused nopython event loop — which would
    own its draw discipline — must still satisfy.
    """

    def test_compiled_interval_covers_numpy_estimate(self):
        ref = run_batch(_config(n=4000, kernel="numpy", confidence=0.99))
        got = run_batch(_config(n=4000, seed=23, kernel="compiled", confidence=0.99))
        assert abs(got.availability - ref.availability) <= (
            ref.interval.half_width + got.interval.half_width
        )
