"""Tests for the compiled kernel backend and the thread/serial shard pools.

The oracle pattern under test: ``kernel=numpy`` and ``pool=serial`` are the
retained reference paths, and every fast path (compiled row searches, thread
or process pools at any worker count) must reproduce them *bit-identically*
— same availabilities, same intervals, same event totals, same replay.

Compiled-backend assertions are gated on numba being importable
(``pip install .[compiled]``, exercised by the CI ``compiled-smoke`` job);
the pool oracle, configuration surface and fallback behaviour run everywhere.
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
)
from repro.core.montecarlo.compiled import (
    compiled_ops,
    reset_compiled_state,
    warmup_compiled,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import available_policies
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _min_and_slot,
    _min_excluding,
    _second_smallest,
    active_kernel_ops,
    kernel_ops,
)
from repro.exceptions import ConfigurationError
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
# Compiled-backend suites (skipped without numba)
# ----------------------------------------------------------------------

def _tricky_matrices():
    inf = np.inf
    yield np.array([[3.0, 1.0, 2.0], [5.0, 5.0, 5.0]])            # ties
    yield np.array([[1.0, 1.0], [2.0, 1.0]])                      # tie at column 0
    yield np.array([[inf, inf, inf], [1.0, inf, 0.5]])            # all-inf row
    yield np.array([[0.0, -0.0, 1.0]])                            # signed zeros
    rng = np.random.default_rng(42)
    dense = rng.exponential(100.0, size=(64, 7))
    dense[rng.random(dense.shape) < 0.2] = inf
    yield dense


@needs_numba
class TestCompiledOpsUnit:
    """The njit scans against the numpy helpers, element for element."""

    def test_warmup_compiles_all_primitives(self):
        warmup_compiled()  # must not raise; benches rely on it

    @pytest.mark.parametrize("clocks", list(_tricky_matrices()), ids=repr)
    def test_min_and_slot_matches_numpy(self, clocks):
        ref_slot, ref_best = _min_and_slot(clocks)
        slot, best = compiled_ops().min_and_slot(clocks)
        np.testing.assert_array_equal(slot, ref_slot)
        np.testing.assert_array_equal(best, ref_best)

    @pytest.mark.parametrize("clocks", list(_tricky_matrices()), ids=repr)
    def test_min_excluding_matches_numpy(self, clocks):
        rng = np.random.default_rng(clocks.shape[0])
        exclude = rng.integers(0, clocks.shape[1], size=clocks.shape[0])
        ref_slot, ref_best = _min_excluding(clocks, exclude)
        slot, best = compiled_ops().min_excluding(clocks, exclude)
        np.testing.assert_array_equal(slot, ref_slot)
        np.testing.assert_array_equal(best, ref_best)

    def test_min_excluding_all_inf_row_matches_mask_argmin(self):
        clocks = np.array([[1.0, np.inf, np.inf]])
        ref = _min_excluding(clocks, np.array([0]))
        got = compiled_ops().min_excluding(clocks, np.array([0]))
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("clocks", list(_tricky_matrices()), ids=repr)
    def test_second_smallest_matches_partition(self, clocks):
        if clocks.shape[1] < 2:
            pytest.skip("second order statistic needs two columns")
        out = np.empty_like(clocks)
        ref = _second_smallest(clocks, out).copy()
        got = compiled_ops().second_smallest(clocks)
        np.testing.assert_array_equal(got, ref)

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
