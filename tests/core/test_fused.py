"""Tests for the fused whole-event-loop kernel backend (``kernel="fused"``).

The fused loops own their draw discipline, so the cross-backend bit-identity
oracle of ``tests/core/test_compiled.py`` cannot apply.  The contract under
test here is the statistically-pinned protocol instead:

- **within the fused backend** determinism stays exact — the same seed gives
  the same batch across runs, pools and worker counts, and
  ``replay_stacked_point`` reproduces any fused grid entry bit-for-bit;
- **across backends** the fused estimates must agree statistically with the
  numpy oracle (confidence-interval overlap per policy x geometry x
  biasing) and with the analytical faces (the cross-validation experiment
  run on ``kernel="fused"``).

Without numba the fused loops run as plain Python on the identical stream
(numba compiles ``Generator.random()`` over the same PCG64 bit generator,
so jitted and interpreted loops draw the same doubles); the suite opts into
that fallback via ``REPRO_FUSED_PUREPY`` so every assertion here runs in
numba-free environments too — the CI ``compiled-smoke`` job repeats them
against the actual nopython compiles.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    fused_available,
    has_compiled_face,
    has_fused_face,
    kernel_context,
    replay_stacked_point,
    resolve_kernel,
    run_batch,
    run_batch_lifetimes,
    run_fused_batch,
    run_sharded,
    run_stacked,
)
from repro.core.montecarlo.compiled import compiled_available
from repro.core.montecarlo.fused import FUSED_PUREPY_ENV, fused_face, jit_enabled
from repro.core.parameters import paper_parameters
from repro.core.policies import available_policies
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.experiments.cross_validation import all_within_ci, run_cross_validation
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

needs_no_numba = pytest.mark.skipif(
    compiled_available(), reason="numba is installed; fallback paths unreachable"
)

#: Event-rich operating point (as in test_compiled.py): frequent downtime
#: makes any semantic divergence visible within a few hundred lifetimes.
STRESS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 20_000.0


@pytest.fixture(autouse=True)
def _purepy_fallback(monkeypatch):
    """Opt into the pure-Python fused loops when numba is absent.

    The env flag is inherited by forked process-pool workers, so the whole
    suite runs identically with and without numba.
    """
    if not jit_enabled():
        monkeypatch.setenv(FUSED_PUREPY_ENV, "1")
    yield


def _config(n=600, seed=7, **overrides):
    overrides.setdefault("params", STRESS)
    overrides.setdefault("policy", "conventional")
    overrides.setdefault("kernel", "fused")
    return MonteCarloConfig(
        n_iterations=n, horizon_hours=HORIZON, seed=seed, **overrides
    )


def _grid_configs(heps=(0.02, 0.05), n=300, seed=11, **overrides):
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


def _assert_intervals_overlap(got, ref):
    assert abs(got.availability - ref.availability) <= (
        ref.interval.half_width + got.interval.half_width
    )


class TestFusedResolution:
    def test_fused_resolves_when_available(self):
        assert fused_available()
        assert resolve_kernel("fused") == "fused"

    def test_auto_never_resolves_to_fused(self):
        assert resolve_kernel("auto") in ("numpy", "compiled")

    @needs_no_numba
    def test_fused_without_numba_or_optin_is_an_error(self, monkeypatch):
        monkeypatch.delenv(FUSED_PUREPY_ENV, raising=False)
        assert not fused_available()
        with pytest.raises(ConfigurationError, match=FUSED_PUREPY_ENV):
            resolve_kernel("fused")

    def test_kernel_context_refuses_fused(self):
        with pytest.raises(ConfigurationError, match="run_fused_batch"):
            with kernel_context("fused"):
                pass  # pragma: no cover - the context must not be entered

    def test_fused_kernel_rejects_scalar_executor(self):
        with pytest.raises(ConfigurationError, match="scalar"):
            _config(executor="scalar")

    def test_fused_kernel_rejects_trace_collection(self):
        with pytest.raises(ConfigurationError, match="trace"):
            _config(collect_trace=True)


class TestFusedFaces:
    def test_every_registered_policy_has_a_fused_face(self):
        # All five families route through a fused loop — including erasure,
        # which the sliced compiled backend could never accelerate.
        for name in available_policies():
            assert has_fused_face(resolve_policy(name)), name

    def test_erasure_gains_its_compiled_face_through_fused(self):
        assert has_compiled_face(resolve_policy("erasure")) is True

    def test_partial_kwargs_are_collected(self):
        family, bound = fused_face(resolve_policy("hot_spare_pool"))
        assert family == "spare_pool"
        assert bound["n_spares"] >= 2
        family, bound = fused_face(resolve_policy("erasure"))
        assert family == "erasure"
        assert "scheme" in bound

    def test_no_batch_kernel_means_no_fused_face(self):
        class Scalar:
            batch = None

        assert has_fused_face(Scalar()) is False
        with pytest.raises(ConfigurationError, match="no fused event"):
            run_fused_batch(Scalar(), STRESS, HORIZON, 100, RandomStreams(0))


class TestFusedErrors:
    def test_erasure_rejects_biasing(self):
        with pytest.raises(ConfigurationError, match="biasing"):
            run_fused_batch(
                resolve_policy("erasure"), STRESS, HORIZON, 100, RandomStreams(0),
                biasing=4.0,
            )

    def test_erasure_rejects_weibull_shares(self):
        weibull = paper_parameters(disk_failure_rate=1e-3, failure_shape=1.5)
        with pytest.raises(ConfigurationError, match="exponential"):
            run_fused_batch(
                resolve_policy("erasure"), weibull, HORIZON, 100, RandomStreams(0)
            )

    def test_invalid_biasing_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            run_fused_batch(
                resolve_policy("conventional"), STRESS, HORIZON, 100,
                RandomStreams(0), biasing=-2.0,
            )


class TestFusedDeterminism:
    """Within the fused backend, determinism stays exact."""

    def test_same_seed_same_batch(self):
        a = run_batch_lifetimes(_config())
        b = run_batch_lifetimes(_config())
        assert np.array_equal(a.downtime_hours, b.downtime_hours)
        assert np.array_equal(a.disk_failures, b.disk_failures)
        assert np.array_equal(a.dl_events, b.dl_events)

    def test_fused_draws_differ_from_numpy(self):
        # Same lineage, distinct named stream: the backends must not share
        # draws (that is what forces the statistically-pinned protocol).
        fused = run_batch_lifetimes(_config())
        ref = run_batch_lifetimes(_config(kernel="numpy"))
        assert not np.array_equal(fused.downtime_hours, ref.downtime_hours)

    def test_workers_bit_identical_single_point(self):
        reference = run_sharded(_config(shard_size=200, workers=1))
        for workers in (2, 4):
            _assert_results_identical(
                run_sharded(_config(shard_size=200, workers=workers)), reference
            )

    @pytest.mark.parametrize("pool", ["thread", "serial"])
    def test_pools_bit_identical(self, pool):
        reference = run_sharded(_config(shard_size=200, workers=2))
        _assert_results_identical(
            run_sharded(_config(shard_size=200, workers=2, pool=pool)), reference
        )

    def test_stacked_workers_bit_identical(self):
        reference = run_stacked(_grid_configs())
        for workers in (2, 4):
            got = run_stacked(_grid_configs(workers=workers))
            for a, b in zip(got, reference):
                _assert_results_identical(a, b)

    def test_adaptive_biased_ci_width_workers_bit_identical(self):
        # The acceptance bar: stacked + adaptive ci_width + biased, fused
        # workers=N bit-identical to workers=1.
        def configs(workers):
            return _grid_configs(
                n=240,
                workers=workers,
                biasing=3.0,
                target_half_width=2e-5,
                max_iterations=960,
                allocator="ci_width",
            )

        reference = run_stacked(configs(1))
        for workers in (2, 4):
            got = run_stacked(configs(workers))
            for a, b in zip(got, reference):
                _assert_results_identical(a, b)

    def test_replay_reproduces_fused_grid_point(self):
        configs = _grid_configs(biasing=3.0)
        grid = run_stacked(configs)
        for index in range(len(configs)):
            _assert_results_identical(replay_stacked_point(configs, index), grid[index])

    def test_erasure_fused_stacked_workers_bit_identical(self):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.1)
        configs = [
            _config(n=300, policy="erasure", params=replace(params, hep=hep))
            for hep in (0.05, 0.1)
        ]
        reference = run_stacked(configs)
        got = run_stacked([replace(c, workers=2) for c in configs])
        for a, b in zip(got, reference):
            _assert_results_identical(a, b)


class TestFusedStatisticalPin:
    """Across backends, fused must agree with numpy within joint CI width."""

    GEOMETRIES = [RaidGeometry.raid5(3), RaidGeometry.raid6(4)]

    @pytest.mark.parametrize("policy", [
        "conventional", "baseline", "automatic_failover", "hot_spare_pool",
    ])
    @pytest.mark.parametrize("geometry_index", [0, 1])
    @pytest.mark.parametrize("biasing", [None, 4.0])
    def test_fused_interval_overlaps_numpy(self, policy, geometry_index, biasing):
        params = paper_parameters(
            geometry=self.GEOMETRIES[geometry_index],
            disk_failure_rate=1e-4,
            hep=0.05,
        )
        kwargs = dict(n=900, params=params, policy=policy, biasing=biasing)
        got = run_batch(_config(seed=5, **kwargs))
        ref = run_batch(_config(seed=17, kernel="numpy", **kwargs))
        _assert_intervals_overlap(got, ref)

    def test_erasure_fused_interval_overlaps_numpy(self):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.1)
        kwargs = dict(n=900, params=params, policy="erasure")
        got = run_batch(_config(seed=5, **kwargs))
        ref = run_batch(_config(seed=17, kernel="numpy", **kwargs))
        _assert_intervals_overlap(got, ref)

    def test_analytical_inside_fused_ci_for_dual_face_policies(self):
        # The cross-validation experiment on kernel="fused": the analytical
        # steady-state availability must fall inside the fused Monte Carlo
        # interval for every continuous-repair dual-face policy.
        rows = run_cross_validation(
            mc_iterations=2400,
            mc_horizon_hours=40_000.0,
            seed=3,
            kernel="fused",
        )
        assert all_within_ci(rows), [(r.policy, r.within_ci) for r in rows]

    def test_analytical_inside_fused_ci_for_erasure(self):
        # The periodic checker family validates at an event-rich operating
        # point (the default one is event-starved; see cross_validation.py).
        rows = run_cross_validation(
            params=paper_parameters(
                geometry=RaidGeometry.erasure(3, 10),
                disk_failure_rate=1e-3,
                hep=0.1,
            ),
            policies=["erasure"],
            mc_iterations=2400,
            mc_horizon_hours=40_000.0,
            seed=3,
            kernel="fused",
        )
        assert all_within_ci(rows), [(r.policy, r.within_ci) for r in rows]
