"""Tests for the rare-event engine: importance-sampled kernels, weighted
streaming aggregation and the CI-width-driven adaptive grid allocator.

The statistical contract under test: failure biasing must leave every
availability estimate unbiased (the per-lifetime likelihood-ratio weights
undo the inflated failure rates exactly), the weighted merge must stay
bit-identical across worker counts, and ``biasing=None`` must remain the
untouched historical code path.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import importlib

# `repro.core` re-exports the sweep *function* under the same name as the
# submodule, so a plain `import repro.core.sweep as ...` binds the function.
sweep_module = importlib.import_module("repro.core.sweep")
from repro.core.evaluation import evaluate
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo
from repro.core.montecarlo.parallel import (
    replay_stacked_point,
    run_stacked_sharded,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy
from repro.core.policies.base import SimulationPolicy
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.confidence import StreamingMoments, segmented_moments
from repro.simulation.rng import RandomStreams
from tests.core.gathered import assert_matches_gathered

#: The paper's dual-face policies: every one pairs a batch kernel with an
#: analytical chain, so an importance-sampled estimate can be checked
#: against the exact steady-state availability.
DUAL_FACE_POLICIES = ("conventional", "automatic_failover", "baseline")

#: Rare scenario of the unbiasedness suite: a five-nines-plus array where
#: the unbiased estimator sees almost no events at test-sized budgets, but
#: the measure change at ``BIASING`` stays tame (lambda * horizon * biasing
#: well below one failure per disk).
RARE = dict(disk_failure_rate=1e-6, hep=0.002)
BIASING = 8.0

#: Exaggerated stress point (as used by the parallel executor tests) where
#: confidence intervals resolve within a few thousand lifetimes — keeps
#: the adaptive-allocator tests fast.
STRESS = dict(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _stress_config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        params=paper_parameters(**STRESS),
        n_iterations=2000,
        horizon_hours=HORIZON,
        seed=13,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


# ----------------------------------------------------------------------
# Configuration hygiene
# ----------------------------------------------------------------------
class TestBiasingConfig:
    def test_biasing_must_be_positive(self):
        for bad in (0.0, -2.0):
            with pytest.raises(ConfigurationError):
                MonteCarloConfig(biasing=bad)

    def test_biasing_rejects_event_traces(self):
        with pytest.raises(ConfigurationError, match="trace"):
            MonteCarloConfig(biasing=2.0, collect_trace=True)

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ConfigurationError, match="allocator"):
            MonteCarloConfig(allocator="widest_first")

    def test_adaptive_ceiling_cannot_undercut_first_round(self):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            MonteCarloConfig(
                n_iterations=10_000,
                max_iterations=5000,
                target_half_width=1e-5,
            )
        # Without a target the ceiling is documented as ignored, and stays
        # unvalidated for backward compatibility.
        config = MonteCarloConfig(n_iterations=10_000, max_iterations=5000)
        assert config.max_iterations == 5000

    def test_with_biasing_and_with_allocator_round_trip(self):
        config = MonteCarloConfig().with_biasing(3.0).with_allocator("ci_width")
        assert config.biasing == 3.0
        assert config.allocator == "ci_width"
        assert config.with_biasing(None).biasing is None

    def test_biasing_requires_a_batch_kernel(self):
        # A scalar-only policy resolves to the scalar loop, which must
        # refuse biasing rather than silently ignore it.
        scalar_only = SimulationPolicy(
            name="scalar_only",
            description="test stub without a batch kernel",
            scalar=get_policy("conventional").scalar,
        )
        config = _stress_config(policy=scalar_only, biasing=2.0)
        with pytest.raises(ConfigurationError, match="batch"):
            run_monte_carlo(config)


# ----------------------------------------------------------------------
# Weighted streaming moments
# ----------------------------------------------------------------------
class TestWeightedMoments:
    def test_unweighted_from_samples_carries_count_as_weight(self):
        samples = np.array([0.2, 0.4, 0.9])
        moments = StreamingMoments.from_samples(samples)
        assert moments.w_sum == 3.0
        assert moments.w2_sum == 3.0
        assert moments.ess() == 3.0

    def test_weight_validation(self):
        samples = np.array([0.5, 0.5])
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples(samples, weights=np.array([1.0, -0.5]))
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples(samples, weights=np.array([1.0]))
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples(samples, weights=np.array([1.0, np.inf]))

    def test_ess_matches_kish_formula(self):
        weights = np.array([0.5, 2.0, 1.0, 0.1])
        moments = StreamingMoments.from_samples(np.ones(4), weights=weights)
        expected = weights.sum() ** 2 / np.square(weights).sum()
        assert moments.ess() == pytest.approx(expected, rel=1e-15)

    def test_weighted_merge_parity_to_1e12(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0.9, 1.0, size=1000)
        weights = rng.lognormal(0.0, 0.7, size=1000)
        whole = StreamingMoments.from_samples(samples, weights=weights)
        merged = StreamingMoments()
        for part in (slice(0, 137), slice(137, 500), slice(500, 1000)):
            merged = merged.merge(
                StreamingMoments.from_samples(samples[part], weights=weights[part])
            )
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean, abs=1e-15)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-12)
        assert merged.w_sum == pytest.approx(whole.w_sum, rel=1e-12)
        assert merged.w2_sum == pytest.approx(whole.w2_sum, rel=1e-12)
        assert merged.variance() == pytest.approx(
            float(np.var(samples, ddof=1)), rel=1e-12
        )

    def test_segmented_moments_match_per_segment_from_samples(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(size=60)
        weights = rng.lognormal(size=60)
        counts = [10, 25, 25]
        segments = segmented_moments(samples, counts, weights=weights)
        offset = 0
        for count, segment in zip(counts, segments):
            direct = StreamingMoments.from_samples(
                samples[offset : offset + count],
                weights=weights[offset : offset + count],
            )
            assert segment.mean == pytest.approx(direct.mean, abs=1e-15)
            assert segment.m2 == pytest.approx(direct.m2, rel=1e-12)
            assert segment.w_sum == pytest.approx(direct.w_sum, rel=1e-12)
            assert segment.w2_sum == pytest.approx(direct.w2_sum, rel=1e-12)
            offset += count


# ----------------------------------------------------------------------
# Importance-sampled kernels
# ----------------------------------------------------------------------
class TestBiasedKernels:
    def test_biasing_none_is_the_historical_path(self):
        policy = get_policy("conventional")
        params = paper_parameters(**STRESS)

        def run(**kwargs):
            rng = RandomStreams(21).stream("montecarlo")
            return policy.simulate_batch(params, HORIZON, 3000, rng, **kwargs)

        plain = run()
        explicit = run(biasing=None)
        assert plain.log_weights is None and explicit.log_weights is None
        np.testing.assert_array_equal(
            plain.availabilities(), explicit.availabilities()
        )
        np.testing.assert_array_equal(
            plain.weighted_availabilities(), plain.availabilities()
        )

    @pytest.mark.parametrize("policy_name", ["conventional", "hot_spare_pool"])
    def test_compact_and_gathered_biased_paths_agree(self, policy_name):
        rng = RandomStreams(3).stream("montecarlo")
        batch = get_policy(policy_name).batch(
            paper_parameters(**RARE), HORIZON, 2000, rng, biasing=4.0
        )
        assert batch.log_weights is not None
        assert_matches_gathered(f"biased-{policy_name}", batch, [2000], rng)

    def test_biased_weights_are_finite_and_centred(self):
        policy = get_policy("conventional")
        params = paper_parameters(**RARE)
        rng = RandomStreams(9).stream("montecarlo")
        batch = policy.simulate_batch(params, 87_600.0, 20_000, rng, biasing=BIASING)
        weights = batch.weights()
        assert np.all(np.isfinite(weights))
        # E_Q[dP/dQ] = 1: the empirical mean weight must sit near one in
        # the tame regime (it collapsing toward zero is the degeneracy
        # signature of an off-regime measure change).
        assert 0.5 < weights.mean() < 2.0

    @pytest.mark.parametrize("policy_name", DUAL_FACE_POLICIES)
    def test_importance_sampled_estimate_covers_analytical(self, policy_name):
        est = evaluate(
            paper_parameters(**RARE),
            policy=policy_name,
            backend="monte_carlo",
            n_iterations=40_000,
            seed=11,
            biasing=BIASING,
        )
        assert est.analytical_reference is not None
        assert est.contains(est.analytical_reference)
        # The unbiased estimator would need ~1/unavailability lifetimes to
        # see its first event; the biased run resolves a positive estimate
        # from 40k.
        assert est.unavailability > 0.0

    def test_ess_reported_only_for_biased_runs(self):
        biased = run_monte_carlo(
            _stress_config(params=paper_parameters(**RARE), biasing=4.0)
        )
        plain = run_monte_carlo(_stress_config())
        assert biased.ess is not None and 0 < biased.ess <= biased.n_iterations
        assert plain.ess is None
        assert biased.as_dict()["ess"] == biased.ess


# ----------------------------------------------------------------------
# Weighted merges across worker counts
# ----------------------------------------------------------------------
class TestWeightedWorkerIdentity:
    def test_sharded_biased_run_is_worker_count_invariant(self):
        base = _stress_config(
            params=paper_parameters(**RARE),
            n_iterations=8000,
            shard_size=2000,
            biasing=BIASING,
            seed=11,
        )
        reference = run_monte_carlo(base.with_workers(1))
        for workers in (2, 4):
            result = run_monte_carlo(base.with_workers(workers))
            assert result.availability == reference.availability
            assert result.interval == reference.interval
            assert result.ess == reference.ess
            assert result.totals == reference.totals

    def test_stacked_biased_grid_is_worker_count_invariant(self):
        configs = [
            _stress_config(
                params=paper_parameters(disk_failure_rate=rate, hep=0.0),
                n_iterations=4000,
                biasing=5.0,
                seed=7,
            )
            for rate in (1e-6, 2e-6)
        ]
        reference = run_stacked_sharded(configs)
        for workers in (2,):
            results = run_stacked_sharded(
                [config.with_workers(workers) for config in configs]
            )
            for got, want in zip(results, reference):
                assert got.availability == want.availability
                assert got.interval == want.interval
                assert got.ess == want.ess


# ----------------------------------------------------------------------
# CI-width-driven adaptive allocation on stacked grids
# ----------------------------------------------------------------------
class TestAdaptiveAllocator:
    TARGET = 2e-6
    CEILING = 60_000

    def _grid(self, allocator, workers=1):
        return [
            _stress_config(
                params=paper_parameters(disk_failure_rate=rate, hep=0.01),
                horizon_hours=87_600.0,
                seed=2017,
                n_iterations=2000,
                target_half_width=self.TARGET,
                max_iterations=self.CEILING,
                allocator=allocator,
                workers=workers,
            )
            for rate in (2e-5, 5e-5, 1e-4)
        ]

    @pytest.mark.parametrize("allocator", ["uniform", "ci_width"])
    def test_allocator_reaches_target_or_ceiling(self, allocator):
        for result in run_stacked_sharded(self._grid(allocator)):
            assert (
                result.interval.half_width <= self.TARGET
                or result.n_iterations >= self.CEILING
            )

    def test_ci_width_spends_no_more_than_uniform(self):
        uniform = run_stacked_sharded(self._grid("uniform"))
        ci_width = run_stacked_sharded(self._grid("ci_width"))
        assert sum(r.n_iterations for r in ci_width) <= sum(
            r.n_iterations for r in uniform
        )
        # The easy point met the target in round one under both disciplines.
        assert uniform[0].n_iterations == ci_width[0].n_iterations == 2000

    @pytest.mark.parametrize("allocator", ["uniform", "ci_width"])
    def test_adaptive_grid_is_worker_count_invariant(self, allocator):
        reference = run_stacked_sharded(self._grid(allocator))
        for workers in (2, 4):
            results = run_stacked_sharded(self._grid(allocator, workers=workers))
            for got, want in zip(results, reference):
                assert got.availability == want.availability
                assert got.interval == want.interval
                assert got.n_iterations == want.n_iterations
                assert got.totals == want.totals

    def test_adaptive_point_replay_matches_grid(self):
        configs = self._grid("ci_width")
        grid = run_stacked_sharded(configs)
        replayed = replay_stacked_point(configs, 1)
        assert replayed.availability == grid[1].availability
        assert replayed.interval == grid[1].interval
        assert replayed.n_iterations == grid[1].n_iterations

    def test_adaptive_rejects_common_random_numbers(self):
        with pytest.raises(ConfigurationError, match="common-random-numbers"):
            run_stacked_sharded(self._grid("ci_width"), crn=True)


# ----------------------------------------------------------------------
# Replay of biased non-adaptive stacked grids
# ----------------------------------------------------------------------
class TestBiasedReplay:
    def test_nonadaptive_replay_forwards_biasing(self):
        # Regression pin: the non-adaptive replay path must forward the
        # grid's biasing factor into the replayed shard run.  Dropping it
        # re-simulates the point under the unbiased measure on the same
        # stream — a silently different estimate, not an error.
        configs = [
            _stress_config(
                params=paper_parameters(disk_failure_rate=rate, hep=0.01),
                n_iterations=1200,
                seed=2017,
                biasing=BIASING,
            )
            for rate in (2e-5, 1e-4)
        ]
        grid = run_stacked_sharded(configs)
        for index in range(len(configs)):
            replayed = replay_stacked_point(configs, index)
            assert replayed.availability == grid[index].availability
            assert replayed.interval == grid[index].interval
            assert replayed.n_iterations == grid[index].n_iterations
            assert replayed.totals == grid[index].totals


# ----------------------------------------------------------------------
# Adaptive sweeps
# ----------------------------------------------------------------------
class TestAdaptiveSweepFallback:
    def test_unstackable_adaptive_sweep_runs_on_allocator_without_warning(self):
        # A policy without a stacked kernel runs its point segments inside
        # the allocator's shards, so the sweep needs no fallback or warning.
        conventional = get_policy("conventional")
        unstacked = SimulationPolicy(
            name="unstacked_test_policy",
            description="batch kernel without stacked support",
            scalar=conventional.scalar,
            batch=conventional.batch,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = sweep_module.sweep(
                paper_parameters(**STRESS),
                "hep",
                [0.02, 0.05],
                unstacked,
                backend="monte_carlo",
                mc_iterations=500,
                mc_horizon_hours=HORIZON,
                seed=3,
                target_half_width=5e-3,
                allocator="ci_width",
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(points) == 2 and all(p.has_interval for p in points)
        for point in points:
            assert 0.5 * (point.ci_upper - point.ci_lower) <= 5e-3

    def test_adaptive_stacked_sweep_uses_allocator(self):
        # A stackable adaptive sweep must run without warnings and meet the
        # target — the configuration that raised before the allocator.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = sweep_module.sweep(
                paper_parameters(hep=0.01),
                "failure_rate",
                [2e-5, 5e-5],
                backend="monte_carlo",
                mc_iterations=2000,
                seed=2017,
                target_half_width=2e-6,
                allocator="ci_width",
            )
        assert not [w for w in caught if "stacked allocator" in str(w.message)]
        for point in points:
            assert 0.5 * (point.ci_upper - point.ci_lower) <= 2e-6

    def test_biasing_rejected_on_analytical_backend(self):
        with pytest.raises(ConfigurationError, match="monte_carlo"):
            sweep_module.sweep(
                paper_parameters(**STRESS),
                "hep",
                [0.02],
                backend="analytical",
                biasing=4.0,
            )
