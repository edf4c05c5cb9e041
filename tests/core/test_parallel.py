"""Tests for the sharded parallel Monte Carlo executor.

Covers shard planning, the streaming merge, multi-process execution,
CI-driven adaptive stopping, seed-entropy replay, and the
statistical-consistency guarantees across all executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    effective_shard_size,
    merge_totals,
    plan_shards,
    run_batch_lifetimes,
    run_monte_carlo,
    run_monte_carlo_with_trace,
    run_shard,
    run_sharded,
    summarise_batch,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy
from repro.core.policies.base import BatchLifetimes, SimulationPolicy
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.confidence import StreamingMoments
from repro.simulation.rng import RandomStreams

#: Exaggerated stress point where estimates separate quickly (as used by
#: the existing runner tests): events are frequent enough that a few
#: thousand lifetimes give a resolvable interval.
STRESS = dict(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        params=paper_parameters(**STRESS),
        n_iterations=2000,
        horizon_hours=HORIZON,
        seed=13,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


def _scalar_only_policy() -> SimulationPolicy:
    """The conventional model with its batch kernel left out."""
    return SimulationPolicy(
        name="scalar_only",
        description="no batch kernel",
        scalar=get_policy("conventional").scalar,
    )


class TestShardPlanning:
    def test_plan_exact_division(self):
        assert plan_shards(10_000, 2500) == [2500] * 4

    def test_plan_with_remainder(self):
        assert plan_shards(10_001, 2500) == [2500] * 4 + [1]

    def test_plan_single_shard(self):
        assert plan_shards(5, 100) == [5]

    def test_plan_validation(self):
        with pytest.raises(SimulationError):
            plan_shards(0, 100)
        with pytest.raises(SimulationError):
            plan_shards(100, 0)

    def test_effective_shard_size_derives_from_workers(self):
        assert effective_shard_size(_config(workers=4)) == 500
        assert effective_shard_size(_config(workers=3)) == 667

    def test_effective_shard_size_explicit_override(self):
        assert effective_shard_size(_config(workers=4, shard_size=100)) == 100

    def test_effective_shard_size_capped_when_derived(self):
        # A huge adaptive round must not become one huge shard: the derived
        # size is capped so kernel working sets stay bounded, while an
        # explicit shard_size is taken literally.
        big = _config(n_iterations=1_000_000, workers=1)
        assert effective_shard_size(big) == 50_000
        assert effective_shard_size(_config(workers=1), budget=1_000_000) == 50_000
        pinned = _config(n_iterations=1_000_000, workers=1, shard_size=200_000)
        assert effective_shard_size(pinned) == 200_000


class TestConfigValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _config(workers=0)

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _config(shard_size=0)

    def test_target_half_width_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _config(target_half_width=0.0)

    def test_max_iterations_not_below_n_iterations(self):
        with pytest.raises(ConfigurationError):
            _config(n_iterations=1000, target_half_width=1e-5, max_iterations=500)

    def test_max_iterations_unchecked_without_target(self):
        # The field is documented as ignored without target_half_width, so
        # it must not be validated against n_iterations either.
        config = _config(n_iterations=1000, max_iterations=500)
        assert config.max_iterations == 500

    def test_with_target_half_width_preserves_pinned_ceiling(self):
        pinned = _config(n_iterations=500, target_half_width=1e-4, max_iterations=50_000)
        assert pinned.with_target_half_width(1e-6).max_iterations == 50_000
        assert pinned.with_target_half_width(1e-6, max_iterations=None).max_iterations is None
        assert pinned.with_target_half_width(1e-6, max_iterations=9000).max_iterations == 9000

    def test_with_workers_preserves_pinned_shard_size(self):
        pinned = _config().with_workers(1, shard_size=500)
        assert pinned.with_workers(4).shard_size == 500
        assert pinned.with_workers(4, shard_size=None).shard_size is None
        assert pinned.with_workers(4, shard_size=250).shard_size == 250

    def test_trace_collection_incompatible_with_sharding(self):
        with pytest.raises(ConfigurationError):
            _config(collect_trace=True, workers=2)
        with pytest.raises(ConfigurationError):
            _config(collect_trace=True, target_half_width=1e-4)

    def test_error_parity_between_executors(self):
        # Both the scalar and the batch path must reject a too-small run
        # with the same ConfigurationError, up front.
        with pytest.raises(ConfigurationError, match="at least two iterations"):
            _config(n_iterations=1)
        with pytest.raises(ConfigurationError, match="at least two iterations"):
            _config().with_iterations(1)
        batch = BatchLifetimes.zeros(1, HORIZON)
        with pytest.raises(ConfigurationError, match="at least two iterations"):
            summarise_batch(batch, _config())


class TestShardedDeterminism:
    def test_worker_count_does_not_change_results(self):
        # The decomposition depends only on shard_size, so a 1-worker and a
        # 3-worker run over the same shards are bit-identical.
        base = _config(n_iterations=1200)
        serial = run_monte_carlo(base.with_workers(1, shard_size=300))
        parallel = run_monte_carlo(base.with_workers(3, shard_size=300))
        assert serial.availability == parallel.availability
        assert serial.interval.half_width == parallel.interval.half_width
        assert serial.totals == parallel.totals
        assert serial.n_iterations == parallel.n_iterations == 1200

    def test_sharded_run_reproducible(self):
        config = _config(workers=2)
        first = run_sharded(config)
        second = run_sharded(config)
        assert first.availability == second.availability
        assert first.totals == second.totals

    def test_shard_summary_merge_matches_pooled_samples(self):
        # The merged streaming variance must equal np.var(ddof=1) over the
        # pooled per-lifetime availabilities to within 1e-12.
        config = _config(n_iterations=1000)
        entropy = RandomStreams(config.seed).seed_entropy
        sizes = plan_shards(config.n_iterations, 250)
        moments = StreamingMoments()
        samples = []
        policy = get_policy("conventional")
        for index, size in enumerate(sizes):
            summary = run_shard(config, entropy, index, size)
            moments.merge(summary.moments)
            batch = policy.simulate_shard(
                config.params,
                config.horizon_hours,
                size,
                RandomStreams(entropy).spawn_child(index),
            )
            samples.append(batch.availabilities())
        pooled = np.concatenate(samples)
        assert moments.n == pooled.size
        assert moments.mean == pytest.approx(float(np.mean(pooled)), abs=1e-12)
        assert moments.variance() == pytest.approx(float(np.var(pooled, ddof=1)), abs=1e-12)

    def test_merge_totals_sums_shards(self):
        merged = merge_totals(
            [
                {"downtime_hours": 1.5, "disk_failures": 3.0},
                {"downtime_hours": 0.5, "human_errors": 2.0},
            ]
        )
        assert merged["downtime_hours"] == pytest.approx(2.0)
        assert merged["disk_failures"] == 3.0
        assert merged["human_errors"] == 2.0
        assert merged["du_events"] == 0.0


class TestStatisticalConsistency:
    @pytest.mark.parametrize("policy", ["conventional", "hot_spare_pool"])
    def test_executors_agree_within_confidence(self, policy):
        # Scalar, batch, 1-worker sharded and 2-worker sharded estimates of
        # the same scenario must have overlapping 99 % intervals.
        base = _config(policy=policy, n_iterations=1500, confidence=0.99)
        results = {
            "scalar": run_monte_carlo_with_trace(base)[0],
            "batch": run_monte_carlo(base),
            "sharded-1w": run_monte_carlo(base.with_workers(1, shard_size=500)),
            "sharded-2w": run_monte_carlo(base.with_workers(2, shard_size=500)),
        }
        names = list(results)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                low = max(results[a].interval.lower, results[b].interval.lower)
                high = min(results[a].interval.upper, results[b].interval.upper)
                assert low <= high, f"{a} and {b} intervals do not overlap"

    def test_sharded_scalar_only_policy_supported(self):
        # A policy without a batch kernel runs the per-lifetime loop inside
        # each shard; the estimate must agree with the conventional batch
        # kernel at the 99 % level.
        base = _config(n_iterations=800)
        scalar_sharded = run_monte_carlo(
            base.with_policy(_scalar_only_policy()).with_workers(2, shard_size=400)
        )
        batch_sharded = run_monte_carlo(base.with_workers(2, shard_size=400))
        low = max(scalar_sharded.interval.lower, batch_sharded.interval.lower)
        high = min(scalar_sharded.interval.upper, batch_sharded.interval.upper)
        assert low <= high
        assert scalar_sharded.n_iterations == 800


class TestAdaptiveStopping:
    def test_stops_once_target_met(self):
        # A target equal to the interval the first round already achieves
        # must stop after that round.
        first = run_monte_carlo(_config(shard_size=2000))
        config = _config(
            shard_size=2000,
            target_half_width=first.interval.half_width * 1.01,
        )
        result = run_monte_carlo(config)
        assert result.n_iterations == 2000
        assert result.interval.half_width <= config.target_half_width

    def test_grows_until_target_met(self):
        first = run_monte_carlo(_config(n_iterations=500, shard_size=500))
        target = first.interval.half_width / 2.0
        result = run_monte_carlo(
            _config(
                n_iterations=500,
                shard_size=500,
                target_half_width=target,
                max_iterations=100_000,
            )
        )
        assert result.n_iterations > 500
        assert result.interval.half_width <= target

    def test_ceiling_respected_for_unreachable_target(self):
        result = run_monte_carlo(
            _config(
                n_iterations=500,
                shard_size=500,
                target_half_width=1e-12,
                max_iterations=2000,
            )
        )
        assert result.n_iterations == 2000
        assert result.interval.half_width > 1e-12

    def test_zero_variance_round_is_not_trusted(self):
        # A no-event first round has a zero-width interval; the loop must
        # keep sampling to the ceiling instead of declaring convergence.
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-12, hep=0.0),
            n_iterations=500,
            shard_size=500,
            horizon_hours=1000.0,
            seed=1,
            target_half_width=1e-3,
            max_iterations=2000,
        )
        result = run_monte_carlo(config)
        assert result.n_iterations == 2000
        assert result.interval.half_width == 0.0

    def test_adaptive_with_workers(self):
        first = run_monte_carlo(_config(n_iterations=500, shard_size=250))
        target = first.interval.half_width / 1.5
        result = run_monte_carlo(
            _config(
                n_iterations=500,
                shard_size=250,
                workers=2,
                target_half_width=target,
                max_iterations=50_000,
            )
        )
        assert result.interval.half_width <= target


class TestSeedEntropyReplay:
    def test_seed_entropy_recorded_on_all_paths(self):
        base = _config(n_iterations=200)
        assert run_monte_carlo(base).seed_entropy == 13
        assert run_monte_carlo_with_trace(base)[0].seed_entropy == 13
        assert run_monte_carlo(base.with_workers(2)).seed_entropy == 13

    def test_unseeded_run_replayable_from_recorded_entropy(self):
        config = _config(n_iterations=400, seed=None, workers=1, shard_size=200)
        first = run_monte_carlo(config)
        assert first.seed_entropy is not None
        replay = run_monte_carlo(
            _config(n_iterations=400, seed=first.seed_entropy, workers=1, shard_size=200)
        )
        assert replay.availability == first.availability
        assert replay.totals == first.totals

    def test_unseeded_runs_differ(self):
        config = _config(n_iterations=200, seed=None, shard_size=100)
        first = run_monte_carlo(config)
        second = run_monte_carlo(config)
        assert first.seed_entropy != second.seed_entropy

    def test_seed_entropy_serialised(self):
        payload = run_monte_carlo(_config(n_iterations=200)).as_dict()
        assert payload["seed_entropy"] == 13


class TestShardKernelEntry:
    def test_simulate_shard_uses_montecarlo_stream(self):
        # A shard's draws must equal a plain batch run seeded with the same
        # family — the shard entry only fixes *which* family is used.
        config = _config(n_iterations=300)
        policy = get_policy("conventional")
        family = RandomStreams(13).spawn_child(0)
        shard = policy.simulate_shard(config.params, config.horizon_hours, 300, family)
        direct = run_batch_lifetimes(config, streams=RandomStreams(13).spawn_child(0))
        assert np.array_equal(shard.availabilities(), direct.availabilities())

    def test_scalar_only_policy_falls_back_to_loop(self):
        config = _config(n_iterations=50)
        policy = _scalar_only_policy()
        family = RandomStreams(13).spawn_child(0)
        batch = policy.simulate_shard(config.params, config.horizon_hours, 50, family)
        assert len(batch) == 50
        assert np.all(batch.availabilities() <= 1.0)
