"""Tests for the policy registry and the vectorised batch executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    replay_trace_on_engine,
    run_batch,
    run_monte_carlo,
    run_monte_carlo_with_trace,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import (
    BatchLifetimes,
    SimulationPolicy,
    available_policies,
    get_policy,
    hot_spare_policy,
    register_policy,
    resolve_policy,
    simulate_hot_spare,
    unregister_policy,
)
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind


def _intervals_overlap(a, b) -> bool:
    return max(a.interval.lower, b.interval.lower) <= min(a.interval.upper, b.interval.upper)


FAST_PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = available_policies()
        assert {"conventional", "automatic_failover", "hot_spare_pool"} <= set(names)

    def test_resolve_accepts_enum_string_and_instance(self):
        by_enum = resolve_policy(PolicyKind.CONVENTIONAL)
        by_name = resolve_policy("conventional")
        assert by_enum is by_name
        assert resolve_policy(by_name) is by_name

    def test_register_and_unregister_custom_policy(self):
        custom = SimulationPolicy(
            name="custom_test_policy",
            description="registered by the test suite",
            scalar=get_policy("conventional").scalar,
        )
        try:
            register_policy(custom)
            assert get_policy("custom_test_policy") is custom
            assert not get_policy("custom_test_policy").has_batch_kernel
            with pytest.raises(ConfigurationError):
                register_policy(custom)  # duplicate name
            register_policy(custom, replace=True)  # explicit override is fine
        finally:
            unregister_policy("custom_test_policy")
        with pytest.raises(ConfigurationError):
            get_policy("custom_test_policy")

    def test_unknown_policy_from_runner(self):
        config = MonteCarloConfig(params=paper_parameters(), n_iterations=2)
        object.__setattr__(config, "policy", "bogus")
        with pytest.raises(ConfigurationError):
            run_monte_carlo(config)

    def test_unknown_policy_error_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="conventional"):
            get_policy("not_a_policy")

    def test_resolve_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            resolve_policy(object())


class TestConfigExecutor:
    def test_policy_name_property(self):
        assert MonteCarloConfig(policy=PolicyKind.CONVENTIONAL).policy_name == "conventional"
        assert MonteCarloConfig(policy="hot_spare_pool").policy_name == "hot_spare_pool"
        assert MonteCarloConfig(policy=hot_spare_policy(3)).policy_name == "hot_spare_pool_k3"


class TestScalarBatchAgreement:
    """The scalar reference loop and the batch kernel are different samplers
    of the same model: at a fixed parameter set their 99% confidence
    intervals must overlap."""

    @pytest.mark.parametrize(
        "policy", [PolicyKind.CONVENTIONAL, PolicyKind.AUTOMATIC_FAILOVER, "hot_spare_pool"]
    )
    def test_availability_intervals_overlap(self, policy):
        config = MonteCarloConfig(
            params=FAST_PARAMS,
            policy=policy,
            n_iterations=2500,
            horizon_hours=87_600.0,
            seed=42,
        )
        scalar = run_monte_carlo_with_trace(config)[0]
        batch = run_monte_carlo(config)
        assert scalar.unavailability > 0.0
        assert batch.unavailability > 0.0
        assert _intervals_overlap(scalar, batch)
        # Event rates agree to a loose tolerance as well.
        assert batch.totals["disk_failures"] == pytest.approx(
            scalar.totals["disk_failures"], rel=0.1
        )

    def test_batch_reproducible_with_seed(self):
        config = MonteCarloConfig(
            params=FAST_PARAMS, n_iterations=500, horizon_hours=50_000.0, seed=7,
        )
        first = run_monte_carlo(config)
        second = run_monte_carlo(config)
        assert first.availability == second.availability
        assert first.totals == second.totals


class TestBatchLifetimes:
    def test_zeros_and_conversion(self):
        batch = BatchLifetimes.zeros(3, 100.0)
        batch.downtime_hours[1] = 5.0
        batch.dl_events[1] = 1
        results = batch.to_iteration_results()
        assert len(results) == 3
        assert results[1].availability == pytest.approx(0.95)
        assert batch.totals()["dl_events"] == 1.0
        assert np.allclose(batch.availabilities(), [1.0, 0.95, 1.0])

    def test_scalar_fallback_for_policies_without_kernel(self):
        no_kernel = SimulationPolicy(
            name="scalar_only",
            description="no batch kernel",
            scalar=get_policy("conventional").scalar,
        )
        config = MonteCarloConfig(
            params=FAST_PARAMS, policy=no_kernel, n_iterations=50,
            horizon_hours=20_000.0, seed=3,
        )
        result = run_batch(config)
        assert result.n_iterations == 50
        assert 0.0 <= result.availability <= 1.0


class TestHotSparePolicy:
    def test_runs_end_to_end_via_registry(self):
        config = MonteCarloConfig(
            params=FAST_PARAMS, policy="hot_spare_pool", n_iterations=300,
            horizon_hours=50_000.0, seed=5,
        )
        result = run_monte_carlo(config)
        assert 0.0 < result.availability <= 1.0
        assert result.totals["disk_failures"] > 0

    def test_custom_pool_size_factory(self):
        policy = hot_spare_policy(4)
        assert policy.n_spares == 4
        assert policy.has_batch_kernel
        config = MonteCarloConfig(
            params=FAST_PARAMS, policy=policy, n_iterations=200,
            horizon_hours=20_000.0, seed=5,
        )
        assert 0.0 < run_monte_carlo(config).availability <= 1.0

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ConfigurationError):
            hot_spare_policy(0)

    def test_scalar_simulator_traces(self, rng):
        from repro.core.montecarlo import EpisodeTrace

        trace = EpisodeTrace()
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.1)
        result = simulate_hot_spare(params, 100_000.0, rng, trace=trace, n_spares=2)
        assert result.disk_failures > 0
        assert "disk_failure" in set(trace.kinds())

    def test_more_spares_do_not_hurt_under_slow_restock(self):
        # With slow restocking visits, a deeper pool must not lose
        # availability relative to single-spare fail-over (statistically).
        from dataclasses import replace

        params = replace(
            paper_parameters(disk_failure_rate=2e-4, hep=0.02),
            spare_replacement_rate=0.005,
        )
        base = MonteCarloConfig(
            params=params, n_iterations=4000, horizon_hours=87_600.0, seed=13,
        )
        failover = run_monte_carlo(base.with_policy(PolicyKind.AUTOMATIC_FAILOVER))
        pooled = run_monte_carlo(base.with_policy(hot_spare_policy(3)))
        assert pooled.unavailability <= failover.unavailability * 1.25


class TestEngineBridge:
    def test_trace_replays_on_engine(self):
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-3, hep=0.1),
            n_iterations=10, horizon_hours=20_000.0, seed=2,
        )
        result, trace = run_monte_carlo_with_trace(config)
        assert len(trace) > 0
        engine = replay_trace_on_engine(trace, horizon_hours=config.horizon_hours)
        assert engine.events_processed == len(trace)
        kinds = [record.kind for record in engine.trace]
        assert kinds == trace.kinds()
        times = [record.time for record in engine.trace]
        assert times == sorted(times)
        assert result.n_iterations == 10
