"""Unit tests for the Monte Carlo availability model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import analytical_result
from repro.core.montecarlo import (
    EpisodeTrace,
    MonteCarloConfig,
    generate_example_trace,
    render_timeline,
    run_monte_carlo,
    run_monte_carlo_with_trace,
    simulate_conventional,
    summarise_trace,
)
from repro.core.montecarlo.results import IterationResult, merge_iteration_counters
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy
from repro.exceptions import ConfigurationError, SimulationError
from repro.human.policy import PolicyKind


class TestIterationResult:
    def test_availability_from_downtime(self):
        result = IterationResult(horizon_hours=100.0, downtime_hours=5.0)
        assert result.availability == pytest.approx(0.95)
        assert result.uptime_hours == pytest.approx(95.0)

    def test_downtime_clipped_to_horizon(self):
        result = IterationResult(horizon_hours=100.0, downtime_hours=150.0)
        assert result.availability == 0.0

    def test_merge_counters(self):
        totals = merge_iteration_counters(
            [
                IterationResult(10.0, downtime_hours=1.0, du_events=1, disk_failures=2),
                IterationResult(10.0, downtime_hours=2.0, dl_events=1, human_errors=1),
            ]
        )
        assert totals["downtime_hours"] == pytest.approx(3.0)
        assert totals["du_events"] == 1 and totals["dl_events"] == 1
        assert totals["disk_failures"] == 2 and totals["human_errors"] == 1


class TestConventionalSimulator:
    def test_no_failures_when_rate_tiny(self, rng):
        params = paper_parameters(disk_failure_rate=1e-12)
        result = simulate_conventional(params, 1000.0, rng)
        assert result.disk_failures == 0
        assert result.downtime_hours == 0.0
        assert result.availability == 1.0

    def test_failures_occur_at_high_rate(self, rng):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.0)
        result = simulate_conventional(params, 50_000.0, rng)
        assert result.disk_failures > 10

    def test_no_human_errors_when_hep_zero(self, rng):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.0)
        result = simulate_conventional(params, 100_000.0, rng)
        assert result.human_errors == 0
        assert result.du_events == 0

    def test_human_errors_roughly_hep_fraction_of_failures(self, rng):
        params = paper_parameters(disk_failure_rate=5e-4, hep=0.2)
        totals_failures, totals_errors = 0, 0
        for _ in range(60):
            result = simulate_conventional(params, 50_000.0, rng)
            totals_failures += result.disk_failures
            totals_errors += result.human_errors
        assert totals_failures > 500
        ratio = totals_errors / totals_failures
        # Human errors attach to successful replacements, slightly fewer than failures.
        assert ratio == pytest.approx(0.2, abs=0.05)

    def test_downtime_recorded_for_data_loss(self, rng):
        params = paper_parameters(disk_failure_rate=5e-3, hep=0.0)
        result = simulate_conventional(params, 100_000.0, rng)
        assert result.dl_events > 0
        assert result.downtime_hours > 0.0

    def test_invalid_horizon(self, rng):
        with pytest.raises(SimulationError):
            simulate_conventional(paper_parameters(), 0.0, rng)

    def test_trace_records_events(self, rng):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.3)
        trace = EpisodeTrace()
        simulate_conventional(params, 100_000.0, rng, trace=trace)
        kinds = set(trace.kinds())
        assert "disk_failure" in kinds
        assert kinds & {"rebuild_complete", "human_error", "data_loss"}


class TestFailoverSimulator:
    def test_no_downtime_without_failures(self, rng):
        params = paper_parameters(disk_failure_rate=1e-12)
        result = get_policy("automatic_failover").simulate(params, 1000.0, rng)
        assert result.downtime_hours == 0.0

    def test_runs_with_high_rates(self, rng):
        params = paper_parameters(disk_failure_rate=1e-3, hep=0.05)
        result = get_policy("automatic_failover").simulate(params, 50_000.0, rng)
        assert result.disk_failures > 0

    def test_failover_downtime_below_conventional(self):
        # At a high failure rate and hep, the fail-over policy must show
        # clearly less downtime than the conventional policy.
        params = paper_parameters(disk_failure_rate=2e-4, hep=0.1)
        conv_config = MonteCarloConfig(
            params=params, policy=PolicyKind.CONVENTIONAL,
            n_iterations=1500, horizon_hours=87_600.0, seed=11,
        )
        fo_config = conv_config.with_policy(PolicyKind.AUTOMATIC_FAILOVER)
        conventional = run_monte_carlo(conv_config)
        failover = run_monte_carlo(fo_config)
        assert failover.unavailability < conventional.unavailability


class TestRunner:
    def test_reproducible_with_seed(self):
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-4, hep=0.05),
            n_iterations=300, horizon_hours=50_000.0, seed=7,
        )
        first = run_monte_carlo(config)
        second = run_monte_carlo(config)
        assert first.availability == pytest.approx(second.availability, rel=0.0)
        assert first.totals == second.totals

    def test_different_seeds_differ(self):
        base = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=2e-4, hep=0.05),
            n_iterations=300, horizon_hours=50_000.0, seed=1,
        )
        other = base.with_seed(2)
        assert run_monte_carlo(base).totals != run_monte_carlo(other).totals

    def test_agreement_with_markov_at_exaggerated_rates(self):
        # Fast version of the paper's Fig. 4 cross-validation.
        params = paper_parameters(disk_failure_rate=1e-4, hep=0.05)
        markov = analytical_result(params, "conventional")
        mc = run_monte_carlo(
            MonteCarloConfig(params=params, n_iterations=4000, horizon_hours=87_600.0, seed=3)
        )
        assert mc.unavailability == pytest.approx(markov.unavailability, rel=0.25)

    def test_result_accessors(self):
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-4, hep=0.05),
            n_iterations=500, horizon_hours=50_000.0, seed=5,
        )
        result = run_monte_carlo(config)
        assert 0.0 <= result.unavailability <= 1.0
        assert result.nines > 0.0
        low, high = result.nines_interval
        assert low <= result.nines <= high or np.isclose(low, high)
        assert result.mean_downtime_hours_per_run() >= 0.0
        payload = result.as_dict()
        assert payload["n_iterations"] == 500

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(n_iterations=1)
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(horizon_hours=-1.0)
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(confidence=1.5)

    def test_run_with_trace(self):
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-3, hep=0.1),
            n_iterations=10, horizon_hours=20_000.0, seed=2,
        )
        result, trace = run_monte_carlo_with_trace(config)
        assert result.n_iterations == 10
        assert len(trace) > 0

    def test_unknown_policy_rejected(self):
        config = MonteCarloConfig(params=paper_parameters(), n_iterations=2)
        object.__setattr__(config, "policy", "bogus")
        with pytest.raises(ConfigurationError):
            run_monte_carlo(config)


class TestExampleTrace:
    def test_example_trace_contains_notable_events(self):
        trace = generate_example_trace(seed=3)
        summary = summarise_trace(trace)
        assert summary["disk_failures"] >= 1
        assert summary["human_errors"] + summary["data_losses"] >= 1

    def test_render_timeline(self):
        trace = generate_example_trace(seed=3)
        text = render_timeline(trace)
        assert "disk_failure" in text
        assert "time (h)" in text

    def test_trace_render_and_len(self):
        trace = generate_example_trace(seed=3)
        assert len(trace.render().splitlines()) == len(trace)
