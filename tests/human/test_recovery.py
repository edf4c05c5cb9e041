"""Unit tests for the human error recovery model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import paper_parameters
from repro.distributions import Exponential
from repro.exceptions import HumanErrorModelError
from repro.human import HumanErrorRecoveryModel


class TestRecoveryModel:
    def test_mean_outstanding_time_geometric(self):
        model = HumanErrorRecoveryModel(hep=0.5, recovery_time=Exponential(1.0), crash_rate_per_hour=0.0)
        assert model.expected_outstanding_hours() == pytest.approx(2.0)
        certain_failure = HumanErrorRecoveryModel(hep=1.0, crash_rate_per_hour=0.0)
        assert certain_failure.expected_outstanding_hours() == float("inf")

    def test_sample_until_recovered_duration(self, rng):
        model = HumanErrorRecoveryModel(hep=0.0, recovery_time=Exponential(1.0), crash_rate_per_hour=0.0)
        durations = [model.sample_until_recovered(rng).duration_hours for _ in range(3000)]
        assert np.mean(durations) == pytest.approx(1.0, rel=0.1)

    def test_crash_dominates_when_rate_high(self, rng):
        model = HumanErrorRecoveryModel(hep=0.0, recovery_time=Exponential(0.001), crash_rate_per_hour=100.0)
        results = [model.sample_until_recovered(rng) for _ in range(300)]
        crash_fraction = sum(1 for r in results if r.disk_crashed) / len(results)
        assert crash_fraction > 0.9

    def test_no_crash_when_rate_zero(self, rng):
        model = HumanErrorRecoveryModel(hep=0.1, crash_rate_per_hour=0.0)
        assert model.sample_crash_time(rng) is None
        assert all(not model.sample_until_recovered(rng).disk_crashed for _ in range(200))

    def test_hep_one_raises_after_max_attempts(self, rng):
        model = HumanErrorRecoveryModel(hep=1.0, crash_rate_per_hour=0.0)
        with pytest.raises(HumanErrorModelError):
            model.sample_until_recovered(rng, max_attempts=5)

    def test_validation(self):
        with pytest.raises(HumanErrorModelError):
            HumanErrorRecoveryModel(hep=-0.1)
        with pytest.raises(HumanErrorModelError):
            HumanErrorRecoveryModel(hep=0.1, crash_rate_per_hour=-1.0)

    @pytest.mark.parametrize("hep", [0.1, 0.5])
    def test_repeated_error_frequency_matches_hep(self, rng, hep):
        model = HumanErrorRecoveryModel(hep=hep, crash_rate_per_hour=0.0)
        attempts = [model.sample_attempt(rng) for _ in range(4000)]
        repeated = sum(a.repeated_error for a in attempts) / len(attempts)
        assert repeated == pytest.approx(hep, abs=0.03)
        assert all(a.recovered != a.repeated_error for a in attempts)

    @pytest.mark.parametrize("hep", [0.2, 0.5])
    def test_sampled_outstanding_time_matches_expectation(self, rng, hep):
        model = HumanErrorRecoveryModel(hep=hep, recovery_time=Exponential(1.0), crash_rate_per_hour=0.0)
        durations = [model.sample_until_recovered(rng).duration_hours for _ in range(3000)]
        assert np.mean(durations) == pytest.approx(model.expected_outstanding_hours(), rel=0.1)

    def test_crash_probability_is_the_race(self, rng):
        # An Exponential(1) attempt loses to a rate-0.5 crash with
        # probability 0.5 / (1 + 0.5).
        model = HumanErrorRecoveryModel(hep=0.0, recovery_time=Exponential(1.0), crash_rate_per_hour=0.5)
        crashed = [model.sample_until_recovered(rng).disk_crashed for _ in range(3000)]
        assert np.mean(crashed) == pytest.approx(1.0 / 3.0, abs=0.04)

    def test_zero_hep_recovers_on_first_attempt(self, rng):
        model = HumanErrorRecoveryModel(hep=0.0, crash_rate_per_hour=0.0)
        attempts = [model.sample_attempt(rng) for _ in range(500)]
        assert all(a.recovered and not a.repeated_error for a in attempts)

    def test_defaults_are_the_paper_rates(self):
        model = HumanErrorRecoveryModel(hep=0.001)
        params = paper_parameters()
        assert model.recovery_time == params.human_error_recovery_distribution()
        assert model.mean_recovery_hours() == pytest.approx(1.0 / params.human_error_rate)
        assert model.crash_rate_per_hour == params.crash_rate
