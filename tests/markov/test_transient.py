"""Unit tests for transient analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.markov import (
    MarkovChain,
    State,
    Transition,
    interval_availability,
    point_availability,
    solve_steady_state_dense,
    transient_distribution_expm,
    transient_distribution_uniformization,
)


def two_state(failure=0.2, repair=1.0) -> MarkovChain:
    return MarkovChain(
        [State("UP"), State("DOWN", up=False)],
        [Transition("UP", "DOWN", failure), Transition("DOWN", "UP", repair)],
    )


class TestTransient:
    def test_matches_closed_form_two_state(self):
        failure, repair = 0.2, 1.0
        chain = two_state(failure, repair)
        times = [0.0, 0.5, 1.0, 5.0, 50.0]
        result = transient_distribution_uniformization(chain, times)
        total = failure + repair
        for i, t in enumerate(times):
            expected_up = repair / total + failure / total * math.exp(-total * t)
            assert result.probabilities[i, 0] == pytest.approx(expected_up, rel=1e-8)

    def test_expm_and_uniformization_agree(self):
        chain = two_state()
        times = np.linspace(0.0, 20.0, 11)
        a = transient_distribution_expm(chain, times)
        b = transient_distribution_uniformization(chain, times)
        assert np.allclose(a.probabilities, b.probabilities, atol=1e-8)

    def test_long_time_converges_to_steady_state(self):
        chain = two_state()
        pi = solve_steady_state_dense(chain)
        result = transient_distribution_uniformization(chain, [1000.0])
        assert result.probabilities[0, 0] == pytest.approx(pi["UP"], rel=1e-6)

    def test_rows_are_distributions(self):
        chain = two_state()
        result = transient_distribution_uniformization(chain, np.linspace(0, 10, 5))
        assert np.allclose(result.probabilities.sum(axis=1), 1.0)
        assert np.all(result.probabilities >= 0.0)

    def test_point_availability_starts_at_one(self):
        chain = two_state()
        out = point_availability(chain, [0.0, 1.0, 10.0])
        assert out["availability"][0] == pytest.approx(1.0)
        assert np.all(np.diff(out["availability"]) <= 1e-12)

    def test_interval_availability_between_point_values(self):
        chain = two_state()
        interval = interval_availability(chain, horizon_hours=10.0)
        steady = solve_steady_state_dense(chain)["UP"]
        assert steady <= interval <= 1.0

    def test_invalid_inputs(self):
        chain = two_state()
        with pytest.raises(SolverError):
            transient_distribution_uniformization(chain, [])
        with pytest.raises(SolverError):
            transient_distribution_expm(chain, [-1.0])
        with pytest.raises(SolverError):
            point_availability(chain, [1.0], method="nope")
        with pytest.raises(SolverError):
            interval_availability(chain, horizon_hours=0.0)

    def test_result_accessors(self):
        chain = two_state()
        result = transient_distribution_uniformization(chain, [1.0, 2.0])
        assert result.probability_of("UP").shape == (2,)
        with pytest.raises(SolverError):
            result.probability_of("MISSING")
        downtime = result.expected_downtime_hours([True, False])
        assert downtime >= 0.0


class TestTransientGridReuse:
    """The grid-level reuse optimisations must not change the answers."""

    def test_uniform_grid_matches_per_time_expm(self):
        chain = two_state()
        times = np.linspace(0.0, 40.0, 60)
        fast = transient_distribution_expm(chain, times)
        slow = transient_distribution_expm(chain, times, uniform_grid=False)
        assert np.max(np.abs(fast.probabilities - slow.probabilities)) < 1e-10

    def test_uniform_grid_not_starting_at_zero(self):
        chain = two_state()
        times = np.linspace(3.0, 30.0, 28)
        fast = transient_distribution_expm(chain, times)
        slow = transient_distribution_expm(chain, times, uniform_grid=False)
        assert np.max(np.abs(fast.probabilities - slow.probabilities)) < 1e-10

    def test_non_uniform_grid_falls_back(self):
        chain = two_state()
        times = [0.0, 1.0, 2.0, 10.0, 50.0]
        auto = transient_distribution_expm(chain, times)
        slow = transient_distribution_expm(chain, times, uniform_grid=False)
        assert np.array_equal(auto.probabilities, slow.probabilities)

    def test_forced_uniform_on_ragged_grid_rejected(self):
        with pytest.raises(SolverError):
            transient_distribution_expm(
                two_state(), [0.0, 1.0, 5.0], uniform_grid=True
            )

    def test_uniformization_shared_powers_match_per_time_loop(self):
        # The shared p0 @ P^k sequence is the same matvec chain the old
        # per-time loop walked, so the grid result must agree with solving
        # every time on its own (separate calls rebuild the sequence).
        chain = two_state()
        times = [0.5, 2.0, 7.5, 20.0]
        together = transient_distribution_uniformization(chain, times)
        for k, t in enumerate(times):
            alone = transient_distribution_uniformization(chain, [t])
            assert np.array_equal(together.probabilities[k], alone.probabilities[0])

    def test_uniformization_terminates_on_weight_plateau(self):
        # Large Lambda*t used to loop to max_terms when the accumulated
        # Poisson mass plateaued a few ulps below 1 - tolerance; the tail
        # bound now terminates the series.  Regression for the fail-over
        # chain at ~1150 hours (Lambda*t ~ 2.4e3).
        from repro.core.models import build_failover_chain
        from repro.core.parameters import paper_parameters

        chain = build_failover_chain(paper_parameters(disk_failure_rate=1e-6, hep=0.01))
        result = transient_distribution_uniformization(chain, [1150.2])
        assert np.isfinite(result.probabilities).all()
        expm = transient_distribution_expm(chain, [1150.2])
        assert np.max(np.abs(result.probabilities - expm.probabilities)) < 1e-9
