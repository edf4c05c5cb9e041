"""Property-based tests for the Markov engine (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import (
    MarkovChain,
    State,
    Transition,
    solve_steady_state_dense,
    steady_state_availability,
)

RATE = st.floats(min_value=1e-7, max_value=10.0, allow_nan=False, allow_infinity=False)


def _ring_chain(rates):
    """Build a ring of states, which is always irreducible."""
    n = len(rates)
    states = [State(f"S{i}", up=(i == 0)) for i in range(n)]
    transitions = [Transition(f"S{i}", f"S{(i + 1) % n}", rates[i]) for i in range(n)]
    return MarkovChain(states, transitions)


@given(rates=st.lists(RATE, min_size=2, max_size=8))
@settings(max_examples=60)
def test_stationary_distribution_is_probability_vector(rates):
    chain = _ring_chain(rates)
    pi = solve_steady_state_dense(chain)
    values = np.array(list(pi.values()))
    assert np.all(values >= -1e-12)
    np.testing.assert_allclose(values.sum(), 1.0, rtol=1e-9)


@given(rates=st.lists(RATE, min_size=2, max_size=8))
@settings(max_examples=60)
def test_stationary_distribution_satisfies_balance(rates):
    chain = _ring_chain(rates)
    pi = solve_steady_state_dense(chain)
    vec = np.array([pi[name] for name in chain.state_names])
    residual = vec @ chain.generator_matrix()
    scale = max(1.0, float(np.max(np.abs(chain.generator_matrix()))))
    assert np.max(np.abs(residual)) <= 1e-8 * scale


@given(rates=st.lists(RATE, min_size=2, max_size=6))
@settings(max_examples=60)
def test_generator_rows_sum_to_zero(rates):
    chain = _ring_chain(rates)
    np.testing.assert_allclose(chain.generator_matrix().sum(axis=1), 0.0, atol=1e-12)


@given(rates=st.lists(RATE, min_size=2, max_size=6))
@settings(max_examples=40)
def test_availability_in_unit_interval(rates):
    chain = _ring_chain(rates)
    result = steady_state_availability(chain)
    assert 0.0 <= result.availability <= 1.0
    assert 0.0 <= result.unavailability <= 1.0


@given(
    failure=st.floats(min_value=1e-8, max_value=0.1),
    repair=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=60)
def test_two_state_closed_form(failure, repair):
    chain = MarkovChain(
        [State("UP"), State("DOWN", up=False)],
        [Transition("UP", "DOWN", failure), Transition("DOWN", "UP", repair)],
    )
    result = steady_state_availability(chain)
    np.testing.assert_allclose(result.availability, repair / (failure + repair), rtol=1e-8)
