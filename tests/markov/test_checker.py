"""Unit tests for the periodic check/repair cycle solver.

:data:`RETIRED_CHECKER` keeps the one-matrix ``cycle_start_distribution``
that the stack-aware solver replaced, verbatim, as the oracle the batched
solve must reproduce byte for byte (``tests/core/test_sweep_engine.py``
and ``benchmarks/bench_sweep.py`` patch it back in).
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from repro.core.parameters import paper_parameters
from repro.core.policies.erasure import build_erasure_decay_chain, erasure_policy
from repro.exceptions import ConfigurationError, SolverError
from repro.markov.checker import (
    _RESIDUAL_TOLERANCE,
    DOWN_STATE,
    chain_cycle_operator,
    check_repair_matrix,
    cycle_operator,
    cycle_start_distribution,
    cycle_stationary_availability,
    share_state_name,
    survival_curve,
)
from repro.storage.raid import RaidGeometry

MONTH = 730.0


def _retired_cycle_start_distribution(cycle_matrix: np.ndarray) -> np.ndarray:
    """Solve the fixed point ``phi = phi @ cycle_matrix``, ``phi . 1 = 1``.

    ``cycle_matrix`` is the full-cycle stochastic matrix ``M @ D``.  The
    dense solve replaces one equation of the rank-deficient system with the
    normalisation row; the result is clipped to ``[0, 1]``, renormalised,
    and checked against the fixed-point residual.
    """
    matrix = np.asarray(cycle_matrix, dtype=float)
    n = matrix.shape[0]
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        phi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cycle-stationary solve failed: {exc}") from None
    phi = np.clip(phi, 0.0, 1.0)
    total = phi.sum()
    if total <= 0.0:
        raise SolverError("cycle-stationary solve produced a zero distribution")
    phi = phi / total
    residual = float(np.max(np.abs(phi @ matrix - phi)))
    if residual > _RESIDUAL_TOLERANCE:
        raise SolverError(
            f"cycle-stationary fixed point residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOLERANCE:.0e}"
        )
    return phi


#: The one-matrix checker functions the batched solve replaced, by name.
RETIRED_CHECKER = {"cycle_start_distribution": _retired_cycle_start_distribution}

#: ``(k, N, repair_threshold)`` of the oracle cases: both thresholds of the
#: 3-of-10 store, narrow and wide schemes, and k == N.
ORACLE_SCHEMES = [(3, 10, 7), (3, 10, 8), (2, 4, 4), (6, 9, 9), (4, 4, 4)]
ORACLE_RATES = [1e-6, 1e-4, 1e-3]
ORACLE_PERIODS = [24.0, MONTH, 8760.0]
ORACLE_HEPS = [i / 10 for i in range(11)]


def erasure_params(k, n, rate=1e-4, hep=0.0):
    return paper_parameters(
        geometry=RaidGeometry.erasure(k, n), disk_failure_rate=rate, hep=hep
    )


def decay_chain(k, n, rate=1e-4):
    params = erasure_params(k, n, rate=rate)
    return build_erasure_decay_chain(params), params


class TestCheckRepairMatrix:
    def test_rows_are_stochastic(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        assert np.all(d >= 0.0)
        np.testing.assert_allclose(d.sum(axis=1), 1.0, atol=1e-15)

    def test_above_threshold_rows_are_identity(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        for s in range(7, 11):
            i = chain.index_of(share_state_name(s))
            row = np.zeros(chain.n_states)
            row[i] = 1.0
            np.testing.assert_array_equal(d[i], row)

    def test_degraded_rows_repair_with_botch_risk(self):
        chain, _ = decay_chain(3, 10)
        hep = 0.1
        d = check_repair_matrix(chain, 10, 3, 7, hep=hep)
        full = chain.index_of(share_state_name(10))
        botched = chain.index_of(share_state_name(9))
        for s in range(3, 7):
            i = chain.index_of(share_state_name(s))
            assert d[i, full] == pytest.approx(1.0 - hep)
            assert d[i, botched] == pytest.approx(hep)
            assert d[i].sum() == pytest.approx(1.0)

    def test_down_row_restores_with_botch_risk(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.25)
        down = chain.index_of(DOWN_STATE)
        assert d[down, chain.index_of(share_state_name(10))] == pytest.approx(0.75)
        assert d[down, chain.index_of(share_state_name(9))] == pytest.approx(0.25)

    def test_botched_restore_of_k_equals_n_scheme_stays_down(self):
        # With k == N a botched run leaves N - 1 < k shares: straight to DOWN.
        chain, _ = decay_chain(3, 3)
        d = check_repair_matrix(chain, 3, 3, 3, hep=0.2)
        down = chain.index_of(DOWN_STATE)
        assert d[down, chain.index_of(share_state_name(3))] == pytest.approx(0.8)
        assert d[down, down] == pytest.approx(0.2)

    def test_reliability_mode_leaves_down_absorbing(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1, restore_from_down=False)
        down = chain.index_of(DOWN_STATE)
        row = np.zeros(chain.n_states)
        row[down] = 1.0
        np.testing.assert_array_equal(d[down], row)

    def test_hep_zero_repairs_deterministically(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 10, hep=0.0)
        full = chain.index_of(share_state_name(10))
        for s in range(3, 10):
            assert d[chain.index_of(share_state_name(s)), full] == 1.0

    @pytest.mark.parametrize(
        "k,threshold,n",
        [(0, 7, 10), (3, 2, 10), (3, 11, 10), (8, 7, 10)],
    )
    def test_invalid_ordering_rejected(self, k, threshold, n):
        chain, _ = decay_chain(3, 10)
        with pytest.raises(SolverError):
            check_repair_matrix(chain, n, k, threshold, hep=0.1)

    @pytest.mark.parametrize("hep", [-0.1, 1.5])
    def test_invalid_hep_rejected(self, hep):
        chain, _ = decay_chain(3, 10)
        with pytest.raises(SolverError):
            check_repair_matrix(chain, 10, 3, 7, hep=hep)

    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES)
    @pytest.mark.parametrize("restore_from_down", [True, False])
    def test_hep_column_stacks_the_scalar_matrices(self, scheme, restore_from_down):
        k, n, threshold = scheme
        chain, _ = decay_chain(k, n)
        heps = np.array(ORACLE_HEPS + [1e-4, 1 / 3])
        stack = check_repair_matrix(chain, n, k, threshold, heps, restore_from_down)
        assert stack.shape == (heps.size, chain.n_states, chain.n_states)
        for hep, member in zip(heps.tolist(), stack):
            single = check_repair_matrix(chain, n, k, threshold, hep, restore_from_down)
            assert member.tobytes() == single.tobytes()

    def test_invalid_hep_in_a_column_rejected(self):
        chain, _ = decay_chain(3, 10)
        with pytest.raises(SolverError):
            check_repair_matrix(chain, 10, 3, 7, np.array([0.1, 1.5]))


class TestCycleOperator:
    def test_transport_rows_are_stochastic(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        m, _ = cycle_operator(chain.generator_matrix(), MONTH)
        assert np.all(m >= -1e-15)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_occupancy_rows_sum_to_period(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        _, occ = cycle_operator(chain.generator_matrix(), MONTH)
        np.testing.assert_allclose(occ.sum(axis=1), MONTH, rtol=1e-12)

    def test_transport_matches_binomial_closed_form(self):
        # For the pure-death share chain the count after T is binomial:
        # P(s -> t) = C(s, t) p^t (1 - p)^(s - t) with p = exp(-lambda T),
        # for k <= t <= s, and DOWN absorbs the remainder.
        rate, k, n = 1e-3, 3, 10
        chain, _ = decay_chain(k, n, rate=rate)
        m, _ = cycle_operator(chain.generator_matrix(), MONTH)
        p = math.exp(-rate * MONTH)
        for s in range(k, n + 1):
            i = chain.index_of(share_state_name(s))
            for t in range(k, s + 1):
                expected = math.comb(s, t) * p**t * (1.0 - p) ** (s - t)
                assert m[i, chain.index_of(share_state_name(t))] == pytest.approx(
                    expected, rel=1e-10
                )

    def test_invalid_period_rejected(self):
        chain, _ = decay_chain(3, 10)
        for period in (0.0, -5.0, math.inf, math.nan):
            with pytest.raises(SolverError):
                cycle_operator(chain.generator_matrix(), period)

    def test_non_square_generator_rejected(self):
        with pytest.raises(SolverError):
            cycle_operator(np.zeros((3, 2)), MONTH)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1e-4])
    def test_non_finite_or_negative_rate_rejected(self, value):
        q = decay_chain(3, 10)[0].generator_matrix()
        q[0, 2] = value
        with pytest.raises(SolverError):
            cycle_operator(q, MONTH)

    def test_zero_generator_is_the_identity(self):
        m, occ = cycle_operator(np.zeros((3, 3)), MONTH)
        np.testing.assert_array_equal(m, np.eye(3))
        np.testing.assert_array_equal(occ, MONTH * np.eye(3))


#: ``(k, N, repair_threshold)`` of the exact-operator cases.
EXACT_SCHEMES = [(3, 10, 8), (3, 10, 7), (2, 4, 3), (6, 9, 8)]


def exact_cycle_operator(chain, k, n, rate, period):
    """Return ``(M, OCC)`` of a k-of-N decay chain from 80-digit decimals.

    Each of ``s`` live shares survives the period independently with
    probability ``p = exp(-rate T)``, so ``M[s, t]`` is the binomial term
    ``C(s, t) p^t (1 - p)^(s - t)`` for ``t >= k`` and ``DOWN`` collects
    every ``t < k``.  ``OCC`` integrates the same terms over ``[0, T]``:
    expanding ``(1 - e^(-rate u))^(s - t)`` binomially turns each into a sum
    of exponential integrals, and 80 digits absorb the cancellation of that
    alternating sum.  ``rate`` is taken exactly as its float64 value.
    """
    size = chain.n_states
    down = chain.index_of(DOWN_STATE)
    m = [[Decimal(0)] * size for _ in range(size)]
    occ = [[Decimal(0)] * size for _ in range(size)]
    with localcontext() as ctx:
        ctx.prec = 80
        lam, t_end = Decimal(rate), Decimal(period)
        decay = [(-c * lam * t_end).exp() for c in range(n + 1)]
        integral = [t_end] + [(1 - decay[c]) / (c * lam) for c in range(1, n + 1)]
        m[down][down], occ[down][down] = Decimal(1), t_end
        for s in range(k, n + 1):
            i = chain.index_of(share_state_name(s))
            for t in range(s + 1):
                j = chain.index_of(share_state_name(t)) if t >= k else down
                m[i][j] += math.comb(s, t) * decay[1] ** t * (1 - decay[1]) ** (s - t)
                occ[i][j] += math.comb(s, t) * sum(
                    math.comb(s - t, r) * (-1) ** r * integral[t + r]
                    for r in range(s - t + 1)
                )
    return m, occ


class TestCycleOperatorExact:
    """Every entry of ``(M, OCC)`` to a few ulps, however small it is."""

    @pytest.mark.parametrize(
        ("scheme", "rate", "period"),
        list(itertools.product(EXACT_SCHEMES, ORACLE_RATES, ORACLE_PERIODS)),
    )
    def test_operator_matches_exact_oracle(self, scheme, rate, period):
        k, n, threshold = scheme
        policy = erasure_policy(k, n, repair_threshold=threshold, check_period_hours=period)
        chain = policy.build_chain(erasure_params(k, n, rate=rate))
        got = chain_cycle_operator(chain, period)
        for operator, exact in zip(got, exact_cycle_operator(chain, k, n, rate, period)):
            for row, exact_row in zip(operator.tolist(), exact):
                for value, want in zip(row, exact_row):
                    if want == 0:
                        assert value == 0.0
                    else:
                        assert abs(Decimal(value) - want) / want <= Decimal("1e-13")


class TestCycleStartDistribution:
    def test_fixed_point_of_identity_free_cycle(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        m, _ = cycle_operator(chain.generator_matrix(), MONTH)
        d = check_repair_matrix(chain, 10, 3, 10, hep=0.05)
        phi = cycle_start_distribution(m @ d)
        assert phi.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(phi @ (m @ d), phi, atol=1e-10)


class TestStackedCycleStartDistribution:
    """The stack-aware solve returns the retired one-matrix solve's bytes."""

    @staticmethod
    def _cycles(scheme, rate, period):
        k, n, threshold = scheme
        chain, _ = decay_chain(k, n, rate=rate)
        m, _ = chain_cycle_operator(chain, period)
        return [
            m @ check_repair_matrix(chain, n, k, threshold, hep) for hep in ORACLE_HEPS
        ]

    @pytest.mark.parametrize(
        ("scheme", "rate", "period"),
        list(itertools.product(ORACLE_SCHEMES, ORACLE_RATES, ORACLE_PERIODS)),
    )
    def test_matrix_and_stack_members_match_the_oracle(self, scheme, rate, period):
        cycles = self._cycles(scheme, rate, period)
        expected = [_retired_cycle_start_distribution(c) for c in cycles]
        stacked = cycle_start_distribution(np.stack(cycles))
        assert stacked.shape == (len(cycles), cycles[0].shape[0])
        for cycle, want, member in zip(cycles, expected, stacked):
            single = cycle_start_distribution(cycle)
            assert single.shape == want.shape
            assert single.tobytes() == want.tobytes()
            assert member.tobytes() == want.tobytes()

    def test_clipping_is_exercised(self):
        # Several oracle cases solve to tiny negative masses, so the clip
        # before the renormalisation shapes the bytes compared above.
        cycles = self._cycles((3, 10, 8), 1e-6, 24.0)
        raw = []
        for cycle in cycles:
            a = cycle.T - np.eye(cycle.shape[0])
            a[-1, :] = 1.0
            raw.append(np.linalg.solve(a, np.eye(cycle.shape[0])[-1]))
        assert np.min(raw) < 0.0

    def test_singular_member_raises(self):
        cycles = self._cycles((3, 10, 7), 1e-4, MONTH)[:3]
        # The identity cycle leaves every distribution fixed: no unique phi.
        stack = np.stack(cycles[:1] + [np.eye(cycles[0].shape[0])] + cycles[1:])
        with pytest.raises(SolverError, match="solve failed"):
            cycle_start_distribution(stack)
        with pytest.raises(SolverError, match="solve failed"):
            cycle_start_distribution(stack[1])

    def test_member_failing_the_residual_check_raises(self):
        cycles = self._cycles((2, 4, 4), 1e-4, MONTH)[:2]
        # A leaky (sub-stochastic) cycle solves, but phi is not a fixed point.
        leaky = 0.9 * np.eye(cycles[0].shape[0])
        stack = np.stack([cycles[0], leaky, cycles[1]])
        with pytest.raises(SolverError, match="residual"):
            cycle_start_distribution(stack)
        with pytest.raises(SolverError, match="residual"):
            cycle_start_distribution(leaky)


class TestCycleStationaryAvailability:
    def test_result_is_self_consistent(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        result = cycle_stationary_availability(chain, d, MONTH)
        assert 0.0 < result.availability < 1.0
        assert result.cycle_start.sum() == pytest.approx(1.0)
        assert result.occupancy_hours.sum() == pytest.approx(MONTH)
        assert result.state_names == chain.state_names
        down = list(chain.state_names).index(DOWN_STATE)
        expected = 1.0 - result.occupancy_hours[down] / MONTH
        assert result.availability == pytest.approx(expected)

    def test_uniformization_agrees_with_expm(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        exact = cycle_stationary_availability(chain, d, MONTH, method="expm")
        reference = cycle_stationary_availability(
            chain, d, MONTH, method="uniformization"
        )
        # The reference integrates occupancy by trapezoid over a 201-point
        # grid, so agreement is quadrature-limited rather than exact.
        assert reference.availability == pytest.approx(
            exact.availability, abs=1e-5
        )
        np.testing.assert_allclose(
            reference.cycle_start, exact.cycle_start, atol=1e-6
        )

    def test_longer_period_never_improves_availability(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        d = check_repair_matrix(chain, 10, 3, 10, hep=0.1)
        availabilities = [
            cycle_stationary_availability(chain, d, period).availability
            for period in (24.0, MONTH, 8760.0)
        ]
        assert availabilities == sorted(availabilities, reverse=True)

    def test_lazier_repair_threshold_never_improves_availability(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        eager = check_repair_matrix(chain, 10, 3, 10, hep=0.1)
        lazy = check_repair_matrix(chain, 10, 3, 4, hep=0.1)
        assert (
            cycle_stationary_availability(chain, eager, MONTH).availability
            >= cycle_stationary_availability(chain, lazy, MONTH).availability
        )

    def test_repair_shape_mismatch_rejected(self):
        chain, _ = decay_chain(3, 10)
        with pytest.raises(SolverError):
            cycle_stationary_availability(chain, np.eye(3), MONTH)

    def test_unknown_method_rejected(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        with pytest.raises(SolverError):
            cycle_stationary_availability(chain, d, MONTH, method="magic")


class TestSurvivalCurve:
    """Tahoe-parity fixture: the reliability trajectory of a 3-of-10 store.

    The reference is computed independently of any matrix exponential: for
    identical exponential shares the one-period transition probabilities are
    exactly binomial, so the curve must match a hand-built discrete iteration
    to numerical precision.
    """

    RATE = 1e-4

    def _reference_curve(self, k, n, threshold, rate, period, n_cycles):
        # States in chain order: SH{n} .. SH{k}, DOWN (see the chain builder).
        names = [share_state_name(s) for s in range(n, k - 1, -1)] + [DOWN_STATE]
        index = {name: i for i, name in enumerate(names)}
        size = len(names)
        p_live = math.exp(-rate * period)
        m = np.zeros((size, size))
        m[index[DOWN_STATE], index[DOWN_STATE]] = 1.0
        for s in range(k, n + 1):
            i = index[share_state_name(s)]
            for t in range(k, s + 1):
                m[i, index[share_state_name(t)]] = (
                    math.comb(s, t) * p_live**t * (1.0 - p_live) ** (s - t)
                )
            m[i, index[DOWN_STATE]] = 1.0 - m[i].sum()
        d = np.eye(size)
        for s in range(k, threshold):
            i = index[share_state_name(s)]
            d[i, :] = 0.0
            d[i, index[share_state_name(n)]] = 1.0  # hep = 0: never botched
        p = np.zeros(size)
        p[index[share_state_name(n)]] = 1.0
        curve = []
        for _ in range(n_cycles):
            p = p @ m @ d
            curve.append(1.0 - p[index[DOWN_STATE]])
        return np.asarray(curve)

    def test_matches_independent_binomial_reference(self):
        k, n, threshold = 3, 10, 7
        chain, _ = decay_chain(k, n, rate=self.RATE)
        d = check_repair_matrix(
            chain, n, k, threshold, hep=0.0, restore_from_down=False
        )
        curve = survival_curve(chain, d, MONTH, n_cycles=12)
        reference = self._reference_curve(k, n, threshold, self.RATE, MONTH, 12)
        np.testing.assert_allclose(curve, reference, atol=1e-12)

    def test_monotone_nonincreasing_in_reliability_mode(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1, restore_from_down=False)
        curve = survival_curve(chain, d, MONTH, n_cycles=24)
        assert np.all(np.diff(curve) <= 1e-15)
        assert curve[0] <= 1.0 and curve[-1] > 0.0

    def test_scrubbing_beats_no_scrubbing(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        scrubbed = check_repair_matrix(
            chain, 10, 3, 10, hep=0.0, restore_from_down=False
        )
        unscrubbed = check_repair_matrix(
            chain, 10, 3, 3, hep=0.0, restore_from_down=False
        )
        repaired = survival_curve(chain, scrubbed, MONTH, n_cycles=24)
        decayed = survival_curve(chain, unscrubbed, MONTH, n_cycles=24)
        assert np.all(repaired >= decayed)
        assert repaired[-1] > decayed[-1]

    def test_initial_state_option(self):
        chain, _ = decay_chain(3, 10, rate=1e-3)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.0, restore_from_down=False)
        degraded = survival_curve(
            chain, d, MONTH, n_cycles=6, initial_state=share_state_name(3)
        )
        pristine = survival_curve(chain, d, MONTH, n_cycles=6)
        assert degraded[0] < pristine[0]

    def test_requires_at_least_one_cycle(self):
        chain, _ = decay_chain(3, 10)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.0)
        with pytest.raises(SolverError):
            survival_curve(chain, d, MONTH, n_cycles=0)


class TestPolicyAnalyticalFace:
    def test_erasure_policy_routes_through_checker_cycle(self):
        # The policy's analytical face must agree with a by-hand assembly of
        # the cycle machinery at the same operating point.
        from repro.core.evaluation import analytical_result

        params = erasure_params(3, 10, rate=1e-3, hep=0.1)
        policy = erasure_policy(3, 10, repair_threshold=7, check_period_hours=MONTH)
        chain = build_erasure_decay_chain(params, scheme=policy.scheme)
        d = check_repair_matrix(chain, 10, 3, 7, hep=0.1)
        by_hand = cycle_stationary_availability(chain, d, MONTH)
        result = analytical_result(params, policy)
        assert result.availability == pytest.approx(by_hand.availability, abs=1e-12)

    def test_weibull_share_decay_rejected(self):
        from dataclasses import replace

        from repro.core.evaluation import evaluate

        params = replace(erasure_params(3, 10), failure_shape=2.0)
        with pytest.raises(ConfigurationError):
            evaluate(params, erasure_policy(3, 10), backend="monte_carlo",
                     n_iterations=10, seed=0)
