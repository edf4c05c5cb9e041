"""The GTH stationary solve: exact accuracy, batch/single bit identity, reducibility.

Both dense paths — :func:`repro.markov.solver.stationary_dense_from_q` for
one generator and :meth:`ChainTemplate.solve_many` for a batch — run the
same state reduction, checked here against an exact rational solve, against
each other bit for bit, and on chains without a unique steady state.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.core.models.baseline import build_baseline_chain
from repro.core.models.raid5_conventional import build_conventional_chain
from repro.core.models.raid5_failover import build_failover_chain
from repro.core.parameters import paper_parameters
from repro.exceptions import SolverError
from repro.markov import MarkovChain, State, Transition
from repro.markov.builder import ChainBuilder
from repro.markov.rates import symbol_table
from repro.markov.solver import stationary_dense_from_q
from repro.markov.template import ChainTemplate
from repro.markov.validation import validate_chain

MODEL_BUILDERS = {
    "baseline": build_baseline_chain,
    "conventional": build_conventional_chain,
    "automatic_failover": build_failover_chain,
}

#: (failure rate, hep) points; hep = 0 selects the reduced chain structure.
ORACLE_POINTS = [(5e-8, 1e-4), (1e-6, 1e-3), (1e-4, 0.1), (1e-6, 0.0)]


def exact_stationary(q: np.ndarray) -> list:
    """Solve ``pi Q = 0, sum(pi) = 1`` in exact rationals.

    The off-diagonal rates are the generator's own float64 values, taken
    exactly; the diagonal is their exact negated row sum.  Gaussian
    elimination runs on ``Q^T`` with its last row replaced by ones.
    """
    n = q.shape[0]
    rates = [
        [Fraction(float(q[i, j])) if i != j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    a = [[rates[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = -sum(rates[i])
    a[n - 1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] -= factor * b[col]
    pi = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        pi[r] = (b[r] - sum(a[r][c] * pi[c] for c in range(r + 1, n))) / a[r][r]
    return pi


def worst_relative_error(got: np.ndarray, exact: list) -> float:
    """Largest componentwise relative error, in exact arithmetic."""
    return max(
        float(abs(Fraction(float(g)) - e) / e) if e != 0 else float(g != 0.0)
        for g, e in zip(got, exact)
    )


class TestExactAccuracy:
    """Every state probability to a few ulps, however small it is."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_single_and_batched_match_exact_solve(self, name):
        build = MODEL_BUILDERS[name]
        for rate, hep in ORACLE_POINTS:
            params = paper_parameters(disk_failure_rate=rate, hep=hep)
            chain = build(params)
            q = chain.generator_matrix()
            exact = exact_stationary(q)
            assert worst_relative_error(stationary_dense_from_q(q), exact) <= 1e-13
            # The batched path, here at two points (the k-vector carrier).
            columns = symbol_table(params)
            columns["lam"] = np.full(2, columns["lam"])
            batch = ChainTemplate(chain, params).solve_many(columns)
            for row in batch:
                assert worst_relative_error(row, exact) <= 1e-13

    def test_transient_states_get_exact_zeros(self):
        # hep = 1 leaves the fail-over chain's OP unable to return from the
        # no-spare states: OP is transient and the closed class starts at
        # OPns.  Both paths root the reduction there.
        base = paper_parameters(disk_failure_rate=2e-6, hep=0.01)
        params = base.with_hep(1.0)
        template = ChainTemplate(build_failover_chain(base), base)
        q = template.generator_matrix(params)
        exact = exact_stationary(q)
        single = stationary_dense_from_q(q)
        columns = symbol_table(params)
        columns["hep"] = np.array([1.0, 0.01, 1.0])
        batch = template.solve_many(columns)
        for pi in (single, batch[0], batch[2]):
            assert worst_relative_error(pi, exact) <= 1e-13
            zeros = [name for name, p in zip(template.state_names, pi) if p == 0.0]
            assert zeros == [name for name, e in zip(template.state_names, exact) if e == 0]
        assert "OP" in zeros
        assert np.array_equal(batch[0], single)


@pytest.mark.parametrize("name", ["conventional", "automatic_failover"])
def test_batch_equals_single_solves(name):
    """solve_many over many points equals TemplateEvaluator.solve bit for bit."""
    build = MODEL_BUILDERS[name]
    base = paper_parameters(hep=0.01)
    template = ChainTemplate(build(base), base)
    k = 1000
    rng = np.random.default_rng(27)
    columns = symbol_table(base)
    columns["hep"] = 10.0 ** rng.uniform(-4.0, -0.5, k)
    columns["lam"] = 10.0 ** rng.uniform(-7.0, -4.0, k)
    columns["hep"][::97] = 1.0  # fail-over: transient OP, a zero pivot mid-batch
    batch = template.solve_many(columns)
    assert batch.shape == (k, template.n_states)
    for row, hep, lam in zip(batch, columns["hep"], columns["lam"]):
        params = base.with_hep(float(hep)).with_failure_rate(float(lam))
        assert np.array_equal(row, template.evaluator(params).solve())


def _labelled_chain(states, transitions):
    """A chain whose every rate is ``mu_DF``, so it can back a template."""
    params = paper_parameters()
    builder = ChainBuilder("defective")
    for state in states:
        builder.add_up_state(state)
    for source, target in transitions:
        builder.add_transition(source, target, params.disk_repair_rate, label="mu_DF")
    return builder.build(validate=False), params


#: Chains without a unique steady state.
REDUCIBLE = {
    "two_closed_classes": (
        ["A", "B", "C", "D"], [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")]
    ),
    # C is absorbing; D leaves for either closed class.
    "absorbing_state": (
        ["A", "B", "C", "D"], [("A", "B"), ("B", "A"), ("D", "A"), ("D", "C")]
    ),
    "absorbing_first_state": (["C", "A", "B"], [("A", "B"), ("B", "A")]),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_chains_raise_on_both_paths(name):
    chain, params = _labelled_chain(*REDUCIBLE[name])
    with pytest.raises(SolverError, match="reducible"):
        stationary_dense_from_q(chain.generator_matrix(), name=chain.name)
    columns = symbol_table(params)
    columns["mu_DF"] = np.full(3, columns["mu_DF"])
    with pytest.raises(SolverError, match="reducible"):
        ChainTemplate(chain, params).solve_many(columns)


def test_absorbing_state_that_everything_reaches_is_the_steady_state():
    # One closed class, the absorbing state itself: a unique steady state.
    chain = MarkovChain(
        [State("A"), State("B"), State("C", up=False)],
        [Transition("A", "B", 1.0), Transition("B", "A", 2.0), Transition("B", "C", 0.5)],
    )
    assert stationary_dense_from_q(chain.generator_matrix()).tolist() == [0.0, 0.0, 1.0]


def test_validate_chain_builds_the_generator_once(monkeypatch):
    chain = build_failover_chain(paper_parameters(hep=0.01))
    calls = []
    original = MarkovChain.generator_matrix

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MarkovChain, "generator_matrix", counting)
    assert validate_chain(chain).ok
    assert len(calls) == 1
