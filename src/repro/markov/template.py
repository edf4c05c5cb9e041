"""Parameterized chain templates: build once, re-solve at many points.

A :class:`ChainTemplate` captures the *structure* of a CTMC — its states, up
mask and transitions — together with a compiled rate expression per
transition (see :mod:`repro.markov.rates`).  The template is derived from a
chain the model builders produced once per (policy, geometry); afterwards a
parameter sweep never reconstructs builder/chain/solver objects:

* the sweep hands the template its points as **symbol columns** — a scalar
  for every symbol that is the same at all points, a ``(k,)`` array for each
  swept one,
* every transition's expression is evaluated once over those columns (a
  scalar where none of its symbols varies, a column otherwise) and
  scatter-added into ``(n, n, k)`` rate planes, the batch axis innermost,
  and
* the planes go through one GTH state reduction for all ``k`` points
  (dense path), or become a ``(k, n, n)`` generator stack solved point by
  point through the array-level solvers in :mod:`repro.markov.solver`.

The assembly mirrors :meth:`~repro.markov.chain.MarkovChain.generator_matrix`
entry for entry (same scatter order, same row-sum diagonal), so a template
solve is bit-identical to rebuilding the chain at every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import SolverError, TransitionError
from repro.markov.chain import MarkovChain
from repro.markov.rates import RateExpression, compile_rate_expression, symbol_table
from repro.markov.solver import (
    _elimination_plan,
    _stationary_gth,
    resolve_method,
    stationary_from_q,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.parameters import AvailabilityParameters


@dataclass(frozen=True)
class TemplateTransition:
    """One structural transition of a template: indices plus rate expression."""

    source_index: int
    target_index: int
    expression: RateExpression


class ChainTemplate:
    """Structure of a CTMC with symbolic rates, reusable across parameters.

    Parameters
    ----------
    chain:
        A chain built by one of the model builders.  Every transition must
        carry a parseable symbolic label; the evaluated expressions are
        checked against the chain's numeric rates at the construction point,
        so a label that disagrees with its builder arithmetic fails fast.
    params:
        The parameter point ``chain`` was built at, used for that check.
    """

    def __init__(self, chain: MarkovChain, params: "AvailabilityParameters") -> None:
        self._name = chain.name
        self._state_names: Tuple[str, ...] = chain.state_names
        self._up_mask = chain.up_mask()
        self._up_indices: Tuple[int, ...] = tuple(
            i for i, up in enumerate(self._up_mask) if up
        )
        index = {name: i for i, name in enumerate(self._state_names)}
        transitions: List[TemplateTransition] = []
        for transition in chain.transitions:
            expression = compile_rate_expression(transition.label)
            transitions.append(
                TemplateTransition(
                    source_index=index[transition.source],
                    target_index=index[transition.target],
                    expression=expression,
                )
            )
        self._transitions: Tuple[TemplateTransition, ...] = tuple(transitions)
        self._symbols: FrozenSet[str] = frozenset().union(
            *(t.expression.symbols for t in self._transitions)
        )
        self._check_against(chain, params)
        # The GTH fill-in of every cell a transition can occupy, worked out once.
        pattern = np.zeros((self.n_states, self.n_states), dtype=bool)
        for t in self._transitions:
            pattern[t.source_index, t.target_index] = True
        self._plan = _elimination_plan(pattern.tobytes(), self.n_states)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Return the name of the chain the template was derived from."""
        return self._name

    @property
    def state_names(self) -> Tuple[str, ...]:
        """Return the state names in matrix order."""
        return self._state_names

    @property
    def n_states(self) -> int:
        """Return the number of states."""
        return len(self._state_names)

    @property
    def up_indices(self) -> Tuple[int, ...]:
        """Return the matrix indices of the up states, in declaration order."""
        return self._up_indices

    @property
    def up_mask(self) -> np.ndarray:
        """Return a copy of the boolean up-state mask."""
        return self._up_mask.copy()

    @property
    def transitions(self) -> Tuple[TemplateTransition, ...]:
        """Return the structural transitions."""
        return self._transitions

    @property
    def symbols(self) -> FrozenSet[str]:
        """Return every rate symbol any transition depends on."""
        return self._symbols

    def depends_on(self, symbol: str) -> bool:
        """Return whether any transition rate mentions ``symbol``."""
        return symbol in self._symbols

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _rate_planes(self, columns: Mapping[str, object]) -> np.ndarray:
        """Scatter-add every transition's rate into ``(n, n, k)`` planes.

        Each expression is evaluated once over the columns and added into
        the contiguous row ``r[i, j]`` in declaration order; the diagonal
        stays zero.
        """
        sizes = {len(v) for v in columns.values() if isinstance(v, np.ndarray)}
        if len(sizes) > 1:
            raise SolverError(
                f"symbol columns of template {self._name!r} disagree in length: "
                f"{sorted(sizes)}"
            )
        n = self.n_states
        rates = np.zeros((n, n, sizes.pop() if sizes else 1))
        for t in self._transitions:
            rates[t.source_index, t.target_index] += t.expression(columns)
        return rates

    def generator_stack(self, columns: Mapping[str, object]) -> np.ndarray:
        """Assemble the generator matrices of ``k`` points given as columns.

        ``columns`` maps every rate symbol to a scalar (the same at every
        point) or a ``(k,)`` float array.  The rate planes are copied
        point-major and the diagonal is restored from the row sums — the
        same arithmetic, cell for cell, as
        :meth:`MarkovChain.generator_matrix` at each point.  Returns an
        array of shape ``(k, n, n)`` (``k = 1`` when no column varies).
        """
        q = self._rate_planes(columns).transpose(2, 0, 1).copy()
        diagonal = np.arange(self.n_states)
        q[:, diagonal, diagonal] = -q.sum(axis=2)
        return q

    def generator_matrix(self, params: "AvailabilityParameters") -> np.ndarray:
        """Assemble a fresh generator matrix at one parameter point."""
        return self.generator_stack(symbol_table(params))[0]

    def evaluator(self, params: "AvailabilityParameters") -> "TemplateEvaluator":
        """Return an evaluator positioned at ``params``."""
        return TemplateEvaluator(self, params)

    def solve_many(
        self, columns: Mapping[str, object], method: str = "auto"
    ) -> np.ndarray:
        """Return the stationary vectors of many points given as columns.

        This is the vectorized heart of the sweep engine.  ``columns`` is a
        symbol table whose swept symbols are ``(k,)`` arrays (see
        :meth:`generator_stack`).  On the dense path (the ``"auto"`` choice for
        every paper-sized chain) the rate planes go through **one** GTH
        state reduction along the template's precomputed fill-in, each step
        a contiguous k-vector operation, with the same arithmetic per point
        as :func:`repro.markov.solver.stationary_dense_from_q`.  Non-dense
        methods solve the generator stack one point at a time.

        Returns an array of shape ``(k, n_states)``.
        """
        resolved = resolve_method(method, self.n_states)
        if resolved != "dense":
            return np.stack([
                stationary_from_q(qi, method=resolved, name=self._name)
                for qi in self.generator_stack(columns)
            ])
        return _stationary_gth(self._rate_planes(columns), self._plan, self._name).T

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_against(self, chain: MarkovChain, params: "AvailabilityParameters") -> None:
        """Verify label expressions reproduce the builder's numeric rates."""
        table = symbol_table(params)
        for t, reference in zip(self._transitions, chain.transitions):
            evaluated = t.expression(table)
            if evaluated != reference.rate:
                raise TransitionError(
                    f"template for {self._name!r}: label {t.expression.label!r} "
                    f"evaluates to {evaluated!r} but the builder produced rate "
                    f"{reference.rate!r} for {reference.source!r}->{reference.target!r}"
                )


class TemplateEvaluator:
    """A template bound to the generator matrix of one parameter point.

    :meth:`solve` solves that generator through the array-level
    steady-state solvers; sweeps over many points use
    :meth:`ChainTemplate.solve_many` instead.
    """

    def __init__(self, template: ChainTemplate, params: "AvailabilityParameters") -> None:
        self._template = template
        self._q = template.generator_matrix(params)

    @property
    def template(self) -> ChainTemplate:
        """Return the underlying template."""
        return self._template

    def generator_matrix(self) -> np.ndarray:
        """Return a copy of the current generator matrix."""
        return self._q.copy()

    def solve(self, method: str = "auto") -> np.ndarray:
        """Return the stationary vector of the current generator.

        ``method`` follows :func:`repro.markov.solver.stationary_from_q`;
        the default auto-selects dense or sparse by state count.
        """
        return stationary_from_q(self._q, method=method, name=self._template.name)

    def solver_name(self, method: str = "auto") -> str:
        """Return the concrete solver the given method resolves to."""
        return resolve_method(method, self._template.n_states)

    def state_probabilities(self, pi: Optional[np.ndarray] = None) -> Dict[str, float]:
        """Return ``{state name: stationary probability}``."""
        if pi is None:
            pi = self.solve()
        return dict(zip(self._template.state_names, pi.tolist()))


def template_from_chain(
    chain: MarkovChain, params: "AvailabilityParameters"
) -> ChainTemplate:
    """Build a :class:`ChainTemplate` from a chain and its build parameters."""
    return ChainTemplate(chain, params)
