"""Structural validation of Markov chains.

The availability chains built from the paper's figures are small but easy to
get wrong when transcribing: a missing repair edge silently produces an
absorbing down state and an availability of zero.  These checks catch such
transcription errors early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

import numpy as np

from repro.exceptions import MarkovChainError
from repro.markov.chain import MarkovChain


@dataclass
class ValidationReport:
    """Outcome of structural validation.

    Attributes
    ----------
    ok:
        ``True`` when no error-level issue was found.
    errors:
        Problems that make steady-state availability analysis meaningless
        (e.g. unreachable states, unintended absorbing states).
    warnings:
        Suspicious but legal structure (e.g. states with no outgoing edges
        in a chain explicitly allowed to have absorbing states).
    """

    ok: bool = True
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def add_error(self, message: str) -> None:
        """Record an error and mark the report as failed."""
        self.errors.append(message)
        self.ok = False

    def add_warning(self, message: str) -> None:
        """Record a warning without failing the report."""
        self.warnings.append(message)


def _reached(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Return the mask of states reachable from ``start``, by breadth-first search.

    Each level expands the whole frontier in one boolean row reduction.
    """
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[start] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~reached
        reached |= frontier
    return reached


# Self loops are not allowed, so a generator's positive entries ``q > 0``
# are exactly the off-diagonal pairs some positive rate connects: its graph.
def _unreachable(chain: MarkovChain, q: np.ndarray, start: str) -> Set[str]:
    """Return the names of the states ``start`` cannot reach in generator ``q``."""
    mask = _reached(q > 0.0, chain.index_of(start))
    return {name for name, hit in zip(chain.state_names, mask) if not hit}


def _absorbing(chain: MarkovChain, q: np.ndarray) -> List[str]:
    """Return the states of generator ``q`` with no positive rate out."""
    return [name for name, out in zip(chain.state_names, (q > 0.0).any(axis=1)) if not out]


def check_reachability(chain: MarkovChain, from_state: str = "") -> Tuple[Set[str], Set[str]]:
    """Return ``(reachable, unreachable)`` state-name sets.

    Reachability is computed from ``from_state`` (default: the first declared
    state, which by convention is the fully-operational state).
    """
    unreachable = _unreachable(chain, chain.generator_matrix(), from_state or chain.state_names[0])
    return set(chain.state_names) - unreachable, unreachable


def find_absorbing_states(chain: MarkovChain) -> List[str]:
    """Return states with no outgoing positive-rate transition."""
    return _absorbing(chain, chain.generator_matrix())


def is_irreducible(chain: MarkovChain) -> bool:
    """Return whether the positive-rate graph is strongly connected.

    It is when the first state reaches every state and every state reaches
    it, i.e. when it reaches every state along the edges and against them.
    """
    adjacency = chain.generator_matrix() > 0.0
    return bool(_reached(adjacency, 0).all() and _reached(adjacency.T, 0).all())


def generator_row_sums(chain: MarkovChain) -> np.ndarray:
    """Return the row sums of the generator matrix (should all be ~0)."""
    return chain.generator_matrix().sum(axis=1)


def validate_chain(
    chain: MarkovChain,
    allow_absorbing: bool = False,
    raise_on_error: bool = True,
) -> ValidationReport:
    """Run all structural checks and return a :class:`ValidationReport`.

    Parameters
    ----------
    chain:
        Chain to validate.
    allow_absorbing:
        Reliability models (MTTDL analysis) intentionally contain absorbing
        failure states; pass ``True`` to downgrade absorbing-state findings
        to warnings.
    raise_on_error:
        When ``True`` (default) a failed report raises
        :class:`~repro.exceptions.MarkovChainError`.
    """
    report = ValidationReport()
    q = chain.generator_matrix()

    # Generator rows must sum to zero by construction; a violation indicates
    # numerical overflow from absurd rate magnitudes.
    worst = float(np.max(np.abs(q.sum(axis=1))))
    scale = max(1.0, float(np.max(np.abs(q))))
    if worst > 1e-9 * scale:
        report.add_error(f"generator rows do not sum to zero (worst residual {worst:.3e})")

    # Unreachable states are almost always transcription bugs.
    unreachable = _unreachable(chain, q, chain.state_names[0])
    if unreachable:
        report.add_error(
            f"states unreachable from {chain.state_names[0]!r}: {sorted(unreachable)}"
        )

    # Absorbing states make long-run availability trivially 0 or 1.
    absorbing = _absorbing(chain, q)
    if absorbing:
        message = f"absorbing states present: {absorbing}"
        if allow_absorbing:
            report.add_warning(message)
        else:
            report.add_error(message)

    # An availability chain should have at least one up and one down state;
    # otherwise availability is identically one or zero.
    if not chain.up_states():
        report.add_warning("chain has no up states; availability is identically zero")
    if not chain.down_states():
        report.add_warning("chain has no down states; availability is identically one")

    if not report.ok and raise_on_error:
        raise MarkovChainError(
            f"chain {chain.name!r} failed validation: " + "; ".join(report.errors)
        )
    return report
