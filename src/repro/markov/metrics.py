"""Availability and reliability metrics derived from a Markov chain.

These helpers translate a stationary distribution into the quantities the
paper reports: steady-state availability, "number of nines", downtime per
year, and MTTDL-style mean times to failure obtained by making the down
states absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.availability.metrics import (
    HOURS_PER_YEAR,
    availability_to_nines,
    downtime_hours_per_year,
)
from repro.exceptions import MarkovChainError
from repro.markov.chain import MarkovChain
from repro.markov.solver import mean_time_to_absorption, solve_steady_state


@dataclass(frozen=True)
class AvailabilityResult:
    """Summary of a steady-state availability analysis.

    Attributes
    ----------
    availability:
        Long-run probability of being in an up state, in ``[0, 1]``.
    unavailability:
        ``1 - availability``.
    nines:
        ``-log10(unavailability)`` (infinite when unavailability is zero).
    downtime_hours_per_year:
        Expected downtime accumulated per year of operation.
    state_probabilities:
        Full stationary distribution keyed by state name.
    up_states / down_states:
        The partition used to compute availability.
    """

    availability: float
    unavailability: float
    nines: float
    downtime_hours_per_year: float
    state_probabilities: Dict[str, float]
    up_states: tuple
    down_states: tuple

    def probability_of(self, state: str) -> float:
        """Return the stationary probability of one state."""
        try:
            return self.state_probabilities[state]
        except KeyError:
            raise MarkovChainError(f"unknown state {state!r}") from None

    def downtime_minutes_per_year(self) -> float:
        """Return the expected downtime in minutes per year."""
        return self.downtime_hours_per_year * 60.0

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable summary."""
        return {
            "availability": self.availability,
            "unavailability": self.unavailability,
            "nines": self.nines,
            "downtime_hours_per_year": self.downtime_hours_per_year,
            "state_probabilities": dict(self.state_probabilities),
            "up_states": list(self.up_states),
            "down_states": list(self.down_states),
        }


def availability_from_up_mass(up_mass: Iterable[float]) -> Tuple[float, float, float]:
    """Reduce up-state probability terms to ``(availability, unavailability, nines)``.

    This is the single place the paper's availability summary arithmetic
    lives: :func:`availability_result_from_pi` (and through it
    :func:`steady_state_availability` and the template evaluation path) and
    the sweep engine's per-point summary all reduce their stationary mass
    here, so every route clips and converts identically.
    """
    availability = 0.0
    for mass in up_mass:  # plain adds: from Python 3.12 on, sum() compensates
        availability += mass
    availability = min(max(float(availability), 0.0), 1.0)
    return availability, 1.0 - availability, availability_to_nines(availability)


def availability_result_from_pi(
    pi: Mapping[str, float],
    state_names: Sequence[str],
    up_states: Sequence[str],
) -> AvailabilityResult:
    """Summarise a precomputed stationary distribution.

    :func:`steady_state_availability` and the parameterized-template
    evaluation path (:mod:`repro.core.evaluation`) both feed their ``pi``
    through here, so the two routes are arithmetic-for-arithmetic identical.
    """
    ups = tuple(up_states)
    downs = tuple(name for name in state_names if name not in ups)
    availability, unavailability, nines = availability_from_up_mass(
        pi[name] for name in ups
    )
    return AvailabilityResult(
        availability=availability,
        unavailability=unavailability,
        nines=nines,
        downtime_hours_per_year=downtime_hours_per_year(availability),
        state_probabilities=dict(pi),
        up_states=ups,
        down_states=downs,
    )


def steady_state_availability(
    chain: MarkovChain,
    method: str = "dense",
    up_states: Optional[Sequence[str]] = None,
    pi: Optional[Mapping[str, float]] = None,
) -> AvailabilityResult:
    """Solve the chain and summarise its steady-state availability.

    Parameters
    ----------
    chain:
        The availability model.
    method:
        Steady-state solver passed to :func:`repro.markov.solver.solve_steady_state`.
    up_states:
        Override of the up-state set; defaults to the states flagged
        ``up=True`` on the chain.
    pi:
        Optional precomputed stationary distribution keyed by state name.
        Passing it skips the solve, so one solve can serve this summary,
        :func:`expected_visits_per_year` and :func:`state_occupancy_report`.
    """
    if pi is None:
        pi = solve_steady_state(chain, method=method)
    if up_states is None:
        ups = chain.up_states()
    else:
        for name in up_states:
            chain.index_of(name)
        ups = tuple(up_states)
    return availability_result_from_pi(pi, chain.state_names, ups)


def mean_time_to_failure(
    chain: MarkovChain,
    failure_states: Optional[Sequence[str]] = None,
    start_state: Optional[str] = None,
) -> float:
    """Return the mean first-passage time (hours) into the failure states.

    The chain is copied with the failure states made absorbing, then the
    standard fundamental-matrix argument gives the expected absorption time.
    For the storage models this is the MTTDL when the failure set is the
    data-loss states, or the mean time to first unavailability when it also
    includes the human-error DU states.
    """
    failures = list(failure_states) if failure_states is not None else list(chain.down_states())
    if not failures:
        raise MarkovChainError("mean_time_to_failure requires at least one failure state")
    absorbing_chain = chain.with_states_absorbing(failures)
    return mean_time_to_absorption(absorbing_chain, failures, start_state)


def expected_visits_per_year(
    chain: MarkovChain,
    target_state: str,
    method: str = "dense",
    pi: Optional[Mapping[str, float]] = None,
) -> float:
    """Return the long-run frequency (visits/year) of entering ``target_state``.

    The entry frequency equals the stationary probability flow into the
    state: ``sum_{s != target} pi_s * rate(s -> target)``.  Useful for
    reporting how often operators are summoned (entries into the exposed
    state) or how often tape recoveries happen (entries into DL).  A
    precomputed ``pi`` skips the solve (see :func:`steady_state_availability`).
    """
    if pi is None:
        pi = solve_steady_state(chain, method=method)
    chain.index_of(target_state)
    flow_per_hour = 0.0
    for source, rate in chain.predecessors(target_state).items():
        flow_per_hour += pi[source] * rate
    return flow_per_hour * HOURS_PER_YEAR


def state_occupancy_report(
    chain: MarkovChain,
    method: str = "dense",
    pi: Optional[Mapping[str, float]] = None,
) -> Dict[str, Mapping[str, float]]:
    """Return per-state stationary probability and annual residence hours.

    A precomputed ``pi`` skips the solve, so one
    :func:`repro.markov.solver.solve_steady_state` call can serve this
    report, :func:`steady_state_availability` and
    :func:`expected_visits_per_year`.
    """
    if pi is None:
        pi = solve_steady_state(chain, method=method)
    report: Dict[str, Mapping[str, float]] = {}
    for state in chain.states:
        probability = pi[state.name]
        report[state.name] = {
            "probability": probability,
            "hours_per_year": probability * HOURS_PER_YEAR,
            "up": float(state.up),
        }
    return report


def compare_availability(
    baseline: AvailabilityResult, variant: AvailabilityResult
) -> Dict[str, float]:
    """Return ratios describing how ``variant`` differs from ``baseline``.

    ``unavailability_ratio`` is the factor by which the variant's
    unavailability exceeds the baseline's — the quantity behind the paper's
    "263X underestimation" headline.
    """
    unavail_base = max(baseline.unavailability, 1e-300)
    unavail_var = max(variant.unavailability, 1e-300)
    return {
        "availability_delta": variant.availability - baseline.availability,
        "nines_delta": variant.nines - baseline.nines,
        "unavailability_ratio": unavail_var / unavail_base,
        "downtime_ratio": (
            variant.downtime_hours_per_year / baseline.downtime_hours_per_year
            if baseline.downtime_hours_per_year > 0.0
            else float("inf")
        ),
    }
