"""Continuous-time Markov chain engine.

Provides the chain representation, a fluent builder, steady-state and
transient solvers, discrete-time helpers, structural validation and
availability metrics used by the storage availability models.
"""

from repro.markov.builder import ChainBuilder, chain_from_rate_dict
from repro.markov.chain import MarkovChain, State, Transition
from repro.markov.dtmc import (
    dtmc_stationary_distribution,
    embedded_jump_matrix,
    n_step_distribution,
    occupancy_fraction,
    steady_state_via_discretisation,
    step_transition_matrix,
)
from repro.markov.metrics import (
    AvailabilityResult,
    availability_from_up_mass,
    availability_result_from_pi,
    compare_availability,
    expected_visits_per_year,
    mean_time_to_failure,
    state_occupancy_report,
    steady_state_availability,
)
from repro.markov.rates import (
    PARAMETER_SYMBOLS,
    RATE_SYMBOLS,
    RateExpression,
    compile_rate_expression,
    symbol_table,
)
from repro.markov.solver import (
    SPARSE_STATE_THRESHOLD,
    mean_time_to_absorption,
    resolve_method,
    solve_steady_state,
    solve_steady_state_dense,
    solve_steady_state_least_squares,
    solve_steady_state_power,
    solve_steady_state_sparse,
    stationary_from_q,
    stationary_vector,
)
from repro.markov.template import (
    ChainTemplate,
    TemplateEvaluator,
    template_from_chain,
)
from repro.markov.transient import (
    TransientResult,
    interval_availability,
    point_availability,
    transient_distribution_expm,
    transient_distribution_uniformization,
)
from repro.markov.validation import (
    ValidationReport,
    check_reachability,
    find_absorbing_states,
    is_irreducible,
    validate_chain,
)

__all__ = [
    "AvailabilityResult",
    "ChainBuilder",
    "ChainTemplate",
    "MarkovChain",
    "PARAMETER_SYMBOLS",
    "RATE_SYMBOLS",
    "RateExpression",
    "SPARSE_STATE_THRESHOLD",
    "State",
    "TemplateEvaluator",
    "Transition",
    "TransientResult",
    "ValidationReport",
    "availability_from_up_mass",
    "availability_result_from_pi",
    "chain_from_rate_dict",
    "check_reachability",
    "compare_availability",
    "compile_rate_expression",
    "dtmc_stationary_distribution",
    "embedded_jump_matrix",
    "expected_visits_per_year",
    "find_absorbing_states",
    "interval_availability",
    "is_irreducible",
    "mean_time_to_absorption",
    "mean_time_to_failure",
    "n_step_distribution",
    "occupancy_fraction",
    "point_availability",
    "resolve_method",
    "solve_steady_state",
    "solve_steady_state_dense",
    "solve_steady_state_least_squares",
    "solve_steady_state_power",
    "solve_steady_state_sparse",
    "state_occupancy_report",
    "stationary_from_q",
    "stationary_vector",
    "steady_state_availability",
    "steady_state_via_discretisation",
    "step_transition_matrix",
    "symbol_table",
    "template_from_chain",
    "transient_distribution_expm",
    "transient_distribution_uniformization",
    "validate_chain",
]
