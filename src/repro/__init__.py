"""repro — availability of data storage systems under human errors.

A from-scratch Python reproduction of *"Evaluating Impact of Human Errors on
the Availability of Data Storage Systems"* (Kishani, Eftekhari, Asadi —
DATE 2017).  The package provides:

* :mod:`repro.core` — the paper's contribution: Markov availability models
  of RAID groups with human errors (conventional replacement and automatic
  fail-over policies) and the Monte Carlo reference simulator.
* :mod:`repro.markov` — a general continuous-time Markov chain engine
  (builder, steady-state and transient solvers, validation).
* :mod:`repro.simulation` — a discrete-event simulation kernel with RNG
  stream management and confidence intervals.
* :mod:`repro.storage` — RAID geometries, equal-capacity subsystems and
  latent sector errors.
* :mod:`repro.human` — replacement policy identifiers, expected human
  errors and the error recovery model.
* :mod:`repro.availability` — nines/downtime arithmetic, ERF, reports.
* :mod:`repro.experiments` — regeneration of every figure and headline
  number of the paper's evaluation section.

Quickstart::

    from repro import evaluate, paper_parameters

    params = paper_parameters(disk_failure_rate=1e-6, hep=0.01)
    print(evaluate(params, policy="conventional", backend="analytical").nines)
    mc = evaluate(params, policy="conventional", backend="monte_carlo", seed=7)
    print(mc.availability, (mc.ci_lower, mc.ci_upper))
"""

from repro.core import (
    AvailabilityEstimate,
    AvailabilityParameters,
    MonteCarloConfig,
    MonteCarloResult,
    SimulationPolicy,
    analytical_policies,
    analytical_result,
    available_policies,
    compare_equal_capacity,
    estimate_availability,
    evaluate,
    hot_spare_policy,
    paper_parameters,
    register_policy,
    run_monte_carlo,
    sweep,
    sweep_grid,
)
from repro.exceptions import ReproError
from repro.human.policy import PolicyKind
from repro.markov import MarkovChain, steady_state_availability
from repro.storage.raid import RaidGeometry

__version__ = "1.0.0"

__all__ = [
    "AvailabilityEstimate",
    "AvailabilityParameters",
    "MarkovChain",
    "MonteCarloConfig",
    "MonteCarloResult",
    "PolicyKind",
    "RaidGeometry",
    "ReproError",
    "SimulationPolicy",
    "__version__",
    "analytical_policies",
    "analytical_result",
    "available_policies",
    "compare_equal_capacity",
    "estimate_availability",
    "evaluate",
    "hot_spare_policy",
    "paper_parameters",
    "register_policy",
    "run_monte_carlo",
    "steady_state_availability",
    "sweep",
    "sweep_grid",
]
