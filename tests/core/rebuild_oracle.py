"""The per-point rebuild sweep: the reference the analytical engine must match.

This is the pre-template algorithm — one builder, chain, validation and
solver per point — kept on the test side as the ground truth the columnar
sweep engine is regression-tested and benchmarked against
(``benchmarks/bench_sweep.py`` imports it from here).
"""

from __future__ import annotations

import importlib
from typing import List, Sequence

from repro.core.montecarlo.config import PolicyRef
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.registry import resolve_policy
from repro.core.sweep import SweepPoint
from repro.exceptions import ConfigurationError
from repro.markov.metrics import steady_state_availability

# ``repro.core`` re-exports the ``sweep`` function under the module's name.
sweep_module = importlib.import_module("repro.core.sweep")


def sweep_per_point_rebuild(
    base_params: AvailabilityParameters,
    axis: str,
    values: Sequence[float],
    policy: PolicyRef = "conventional",
    method: str = "dense",
) -> List[SweepPoint]:
    """Reference analytical sweep that rebuilds and re-solves per point.

    ``sweep(...)`` must reproduce it exactly.  Periodic-scheme policies have
    no ergodic steady state; their reference is the per-point checker-cycle
    solve of :func:`~repro.core.evaluation.analytical_result`, which
    rebuilds the decay chain and cycle operator at every point.
    """
    if not values:
        raise ConfigurationError(f"sweep over {axis!r} requires at least one value")
    field = sweep_module._axis_field(axis)
    resolved = resolve_policy(policy)
    points = []
    for value in values:
        params = sweep_module._with_axis(base_params, field, value)
        if resolved.has_periodic_checks:
            result = sweep_module.analytical_result(params, resolved, method=method)
        else:
            result = steady_state_availability(resolved.build_chain(params), method=method)
        points.append(
            SweepPoint(
                x=float(value),
                availability=result.availability,
                unavailability=result.unavailability,
                nines=result.nines,
            )
        )
    return points
