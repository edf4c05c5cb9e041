"""The traditional human-error-free model, as a registered policy.

The paper's baseline ("classic") availability model ignores operator
mistakes entirely.  Registering it as a policy gives it the same two faces
as every other replacement strategy:

* the **analytical face** is the classic birth-death chain of
  :mod:`repro.core.models.baseline` (which never reads ``hep``), and
* the **simulation face** reuses the conventional-replacement kernels with
  ``hep`` forced to zero, so a Monte Carlo run of the baseline is the
  conventional simulation minus the wrong-pull branch.

That pairing makes the baseline a first-class citizen of the cross-backend
validation: the analytical steady-state availability must fall inside the
Monte Carlo confidence interval exactly as it must for the human-error
models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.models.baseline import build_baseline_chain
from repro.core.montecarlo.results import EpisodeTrace, IterationResult
from repro.core.montecarlo.simulator import simulate_conventional
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import BatchLifetimes, RedundancyScheme, SimulationPolicy
from repro.core.policies.registry import register_policy
from repro.core.policies.vectorized import batch_conventional


def simulate_baseline(
    params: AvailabilityParameters,
    horizon_hours: float,
    rng: np.random.Generator,
    trace: Optional[EpisodeTrace] = None,
) -> IterationResult:
    """Simulate one lifetime with human error disabled (scalar path)."""
    return simulate_conventional(
        params.without_human_error(), horizon_hours, rng, trace=trace
    )


def batch_baseline(
    params: AvailabilityParameters,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    biasing: Optional[float] = None,
) -> BatchLifetimes:
    """Simulate many lifetimes with human error disabled (batch kernel)."""
    return batch_conventional(
        params.without_human_error(), horizon_hours, n_lifetimes, rng, biasing=biasing
    )


#: The classic availability model: disk failures only, perfect operators.
BASELINE_POLICY = register_policy(
    SimulationPolicy(
        name="baseline",
        description=(
            "classic availability model: human error ignored (hep treated "
            "as 0); the yardstick the paper's underestimation factor is "
            "measured against"
        ),
        scalar=simulate_baseline,
        batch=batch_baseline,
        chain=build_baseline_chain,
        n_spares=0,
        supports_stacked=True,
        # Continuous repair, hep pinned to zero by the simulators.
        scheme=RedundancyScheme(),
    )
)
