"""Parameter sets of the paper's evaluation section.

Every experiment module reads its workload from here, so the numbers the
paper quotes live in exactly one place:

* Section V-B rates: ``mu_DF = 0.1``, ``mu_DDF = 0.03``, ``mu_s = mu_he = 1``,
  ``lambda_crash = 0.01``.
* Fig. 4 failure-rate sweep: 0 ... 5.5e-6 per hour (we start the sweep at a
  small positive value because a zero failure rate has trivially perfect
  availability).
* Fig. 5 field failure-rate / Weibull-shape pairs (from the public disk
  field studies the paper cites).
* Fig. 6 failure rates (1e-5, 1e-6, 1e-7) and configurations
  (RAID1(1+1), RAID5(3+1), RAID5(7+1)).
* The hep sweep {0, 0.001, 0.01} shared by Figs. 5-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.parameters import AvailabilityParameters, paper_parameters
from repro.storage.raid import RaidGeometry

#: Human error probabilities swept by the paper (x axes of Figs. 5-7).
HEP_SWEEP: Tuple[float, ...] = (0.0, 0.001, 0.01)

#: Disk failure rates of the Fig. 6 subplots (a), (b) and (c).
FIG6_FAILURE_RATES: Tuple[float, ...] = (1e-5, 1e-6, 1e-7)

#: Field (failure rate, Weibull shape) pairs quoted in Fig. 5.
FIG5_FIELD_RATES: Tuple[Tuple[float, float], ...] = (
    (1.25e-6, 1.09),
    (2.17e-6, 1.12),
    (7.96e-6, 1.21),
    (2.00e-5, 1.48),
)

#: hep values for which the Fig. 4 validation is run.
FIG4_HEP_VALUES: Tuple[float, ...] = (0.001, 0.01)

#: Spare-pool sizes explored by the hot-spare study (EXP-S1, beyond the
#: paper); the conventional and fail-over policies are always included as
#: the 0- and 1-spare rungs of the ladder.
HOT_SPARE_POOL_SIZES: Tuple[int, ...] = (2, 3)

#: Usable capacity (in disk units) of the Fig. 6 equal-capacity comparison:
#: the least common multiple of 1, 3 and 7 data disks.
FIG6_USABLE_DISKS: int = 21


@dataclass(frozen=True)
class ExperimentDefaults:
    """Tunable knobs shared by the experiment runners.

    Attributes
    ----------
    mc_iterations:
        Monte Carlo iterations used by the experiment modules.  The paper
        uses 1e6; at this default ``run_all_experiments()`` takes about
        3.5 s (2-vCPU x86-64 VM, one worker), and ``repro reproduce``,
        whose ``--mc-iterations`` defaults to 8000, about 1 s including
        start-up.  Benchmarks use an even smaller count.
    mc_horizon_hours:
        Mission time of each simulated lifetime.
    mc_confidence:
        Confidence level of the Monte Carlo intervals (0.99 in the paper).
    seed:
        Master seed used by all experiments for reproducibility.
    """

    mc_iterations: int = 40_000
    mc_horizon_hours: float = 10 * 8760.0
    mc_confidence: float = 0.99
    seed: int = 2017


DEFAULTS = ExperimentDefaults()


def fig4_failure_rates(n_points: int = 11, maximum: float = 5.5e-6) -> List[float]:
    """Return the Fig. 4 failure-rate grid.

    The paper's x axis spans 0 to 5.5e-6 per hour; the grid here starts at
    ``maximum / n_points`` because a literal zero failure rate gives perfect
    availability in both models and adds nothing to the validation.
    """
    if n_points < 2:
        raise ValueError(f"need at least two grid points, got {n_points!r}")
    if maximum <= 0.0:
        raise ValueError(f"maximum failure rate must be positive, got {maximum!r}")
    return list(np.linspace(maximum / n_points, maximum, n_points))


def raid5_3_1_parameters(hep: float = 0.001, failure_rate: float = 1e-6) -> AvailabilityParameters:
    """Return the paper's default RAID5(3+1) parameter set."""
    return paper_parameters(
        geometry=RaidGeometry.raid5(3), disk_failure_rate=failure_rate, hep=hep
    )


def fig6_configurations() -> List[RaidGeometry]:
    """Return the three configurations compared in Fig. 6."""
    return [RaidGeometry.raid1(2), RaidGeometry.raid5(3), RaidGeometry.raid5(7)]


def fig5_parameter_sets(hep: float) -> Dict[str, AvailabilityParameters]:
    """Return one RAID5(3+1) parameter set per Fig. 5 field failure rate.

    Keys are human-readable labels like ``"lambda=1.25e-06 (beta=1.09)"``.
    The Weibull shape is carried on the parameter set so the Monte Carlo
    path can use the field-accurate distribution while the Markov path uses
    the matching exponential rate.
    """
    sets: Dict[str, AvailabilityParameters] = {}
    for rate, shape in FIG5_FIELD_RATES:
        label = f"lambda={rate:.3g} (beta={shape:g})"
        sets[label] = paper_parameters(
            geometry=RaidGeometry.raid5(3),
            disk_failure_rate=rate,
            hep=hep,
            failure_shape=shape,
        )
    return sets
