"""Expected human errors per year from a human error probability (hep).

Section II of the paper surveys HRA sources (NASA HRA, EUROCONTROL, NUREG /
THERP) and concludes that the probability of an error in a routine manual
task falls between 0.001 and 0.1, narrowing to 0.001-0.01 for enterprise and
safety-critical operations with checklists and trained staff.  At data-centre
scale even such a small hep turns into frequent errors; this module does
that arithmetic.
"""

from __future__ import annotations

import math

from repro.exceptions import HumanErrorModelError


def expected_errors_per_year(
    hep: float, interventions_per_year: float
) -> float:
    """Return the expected number of human errors per year of operation.

    ``interventions_per_year`` is typically the expected number of disk
    replacements, which at data-centre scale (the paper's exa-byte example
    implies > 8760 failures/year) turns even a small hep into daily errors.
    """
    if not 0.0 <= hep <= 1.0:
        raise HumanErrorModelError(f"hep must lie in [0, 1], got {hep!r}")
    if not 0.0 <= interventions_per_year < math.inf:
        raise HumanErrorModelError(
            "interventions per year must be finite and non-negative, "
            f"got {interventions_per_year!r}"
        )
    return hep * interventions_per_year
