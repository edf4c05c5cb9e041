"""Time-to-event distributions used by the availability models.

The Markov models require exponential sojourn times; the Monte Carlo
simulator additionally supports Weibull (field-accurate disk failure times).
"""

from repro.distributions.base import Distribution, ensure_rng
from repro.distributions.exponential import Exponential
from repro.distributions.weibull import Weibull

__all__ = [
    "Distribution",
    "Exponential",
    "Weibull",
    "ensure_rng",
]
