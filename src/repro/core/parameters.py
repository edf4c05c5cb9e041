"""Shared parameter set for the availability models.

All of the paper's models — Monte Carlo and Markov, conventional and
automatic fail-over — are driven by the same small set of rates.  Keeping
them in one validated dataclass guarantees the analytical and simulation
paths are fed identical numbers, which is the whole point of the Fig. 4
cross-validation.

Default values are the paper's (Section V-B):

========================  =======  ==========================================
parameter                 default  meaning
========================  =======  ==========================================
``disk_failure_rate``     1e-6 /h  per-disk failure rate ``lambda``
``disk_repair_rate``      0.1 /h   ``mu_DF`` — replace + rebuild one disk
``ddf_recovery_rate``     0.03 /h  ``mu_DDF`` — restore the array from backup
``human_error_rate``      1.0 /h   ``mu_he`` — detect & undo a wrong pull
``spare_replacement_rate``1.0 /h   ``mu_ch``/``mu_s`` — swap dead hardware
``crash_rate``            0.01 /h  ``lambda_crash`` — wrongly pulled disk dies
``hep``                   0.001    human error probability per intervention
========================  =======  ==========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.distributions import Distribution, Exponential, Weibull
from repro.exceptions import ConfigurationError
from repro.storage.raid import RaidGeometry


@dataclass(frozen=True)
class AvailabilityParameters:
    """Rates and probabilities shared by every availability model."""

    geometry: RaidGeometry = field(default_factory=lambda: RaidGeometry.raid5(3))
    disk_failure_rate: float = 1.0e-6
    disk_repair_rate: float = 0.1
    ddf_recovery_rate: float = 0.03
    human_error_rate: float = 1.0
    spare_replacement_rate: float = 1.0
    crash_rate: float = 0.01
    hep: float = 0.001
    #: Weibull shape for the Monte Carlo failure process; 1.0 = exponential.
    failure_shape: float = 1.0

    def __post_init__(self) -> None:
        for name, check in FIELD_CHECKS.items():
            check(name, getattr(self, name))

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def n_disks(self) -> int:
        """Return the number of disks in the RAID group."""
        return self.geometry.n_disks

    @property
    def success_probability(self) -> float:
        """Return ``1 - hep``."""
        return 1.0 - self.hep

    def failure_distribution(self) -> Distribution:
        """Return the per-disk time-to-failure distribution.

        Exponential when ``failure_shape == 1``, otherwise a Weibull whose
        mean equals ``1 / disk_failure_rate`` (the paper's convention for
        the field-calibrated Fig. 5 runs).
        """
        if self.failure_shape == 1.0:
            return Exponential(self.disk_failure_rate)
        return Weibull.from_rate_and_shape(self.disk_failure_rate, self.failure_shape)

    def repair_distribution(self) -> Distribution:
        """Return the disk replacement/rebuild duration distribution."""
        return Exponential(self.disk_repair_rate)

    def ddf_recovery_distribution(self) -> Distribution:
        """Return the backup (tape) restore duration distribution."""
        return Exponential(self.ddf_recovery_rate)

    def human_error_recovery_distribution(self) -> Distribution:
        """Return the wrong-replacement recovery duration distribution."""
        return Exponential(self.human_error_rate)

    def spare_replacement_distribution(self) -> Distribution:
        """Return the dead-hardware replacement duration distribution."""
        return Exponential(self.spare_replacement_rate)

    def mean_time_to_disk_failure(self) -> float:
        """Return the per-disk MTTF in hours."""
        return 1.0 / self.disk_failure_rate

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_hep(self, hep: float) -> "AvailabilityParameters":
        """Return a copy with a different human error probability."""
        return replace(self, hep=float(hep))

    def with_failure_rate(self, rate: float, shape: Optional[float] = None) -> "AvailabilityParameters":
        """Return a copy with a different disk failure rate (and shape)."""
        if shape is None:
            return replace(self, disk_failure_rate=float(rate))
        return replace(self, disk_failure_rate=float(rate), failure_shape=float(shape))

    def with_geometry(self, geometry: RaidGeometry) -> "AvailabilityParameters":
        """Return a copy with a different RAID geometry."""
        return replace(self, geometry=geometry)

    def without_human_error(self) -> "AvailabilityParameters":
        """Return a copy with ``hep = 0`` (the traditional availability model)."""
        return replace(self, hep=0.0)

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable description of the parameter set."""
        return {
            "geometry": self.geometry.label,
            "disk_failure_rate": self.disk_failure_rate,
            "disk_repair_rate": self.disk_repair_rate,
            "ddf_recovery_rate": self.ddf_recovery_rate,
            "human_error_rate": self.human_error_rate,
            "spare_replacement_rate": self.spare_replacement_rate,
            "crash_rate": self.crash_rate,
            "hep": self.hep,
            "failure_shape": self.failure_shape,
        }


def paper_parameters(
    geometry: Optional[RaidGeometry] = None,
    disk_failure_rate: float = 1.0e-6,
    hep: float = 0.001,
    failure_shape: float = 1.0,
) -> AvailabilityParameters:
    """Return the paper's Section V-B parameter set with selectable knobs."""
    return AvailabilityParameters(
        geometry=geometry or RaidGeometry.raid5(3),
        disk_failure_rate=disk_failure_rate,
        disk_repair_rate=0.1,
        ddf_recovery_rate=0.03,
        human_error_rate=1.0,
        spare_replacement_rate=1.0,
        crash_rate=0.01,
        hep=hep,
        failure_shape=failure_shape,
    )


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")


def _require_non_negative(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")


def _require_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")


#: Each checked field's value check, in the order ``__post_init__`` runs
#: them.  No check reads another field, so a sweep validates an axis value
#: with its field's check alone (:func:`repro.core.sweep._axis_column`).
FIELD_CHECKS: Dict[str, Callable[[str, float], None]] = {
    "disk_failure_rate": _require_positive,
    "disk_repair_rate": _require_positive,
    "ddf_recovery_rate": _require_positive,
    "human_error_rate": _require_positive,
    "spare_replacement_rate": _require_positive,
    "crash_rate": _require_non_negative,
    "failure_shape": _require_positive,
    "hep": _require_probability,
}
