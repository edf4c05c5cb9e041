"""Multi-array disk subsystem.

A data-centre scale storage deployment consists of many RAID groups.  For
availability purposes the subsystem is a *series* system: the stored data set
is only fully available when every group holding part of it is available.
This module sizes such subsystems (how many groups of each geometry are
needed to reach a target usable capacity) and aggregates per-array
availability results into subsystem-level numbers — the aggregation used in
the paper's equal-usable-capacity comparison (Fig. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.availability.metrics import (
    availability_to_nines,
    downtime_hours_per_year,
    series_availability,
)
from repro.exceptions import StorageModelError
from repro.storage.raid import RaidGeometry


def _whole_number(value: int, what: str) -> int:
    """Return ``value`` as an ``int``, rejecting fractions and non-numbers."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise StorageModelError(f"{what} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class SubsystemAvailability:
    """Aggregated availability of a multi-array subsystem."""

    array_availability: float
    n_arrays: int
    subsystem_availability: float
    subsystem_nines: float
    downtime_hours_per_year: float
    expected_disk_failures_per_year: float


class DiskSubsystem:
    """A collection of identical RAID groups providing one logical capacity."""

    def __init__(
        self,
        geometry: RaidGeometry,
        n_arrays: int,
        subsystem_id: str = "subsystem",
    ) -> None:
        n_arrays = _whole_number(n_arrays, "number of arrays")
        if n_arrays < 1:
            raise StorageModelError(f"subsystem needs at least one array, got {n_arrays!r}")
        self._id = str(subsystem_id)
        self._geometry = geometry
        self._n_arrays = n_arrays

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_usable_capacity(
        cls,
        geometry: RaidGeometry,
        usable_disks: int,
        subsystem_id: str = "subsystem",
    ) -> "DiskSubsystem":
        """Size a subsystem that provides ``usable_disks`` of logical capacity.

        ``usable_disks`` must be an exact multiple of the geometry's data
        disks so that equal-capacity comparisons are exact.
        """
        usable_disks = _whole_number(usable_disks, "usable capacity")
        if usable_disks < 1:
            raise StorageModelError(f"usable capacity must be positive, got {usable_disks!r}")
        if usable_disks % geometry.data_disks != 0:
            raise StorageModelError(
                f"usable capacity {usable_disks} is not a multiple of "
                f"{geometry.data_disks} data disks per {geometry.label} group"
            )
        return cls(
            geometry=geometry,
            n_arrays=usable_disks // geometry.data_disks,
            subsystem_id=subsystem_id,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def subsystem_id(self) -> str:
        """Return the subsystem identifier."""
        return self._id

    @property
    def geometry(self) -> RaidGeometry:
        """Return the per-array geometry."""
        return self._geometry

    @property
    def n_arrays(self) -> int:
        """Return the number of RAID groups."""
        return self._n_arrays

    @property
    def total_disks(self) -> int:
        """Return the total number of physical disks."""
        return self._n_arrays * self._geometry.n_disks

    @property
    def usable_disks(self) -> int:
        """Return the logical capacity in disk units."""
        return self._n_arrays * self._geometry.data_disks

    @property
    def effective_replication_factor(self) -> float:
        """Return the subsystem ERF (physical / usable disks)."""
        return self.total_disks / self.usable_disks

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def expected_disk_failures_per_year(self, disk_failure_rate_per_hour: float) -> float:
        """Return the expected number of disk failures per year across the fleet."""
        if not 0.0 <= disk_failure_rate_per_hour < math.inf:
            raise StorageModelError(
                "failure rate must be finite and non-negative, "
                f"got {disk_failure_rate_per_hour!r}"
            )
        return self.total_disks * disk_failure_rate_per_hour * 8760.0

    def aggregate_availability(
        self, array_availability: float, disk_failure_rate_per_hour: float = 0.0
    ) -> SubsystemAvailability:
        """Aggregate one array's availability across the whole subsystem.

        Arrays are assumed independent and identically distributed, so the
        subsystem availability is the per-array availability raised to the
        number of arrays (series system).
        """
        subsystem_avail = series_availability([array_availability] * self._n_arrays)
        return SubsystemAvailability(
            array_availability=float(array_availability),
            n_arrays=self._n_arrays,
            subsystem_availability=subsystem_avail,
            subsystem_nines=availability_to_nines(subsystem_avail),
            downtime_hours_per_year=downtime_hours_per_year(subsystem_avail),
            expected_disk_failures_per_year=self.expected_disk_failures_per_year(
                disk_failure_rate_per_hour
            ),
        )

    def aggregate_mixed_availability(
        self, array_availabilities: Sequence[float]
    ) -> float:
        """Aggregate explicitly listed per-array availabilities (series)."""
        if len(array_availabilities) != self._n_arrays:
            raise StorageModelError(
                f"expected {self._n_arrays} per-array availabilities, "
                f"got {len(array_availabilities)}"
            )
        return series_availability(array_availabilities)

    def describe(self) -> Dict[str, object]:
        """Return a serialisable summary of the subsystem layout."""
        return {
            "subsystem_id": self._id,
            "geometry": self._geometry.describe(),
            "n_arrays": self._n_arrays,
            "total_disks": self.total_disks,
            "usable_disks": self.usable_disks,
            "erf": self.effective_replication_factor,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskSubsystem(id={self._id!r}, geometry={self._geometry.label!r}, "
            f"arrays={self._n_arrays})"
        )
