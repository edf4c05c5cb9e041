"""Storage substrate: RAID geometries, multi-array subsystems, LSEs."""

from repro.storage.lse import LatentSectorErrorModel, LseParameters
from repro.storage.raid import RaidGeometry, RaidLevel, paper_configurations
from repro.storage.subsystem import DiskSubsystem, SubsystemAvailability

__all__ = [
    "DiskSubsystem",
    "LatentSectorErrorModel",
    "LseParameters",
    "RaidGeometry",
    "RaidLevel",
    "SubsystemAvailability",
    "paper_configurations",
]
