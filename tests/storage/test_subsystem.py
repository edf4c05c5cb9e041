"""Unit tests for the multi-array subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StorageModelError
from repro.storage import DiskSubsystem, RaidGeometry


class TestSubsystem:
    def test_for_usable_capacity(self):
        subsystem = DiskSubsystem.for_usable_capacity(RaidGeometry.raid5(3), usable_disks=21)
        assert subsystem.n_arrays == 7
        assert subsystem.total_disks == 28
        assert subsystem.usable_disks == 21
        assert subsystem.effective_replication_factor == pytest.approx(4 / 3)

    def test_capacity_must_divide(self):
        with pytest.raises(StorageModelError):
            DiskSubsystem.for_usable_capacity(RaidGeometry.raid5(3), usable_disks=20)
        for usable_disks in (21.9, float("nan"), "21"):
            with pytest.raises(StorageModelError):
                DiskSubsystem.for_usable_capacity(RaidGeometry.raid5(3), usable_disks)

    def test_raid1_needs_more_disks_for_same_capacity(self):
        mirror = DiskSubsystem.for_usable_capacity(RaidGeometry.raid1(2), usable_disks=21)
        parity = DiskSubsystem.for_usable_capacity(RaidGeometry.raid5(7), usable_disks=21)
        assert mirror.total_disks == 42
        assert parity.total_disks == 24
        assert mirror.total_disks > parity.total_disks

    def test_aggregate_availability_series(self):
        subsystem = DiskSubsystem(RaidGeometry.raid5(3), n_arrays=7)
        aggregated = subsystem.aggregate_availability(0.999, disk_failure_rate_per_hour=1e-6)
        assert aggregated.subsystem_availability == pytest.approx(0.999 ** 7, rel=1e-9)
        assert aggregated.expected_disk_failures_per_year == pytest.approx(28 * 1e-6 * 8760)

    def test_aggregate_mixed(self):
        subsystem = DiskSubsystem(RaidGeometry.raid5(3), n_arrays=3)
        value = subsystem.aggregate_mixed_availability([0.9, 0.99, 0.999])
        assert value == pytest.approx(0.9 * 0.99 * 0.999)
        with pytest.raises(StorageModelError):
            subsystem.aggregate_mixed_availability([0.9])

    def test_describe(self):
        payload = DiskSubsystem(RaidGeometry.raid5(7), n_arrays=3).describe()
        assert payload["n_arrays"] == 3
        assert payload["total_disks"] == 24

    def test_invalid_construction(self):
        with pytest.raises(StorageModelError):
            DiskSubsystem(RaidGeometry.raid5(3), n_arrays=0)
        for n_arrays in (2.7, float("inf"), None):
            with pytest.raises(StorageModelError):
                DiskSubsystem(RaidGeometry.raid5(3), n_arrays=n_arrays)
        subsystem = DiskSubsystem(RaidGeometry.raid5(3), n_arrays=2)
        for rate in (-1e-6, float("nan"), float("inf")):
            with pytest.raises(StorageModelError):
                subsystem.expected_disk_failures_per_year(rate)

    @pytest.mark.parametrize(
        "whole", [7.0, np.int64(7), np.int32(7)], ids=["float", "int64", "int32"]
    )
    def test_whole_numbers_of_any_type_accepted(self, whole):
        geometry = RaidGeometry.raid5(3)
        direct = DiskSubsystem(geometry, n_arrays=whole)
        sized = DiskSubsystem.for_usable_capacity(geometry, usable_disks=whole * 3)
        for subsystem in (direct, sized):
            assert subsystem.n_arrays == 7
            assert type(subsystem.n_arrays) is int
            assert subsystem.total_disks == 28

    @pytest.mark.parametrize(
        "geometry,n_arrays,total_disks,erf",
        [
            (RaidGeometry.raid1(2), 21, 42, 2.0),
            (RaidGeometry.raid5(3), 7, 28, 4 / 3),
            (RaidGeometry.raid5(7), 3, 24, 8 / 7),
        ],
        ids=["RAID1(1+1)", "RAID5(3+1)", "RAID5(7+1)"],
    )
    def test_paper_equal_capacity_layouts(self, geometry, n_arrays, total_disks, erf):
        # The Fig. 6 comparison: every geometry provides 21 disks of capacity.
        payload = DiskSubsystem.for_usable_capacity(geometry, usable_disks=21).describe()
        assert payload["geometry"] == geometry.describe()
        assert payload["n_arrays"] == n_arrays
        assert payload["total_disks"] == total_disks
        assert payload["usable_disks"] == 21
        assert payload["erf"] == pytest.approx(erf)
