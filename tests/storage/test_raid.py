"""Unit tests for RAID geometries."""

from __future__ import annotations

import pytest

from repro.exceptions import RaidConfigurationError
from repro.storage import RaidGeometry, RaidLevel
from repro.storage.raid import paper_configurations


class TestRaidGeometry:
    def test_raid5_3_plus_1(self):
        geometry = RaidGeometry.raid5(3)
        assert geometry.n_disks == 4
        assert geometry.data_disks == 3
        assert geometry.parity_disks == 1
        assert geometry.fault_tolerance == 1
        assert geometry.label == "RAID5(3+1)"
        assert geometry.effective_replication_factor == pytest.approx(4 / 3)

    def test_raid1_mirror(self):
        geometry = RaidGeometry.raid1(2)
        assert geometry.n_disks == 2
        assert geometry.data_disks == 1
        assert geometry.effective_replication_factor == pytest.approx(2.0)
        assert geometry.label == "RAID1(1+1)"

    def test_raid6(self):
        geometry = RaidGeometry.raid6(6)
        assert geometry.n_disks == 8
        assert geometry.fault_tolerance == 2
        assert geometry.effective_replication_factor == pytest.approx(8 / 6)

    def test_raid0_and_raid10(self):
        assert RaidGeometry.raid0(4).fault_tolerance == 0
        raid10 = RaidGeometry.raid10(3)
        assert raid10.n_disks == 6 and raid10.data_disks == 3

    def test_paper_erf_values(self):
        labels = {g.label: g.effective_replication_factor for g in paper_configurations()}
        assert labels["RAID1(1+1)"] == pytest.approx(2.0)
        assert labels["RAID5(3+1)"] == pytest.approx(1.333, rel=1e-3)
        assert labels["RAID5(7+1)"] == pytest.approx(1.143, rel=1e-3)

    @pytest.mark.parametrize(
        "label,expected_disks",
        [("RAID5(3+1)", 4), ("RAID5(7+1)", 8), ("RAID1(1+1)", 2), ("RAID6(6+2)", 8), ("raid0(5)", 5)],
    )
    def test_from_label(self, label, expected_disks):
        assert RaidGeometry.from_label(label).n_disks == expected_disks

    def test_from_label_invalid(self):
        with pytest.raises(RaidConfigurationError):
            RaidGeometry.from_label("RAIDX(3+1)")
        with pytest.raises(RaidConfigurationError):
            RaidGeometry.from_label("RAID5")

    def test_survives(self):
        geometry = RaidGeometry.raid5(3)
        assert geometry.survives(0) and geometry.survives(1)
        assert not geometry.survives(2)
        with pytest.raises(RaidConfigurationError):
            geometry.survives(-1)

    def test_capacity_helpers(self):
        geometry = RaidGeometry.raid5(3)
        assert geometry.usable_capacity_gb(4000) == pytest.approx(12_000)
        assert geometry.raw_capacity_gb(4000) == pytest.approx(16_000)
        assert geometry.rebuild_read_gb(4000) == pytest.approx(12_000)
        assert RaidGeometry.raid1(2).rebuild_read_gb(4000) == pytest.approx(4000)

    def test_capacity_validation(self):
        with pytest.raises(RaidConfigurationError):
            RaidGeometry.raid5(3).usable_capacity_gb(0.0)

    def test_invalid_counts(self):
        with pytest.raises(RaidConfigurationError):
            RaidGeometry.raid5(1)
        with pytest.raises(RaidConfigurationError):
            RaidGeometry.raid1(1)

    def test_describe(self):
        payload = RaidGeometry.raid5(7).describe()
        assert payload["label"] == "RAID5(7+1)"
        assert payload["level"] == RaidLevel.RAID5.value
        assert payload["erf"] == pytest.approx(8 / 7)
