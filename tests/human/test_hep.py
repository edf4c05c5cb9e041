"""Unit tests for the expected-errors arithmetic."""

from __future__ import annotations

import pytest

from repro.exceptions import HumanErrorModelError
from repro.human import expected_errors_per_year
from repro.storage import DiskSubsystem, RaidGeometry


class TestHraHelpers:
    def test_expected_errors_per_year_exascale(self):
        # The paper's motivation: an exa-scale centre sees >8760 replacements
        # a year, so even hep = 0.001 means multiple errors per year.
        errors = expected_errors_per_year(0.001, interventions_per_year=8760.0)
        assert errors == pytest.approx(8.76)
        with pytest.raises(HumanErrorModelError):
            expected_errors_per_year(2.0, 100.0)
        for interventions in (-1.0, float("nan"), float("inf")):
            with pytest.raises(HumanErrorModelError):
                expected_errors_per_year(0.01, interventions)

    def test_hep_bounds_are_inclusive(self):
        assert expected_errors_per_year(0.0, 8760.0) == 0.0
        assert expected_errors_per_year(1.0, 8760.0) == 8760.0
        assert expected_errors_per_year(0.01, 0.0) == 0.0

    @pytest.mark.parametrize("hep", [-0.1, 1.1, float("nan")])
    def test_invalid_hep_rejected(self, hep):
        with pytest.raises(HumanErrorModelError):
            expected_errors_per_year(hep, 100.0)

    def test_errors_follow_the_fleet_replacements(self):
        # A million disks at lambda = 1e-6/h need 8760 replacements a year.
        fleet = DiskSubsystem.for_usable_capacity(RaidGeometry.raid5(3), usable_disks=750_000)
        replacements = fleet.expected_disk_failures_per_year(1e-6)
        assert replacements == pytest.approx(8760.0)
        assert expected_errors_per_year(0.001, replacements) == pytest.approx(8.76)
