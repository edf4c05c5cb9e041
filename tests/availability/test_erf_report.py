"""Unit tests for ERF sizing and report tables."""

from __future__ import annotations

import pytest

from repro.availability import (
    Table,
    erf_for_geometry,
    erf_raid1,
    erf_raid5,
    erf_raid6,
    erf_table,
    format_availability,
    format_nines,
    plan_equal_usable_capacity,
    smallest_common_usable_capacity,
    table_from_series,
)
from repro.exceptions import RaidConfigurationError


class TestErf:
    def test_paper_values(self):
        table = erf_table()
        assert table["RAID1(1+1)"] == pytest.approx(2.0)
        assert table["RAID5(3+1)"] == pytest.approx(4 / 3)
        assert table["RAID5(7+1)"] == pytest.approx(8 / 7)

    def test_erf_functions(self):
        assert erf_raid1(3) == 3.0
        assert erf_raid5(7) == pytest.approx(8 / 7)
        assert erf_raid6(6) == pytest.approx(8 / 6)
        assert erf_for_geometry(4, 2, copies=2) == pytest.approx(3.0)

    def test_erf_validation(self):
        with pytest.raises(RaidConfigurationError):
            erf_raid1(1)
        with pytest.raises(RaidConfigurationError):
            erf_raid5(1)
        with pytest.raises(RaidConfigurationError):
            erf_for_geometry(0, 1)

    def test_capacity_plan(self):
        plan = plan_equal_usable_capacity(21, data_disks_per_array=3, disks_per_array=4)
        assert plan.arrays == 7
        assert plan.total_disks == 28
        assert plan.erf == pytest.approx(4 / 3)

    def test_capacity_plan_divisibility(self):
        with pytest.raises(RaidConfigurationError):
            plan_equal_usable_capacity(20, data_disks_per_array=3, disks_per_array=4)

    def test_smallest_common_capacity(self):
        assert smallest_common_usable_capacity(1, 3, 7) == 21
        assert smallest_common_usable_capacity(2, 4) == 4
        with pytest.raises(RaidConfigurationError):
            smallest_common_usable_capacity()


class TestReportTables:
    def test_add_row_and_render(self):
        table = Table(title="demo", columns=["x", "y"])
        table.add_row(x=1, y=2.5).add_row(x=2, y=3.5)
        table.add_note("a note")
        text = table.render()
        assert "demo" in text and "a note" in text
        assert table.column("y") == [2.5, 3.5]

    def test_unknown_column_rejected(self):
        table = Table(title="demo", columns=["x"])
        with pytest.raises(KeyError):
            table.add_row(z=1)
        with pytest.raises(KeyError):
            table.column("z")

    def test_missing_cells_render_as_dash(self):
        table = Table(title="demo", columns=["x", "y"])
        table.add_row(x=1)
        assert "-" in table.render()

    def test_table_from_series(self):
        table = table_from_series(
            "fig", "hep", [0.0, 0.01], {"a": [1.0, 2.0], "b": [3.0, 4.0]}, notes=["n"]
        )
        assert table.columns == ["hep", "a", "b"]
        assert len(table.rows) == 2

    def test_table_from_series_length_mismatch(self):
        with pytest.raises(ValueError):
            table_from_series("fig", "x", [1, 2], {"a": [1.0]})

    def test_formatters(self):
        assert format_nines(7.236) == "7.24 nines"
        assert format_availability(0.999999).startswith("0.999999")

    def test_to_dicts_copy(self):
        table = Table(title="demo", columns=["x"])
        table.add_row(x=1)
        rows = table.to_dicts()
        rows[0]["x"] = 99
        assert table.rows[0]["x"] == 1
