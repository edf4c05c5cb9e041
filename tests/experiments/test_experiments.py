"""Unit tests for the experiment (figure reproduction) modules."""

from __future__ import annotations

import pytest

from repro.experiments import (
    FIG5_FIELD_RATES,
    FIG6_FAILURE_RATES,
    HEP_SWEEP,
    fig4_failure_rates,
    fig5_parameter_sets,
    fig6_configurations,
    raid5_3_1_parameters,
)
from repro.experiments.cross_validation import (
    all_within_ci,
    cross_validation_table,
    run_cross_validation,
)
from repro.experiments.fig4_validation import (
    agreement_fraction,
    fig4_table,
    run_fig4_validation,
)
from repro.experiments.fig5_hep_sweep import availability_drops, fig5_table, run_fig5_sweep
from repro.experiments.fig6_raid_comparison import (
    fig6_tables,
    raid1_loses_lead,
    rankings_by_point,
    run_fig6_comparison,
)
from repro.experiments.fig7_failover import (
    fig7_table,
    improvement_by_hep,
    run_fig7_comparison,
)
from repro.experiments.hot_spare import (
    best_pool_size,
    hot_spare_table,
    run_hot_spare_study,
)
from repro.experiments.underestimation import (
    headline_factor,
    run_underestimation_study,
    underestimation_table,
)


class TestConfig:
    def test_hep_sweep_matches_paper(self):
        assert HEP_SWEEP == (0.0, 0.001, 0.01)

    def test_fig6_failure_rates(self):
        assert FIG6_FAILURE_RATES == (1e-5, 1e-6, 1e-7)

    def test_fig4_grid(self):
        rates = fig4_failure_rates(n_points=11)
        assert len(rates) == 11
        assert rates[-1] == pytest.approx(5.5e-6)
        assert rates[0] > 0.0
        with pytest.raises(ValueError):
            fig4_failure_rates(n_points=1)

    def test_fig5_parameter_sets(self):
        sets = fig5_parameter_sets(hep=0.01)
        assert len(sets) == len(FIG5_FIELD_RATES)
        for params in sets.values():
            assert params.hep == 0.01
            assert params.failure_shape > 1.0

    def test_fig6_configurations(self):
        labels = [g.label for g in fig6_configurations()]
        assert labels == ["RAID1(1+1)", "RAID5(3+1)", "RAID5(7+1)"]

    def test_raid5_3_1_parameters(self):
        params = raid5_3_1_parameters(hep=0.01, failure_rate=2e-6)
        assert params.geometry.label == "RAID5(3+1)" and params.hep == 0.01


class TestFig4:
    def test_validation_small_grid(self):
        # The paper's grid needs ~1e6 iterations for tight intervals; the
        # unit test uses exaggerated failure rates so 4000 iterations see
        # enough events for the Markov value to land inside the MC interval.
        points = run_fig4_validation(
            failure_rates=[5e-5, 1e-4],
            hep_values=(0.01,),
            mc_iterations=4000,
            mc_horizon_hours=87_600.0,
            seed=1,
        )
        assert len(points) == 2
        assert agreement_fraction(points) >= 0.5
        table = fig4_table(points)
        assert len(table.rows) == 2
        assert "markov_within_ci" in table.columns
        payload = points[0].as_dict()
        assert "mc_ci_low" in payload


class TestCrossValidation:
    def test_every_dual_face_policy_within_ci(self):
        rows = run_cross_validation(mc_iterations=4000, seed=0)
        assert {row.policy for row in rows} == {
            "baseline", "conventional", "automatic_failover",
        }
        assert all_within_ci(rows)
        for row in rows:
            assert row.mc_ci_low <= row.analytical_availability <= row.mc_ci_high
            assert row.mc_half_width > 0.0
            assert row.n_iterations >= 4000

    def test_table_and_serialisation(self):
        rows = run_cross_validation(mc_iterations=2000, seed=1)
        table = cross_validation_table(rows)
        assert len(table.rows) == len(rows)
        assert "within_ci" in table.columns
        payload = rows[0].as_dict()
        assert {"policy", "analytical_availability", "within_ci"} <= set(payload)

    def test_custom_policy_subset(self):
        rows = run_cross_validation(
            policies=["conventional"], mc_iterations=2000, seed=0
        )
        assert [row.policy for row in rows] == ["conventional"]

    def test_empty_rows_fail_the_acceptance_check(self):
        assert not all_within_ci([])


class TestFig5:
    def test_sweep_shape(self):
        series = run_fig5_sweep()
        assert len(series) == 4
        for entry in series:
            assert entry.hep_values == [0.0, 0.001, 0.01]
            assert len(entry.markov_nines) == 3
            # Availability decreases with hep.
            assert entry.markov_nines[0] >= entry.markov_nines[1] >= entry.markov_nines[2]

    def test_lower_failure_rate_higher_availability(self):
        series = sorted(run_fig5_sweep(), key=lambda s: s.disk_failure_rate)
        assert series[0].markov_nines[0] > series[-1].markov_nines[0]

    def test_drop_grows_for_lower_failure_rates(self):
        series = sorted(run_fig5_sweep(), key=lambda s: s.disk_failure_rate)
        drops = availability_drops(series)
        assert drops[series[0].label] > drops[series[-1].label]

    def test_table_rendering(self):
        table = fig5_table(run_fig5_sweep())
        assert len(table.rows) == 3
        assert len(table.columns) == 5
        with pytest.raises(ValueError):
            fig5_table([])

    def test_surface_matches_per_series_sweep(self):
        # The one-call hep x lambda surface, whose rows are the Fig. 5
        # series, must equal one 1-D sweep per rate bit for bit (same
        # template engine, same points).
        from repro.core.parameters import paper_parameters
        from repro.core.sweep import sweep_hep
        from repro.experiments.fig5_hep_sweep import fig5_surface_table, run_fig5_surface
        from repro.storage.raid import RaidGeometry

        surface = run_fig5_surface()
        series = run_fig5_sweep()
        assert surface.shape == (4, 3)
        for (rate, _), entry, row in zip(FIG5_FIELD_RATES, series, surface.nines_matrix()):
            base = paper_parameters(
                geometry=RaidGeometry.raid5(3), disk_failure_rate=rate, hep=0.0
            )
            swept = sweep_hep(base, entry.hep_values, model="conventional")
            assert entry.markov_nines == row == [point.nines for point in swept]
        table = fig5_surface_table(surface)
        assert len(table.rows) == 3 and len(table.columns) == 5

    def test_reproduce_solves_the_fig5_sheet_once(self, monkeypatch):
        # Both Fig. 5 tables of a reproduction come from one surface grid;
        # the series sweep would solve the same sheet a second time.
        from repro.experiments import fig5_hep_sweep, run_all_experiments

        grids = []
        sweep_grid = fig5_hep_sweep.sweep_grid

        def counted(*args, **kwargs):
            grids.append(args)
            return sweep_grid(*args, **kwargs)

        def second_solve(*args, **kwargs):
            raise AssertionError("the Fig. 5 series were solved apart from the surface")

        monkeypatch.setattr(fig5_hep_sweep, "sweep_grid", counted)
        monkeypatch.setattr(fig5_hep_sweep, "run_fig5_sweep", second_solve)
        report = run_all_experiments(include_monte_carlo=False)
        assert len(grids) == 1
        assert sum(table.title.startswith("Fig. 5") for table in report.tables) == 2

    def test_surface_runs_on_monte_carlo_backend(self):
        from repro.experiments.fig5_hep_sweep import run_fig5_surface

        surface = run_fig5_surface(
            hep_values=[0.0, 0.01],
            failure_rates=[1e-4],
            backend="monte_carlo",
            mc_iterations=400,
            mc_horizon_hours=50_000.0,
            seed=3,
        )
        assert surface.shape == (1, 2)
        for point in surface.row(0):
            assert point.has_interval


class TestFig6:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_fig6_comparison()

    def test_grid_size(self, cells):
        assert len(cells) == 3 * 3 * 3  # rates x heps x configurations

    def test_raid1_best_without_human_error(self, cells):
        for rate in FIG6_FAILURE_RATES:
            assert not raid1_loses_lead(cells, rate, 0.0)

    def test_raid1_not_best_with_human_error_at_low_rates(self, cells):
        assert raid1_loses_lead(cells, 1e-6, 0.01)
        assert raid1_loses_lead(cells, 1e-7, 0.01)

    def test_rankings_exposed(self, cells):
        rankings = rankings_by_point(cells)
        assert rankings["lambda=1e-05 hep=0"][0] == "RAID1(1+1)"
        assert rankings["lambda=1e-06 hep=0.01"][0] != "RAID1(1+1)"

    def test_tables_one_per_rate(self, cells):
        tables = fig6_tables(cells)
        assert len(tables) == 3
        for table in tables:
            assert len(table.rows) == 3

    def test_unknown_point_rejected(self, cells):
        with pytest.raises(ValueError):
            raid1_loses_lead(cells, 123.0, 0.5)


class TestFig7:
    def test_comparison_points(self):
        points = run_fig7_comparison()
        assert [p.hep for p in points] == [0.0, 0.001, 0.01]
        # The policies coincide at hep = 0 and diverge as hep grows.
        assert points[0].improvement_factor == pytest.approx(1.0, rel=0.05)
        assert points[1].improvement_factor > 1.0
        assert points[2].improvement_factor > points[1].improvement_factor

    def test_failover_always_at_least_as_good(self):
        for point in run_fig7_comparison():
            assert point.failover_availability >= point.conventional_availability - 1e-15

    def test_improvement_mapping_and_table(self):
        points = run_fig7_comparison()
        improvements = improvement_by_hep(points)
        assert set(improvements) == {0.0, 0.001, 0.01}
        table = fig7_table(points)
        assert "Delayed-Disk-Replacement" in table.columns
        assert len(table.rows) == 3


class TestHotSpareStudy:
    def test_policy_ladder_and_table(self):
        points = run_hot_spare_study(pool_sizes=(2,), mc_iterations=800, seed=5)
        assert [p.policy for p in points] == [
            "conventional", "automatic_failover", "hot_spare_pool_k2",
        ]
        assert points[0].improvement_over_conventional == pytest.approx(1.0)
        assert all(0.0 < p.availability <= 1.0 for p in points)
        table = hot_spare_table(points)
        assert len(table.rows) == 3
        assert "hot-spare" in table.title
        assert best_pool_size(points) in {0, 1, 2}
        payload = points[-1].as_dict()
        assert payload["n_spares"] == 2


class TestUnderestimation:
    def test_study_and_headline(self):
        study = run_underestimation_study(failure_rates=[1e-7, 1e-6, 1e-5])
        assert set(study) == {0.001, 0.01}
        headline = headline_factor(failure_rates=[1e-7, 1e-6, 1e-5])
        assert headline.factor > 50.0
        table = underestimation_table(study)
        assert len(table.rows) == 6

    def test_headline_exceeds_two_orders_on_default_grid(self):
        assert headline_factor().factor > 100.0
