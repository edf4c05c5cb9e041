"""Tests for the generic sweep engine against the per-point rebuild path."""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

from repro.core.evaluation import (
    analytical_policies,
    analytical_result,
    clear_template_cache,
    evaluate,
)
from repro.core.parameters import paper_parameters
from repro.core.policies.erasure import erasure_policy
from repro.core.sweep import (
    SWEEP_AXES,
    sweep,
    sweep_grid,
    sweep_hep,
    sweep_per_point_rebuild,
    sweep_policies,
)
from repro.exceptions import ConfigurationError
from repro.markov import checker
from repro.storage.raid import RaidGeometry

#: Fig. 4's failure-rate grid (positive part) and Fig. 5's hep grid.
FIG4_RATES = [float(r) for r in np.linspace(5e-7, 5.5e-6, 11)]
FIG5_HEPS = [0.0, 0.001, 0.01]

FAST_PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)


def assert_series_match(engine_points, rebuild_points, tol=1e-12):
    assert len(engine_points) == len(rebuild_points)
    for got, want in zip(engine_points, rebuild_points):
        assert got.x == want.x
        assert got.availability == pytest.approx(want.availability, abs=tol)
        assert got.unavailability == pytest.approx(want.unavailability, abs=tol)


class TestTemplateSweepMatchesRebuild:
    """Acceptance: template sweep == per-point rebuild to 1e-12 on Fig. 4/5 grids."""

    @pytest.mark.parametrize("policy", ["baseline", "conventional", "automatic_failover"])
    @pytest.mark.parametrize("hep", [0.001, 0.01])
    def test_fig4_failure_rate_series(self, policy, hep):
        base = paper_parameters(hep=hep)
        engine = sweep(base, "failure_rate", FIG4_RATES, policy, backend="auto")
        rebuild = sweep_per_point_rebuild(base, "failure_rate", FIG4_RATES, policy)
        assert_series_match(engine, rebuild)

    @pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
    @pytest.mark.parametrize("rate", [1.25e-6, 2.17e-6, 7.96e-6, 2e-5])
    def test_fig5_hep_series(self, policy, rate):
        base = paper_parameters(disk_failure_rate=rate, hep=0.0)
        engine = sweep(base, "hep", FIG5_HEPS, policy, backend="auto")
        rebuild = sweep_per_point_rebuild(base, "hep", FIG5_HEPS, policy)
        assert_series_match(engine, rebuild)

    def test_cold_cache_equivalence(self):
        clear_template_cache()
        base = paper_parameters(hep=0.01)
        engine = sweep(base, "failure_rate", FIG4_RATES, "conventional")
        rebuild = sweep_per_point_rebuild(base, "failure_rate", FIG4_RATES, "conventional")
        assert_series_match(engine, rebuild)

    @pytest.mark.parametrize(
        "axis", ["disk_repair_rate", "ddf_recovery_rate", "human_error_rate", "crash_rate"]
    )
    def test_generic_axes(self, axis):
        base = paper_parameters(hep=0.01)
        values = [0.01, 0.1, 1.0]
        engine = sweep(base, axis, values, "conventional")
        rebuild = sweep_per_point_rebuild(base, axis, values, "conventional")
        assert_series_match(engine, rebuild)

    def test_crash_rate_zero_switches_structure(self):
        # crash_rate = 0 drops the DU -> DL edge; the engine must evaluate it
        # on the reduced template, exactly like a fresh build does.
        base = paper_parameters(hep=0.01)
        values = [0.0, 0.005, 0.01]
        engine = sweep(base, "crash_rate", values, "conventional")
        rebuild = sweep_per_point_rebuild(base, "crash_rate", values, "conventional")
        assert_series_match(engine, rebuild)

    def test_interleaved_hep_zero_points(self):
        base = paper_parameters(hep=0.0)
        values = [0.01, 0.0, 0.001, 0.0, 0.01]
        engine = sweep(base, "hep", values, "conventional")
        rebuild = sweep_per_point_rebuild(base, "hep", values, "conventional")
        assert_series_match(engine, rebuild)


class TestSweepBehaviour:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "warp_factor", [0.1], "conventional")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "hep", [], "conventional")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "hep", [0.01], "conventional", backend="psychic")

    def test_axis_aliases(self):
        base = paper_parameters(hep=0.01)
        assert SWEEP_AXES["failure_rate"] == "disk_failure_rate"
        a = sweep(base, "failure_rate", [1e-6], "conventional")
        b = sweep(base, "disk_failure_rate", [1e-6], "conventional")
        assert a[0].availability == b[0].availability

    def test_monte_carlo_backend_attaches_intervals(self):
        points = sweep(
            FAST_PARAMS, "hep", [0.01, 0.05], "conventional",
            backend="monte_carlo", mc_iterations=500, seed=2,
        )
        for point in points:
            assert point.has_interval
            assert point.ci_lower <= point.availability <= point.ci_upper
            assert {"ci_lower", "ci_upper"} <= set(point.as_dict())

    def test_auto_backend_uses_monte_carlo_for_chainless_policy(self):
        from repro.core.policies import hot_spare_policy

        points = sweep(
            FAST_PARAMS, "hep", [0.05], hot_spare_policy(2),
            backend="auto", mc_iterations=400, seed=2,
        )
        assert points[0].has_interval

    def test_analytical_points_keep_legacy_dict_shape(self):
        point = sweep_hep(paper_parameters(), [0.01])[0]
        assert set(point.as_dict()) == {"x", "availability", "unavailability", "nines"}

    def test_sweep_policies_accepts_custom_policy_instances(self):
        from repro.core.policies import get_policy

        series = sweep_policies(
            paper_parameters(), [0.001, 0.01],
            models=[get_policy("conventional"), "automatic_failover"],
        )
        assert set(series) == {"conventional", "automatic_failover"}

    def test_per_point_mc_sweep_matches_single_study(self):
        # The retained per-point engine keeps the pre-stacked guarantee: a
        # one-point sweep is bitwise the same run as a single study.
        from repro.core.evaluation import evaluate

        points = sweep(
            FAST_PARAMS, "hep", [0.05], "conventional",
            backend="monte_carlo", mc_iterations=600, seed=9,
            mc_engine="per_point",
        )
        single = evaluate(
            FAST_PARAMS.with_hep(0.05), "conventional", backend="monte_carlo",
            n_iterations=600, seed=9,
        )
        assert points[0].availability == single.availability
        assert points[0].ci_lower == single.ci_lower

    def test_stacked_mc_sweep_agrees_with_single_study(self):
        # The stacked default lays its streams out per shard (spawn index
        # 0, 1, ...), so it matches a single study at the statistical level:
        # the 99 % intervals of the two estimates of the same scenario must
        # overlap.
        from repro.core.evaluation import evaluate

        points = sweep(
            FAST_PARAMS, "hep", [0.05], "conventional",
            backend="monte_carlo", mc_iterations=600, seed=9,
        )
        single = evaluate(
            FAST_PARAMS.with_hep(0.05), "conventional", backend="monte_carlo",
            n_iterations=600, seed=9,
        )
        assert points[0].has_interval
        low = max(points[0].ci_lower, single.ci_lower)
        high = min(points[0].ci_upper, single.ci_upper)
        assert low <= high


#: Values per sweep axis for the bit-identity tests: zero rungs where the
#: axis allows them (they select reduced chain structures) and a spread of
#: magnitudes elsewhere.
AXIS_VALUES = {
    "hep": [0.0, 1e-4, 0.003, 0.0, 0.3, 1.0],
    "failure_rate": [5e-7, 1e-6, 2.2e-5, 1e-4],
    "disk_failure_rate": [3e-7, 4e-6],
    "repair_rate": [0.01, 0.1, 1.0],
    "disk_repair_rate": [0.05, 0.5],
    "ddf_recovery_rate": [0.01, 0.03, 1.0],
    "human_error_rate": [0.1, 1.0, 10.0],
    "spare_replacement_rate": [0.2, 1.0, 5.0],
    "crash_rate": [0.0, 0.005, 0.05, 0.0],
}


def assert_point_equals(point, x, reference):
    """Exact equality of every field, not approximate agreement."""
    assert point.x == x
    assert point.availability == reference.availability
    assert point.unavailability == reference.unavailability
    assert point.nines == reference.nines


class TestColumnarSweepBitIdentity:
    """The columnar path must equal per-point evaluation byte for byte."""

    def test_axis_table_covers_every_axis(self):
        assert set(AXIS_VALUES) == set(SWEEP_AXES)

    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    @pytest.mark.parametrize("policy", analytical_policies())
    def test_sweep_equals_per_point_evaluate(self, policy, axis):
        base = paper_parameters(disk_failure_rate=2e-6, hep=0.01)
        values = AXIS_VALUES[axis]
        points = sweep(base, axis, values, policy, backend="analytical")
        assert len(points) == len(values)
        for point, value in zip(points, values):
            params = replace(base, **{SWEEP_AXES[axis]: value})
            assert_point_equals(
                point, value, evaluate(params, policy, backend="analytical")
            )

    @pytest.mark.parametrize("method", ["sparse", "power"])
    def test_non_dense_methods_equal_per_point_evaluate(self, method):
        base = paper_parameters(hep=0.01)
        values = [0.0, 0.001, 0.05]
        points = sweep(base, "hep", values, "automatic_failover", method=method)
        for point, value in zip(points, values):
            reference = evaluate(
                base.with_hep(value), "automatic_failover",
                backend="analytical", method=method,
            )
            assert_point_equals(point, value, reference)

    @pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
    def test_grid_with_mixed_structure_groups(self, policy):
        # A hep = 0 rung and a crash_rate = 0 column in one call: four
        # chain structures, each solved as its own group.
        base = paper_parameters(disk_failure_rate=5e-6, hep=0.01)
        heps, crashes = [0.0, 0.001, 0.05], [0.0, 0.01, 0.2]
        grid = sweep_grid(base, "hep", heps, "crash_rate", crashes, policy, backend="analytical")
        assert grid.shape == (3, 3)
        assert grid.values1 == tuple(heps) and grid.values2 == tuple(crashes)
        for hep, row in zip(heps, grid.points):
            for crash, point in zip(crashes, row):
                params = replace(base, hep=hep, crash_rate=crash)
                assert_point_equals(
                    point, crash, evaluate(params, policy, backend="analytical")
                )

    @pytest.mark.parametrize(
        ("axis", "bad"),
        [("hep", 1.5), ("failure_rate", -1e-6), ("crash_rate", float("nan"))],
    )
    def test_invalid_values_raise_the_per_point_error(self, axis, bad):
        base = paper_parameters(hep=0.01)
        with pytest.raises(ConfigurationError) as expected:
            replace(base, **{SWEEP_AXES[axis]: bad})
        with pytest.raises(ConfigurationError) as swept:
            sweep(base, axis, [0.01, bad], "conventional", backend="analytical")
        assert str(swept.value) == str(expected.value)
        with pytest.raises(ConfigurationError) as gridded:
            sweep_grid(base, "repair_rate", [0.1], axis, [bad], "conventional", backend="analytical")
        assert str(gridded.value) == str(expected.value)


class TestErasureSweepOperatorReuse:
    """Periodic sweeps build the cycle operator once per non-hep group."""

    POLICY = erasure_policy(3, 10, repair_threshold=8)
    BASE = paper_parameters(geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=1e-5)

    @pytest.fixture
    def operator_calls(self, monkeypatch):
        calls = []
        original = checker.chain_cycle_operator

        def counting(chain, period_hours, method="expm"):
            calls.append(chain.generator_matrix())
            return original(chain, period_hours, method)

        monkeypatch.setattr(checker, "chain_cycle_operator", counting)
        return calls

    @pytest.mark.parametrize("method", ["auto", "uniformization"])
    def test_hep_sweep_builds_one_operator(self, operator_calls, method):
        heps = [0.0, 1e-4, 0.01, 0.5, 1.0]
        points = sweep(self.BASE, "hep", heps, self.POLICY, backend="analytical", method=method)
        assert len(operator_calls) == 1
        for point, hep in zip(points, heps):
            reference = analytical_result(self.BASE.with_hep(hep), self.POLICY, method=method)
            assert_point_equals(point, hep, reference)

    def test_rate_sweep_recomputes_the_operator_per_rate(self, operator_calls):
        rates = [1e-6, 1e-5, 1e-4, 1e-5]
        points = sweep(self.BASE, "failure_rate", rates, self.POLICY, backend="analytical")
        # Three distinct rates, three operators, each from its own generator.
        assert len(operator_calls) == 3
        assert not np.array_equal(operator_calls[0], operator_calls[1])
        for point, rate in zip(points, rates):
            reference = analytical_result(
                self.BASE.with_failure_rate(rate), self.POLICY
            )
            assert_point_equals(point, rate, reference)

    def test_grid_groups_by_rate(self, operator_calls):
        rates, heps = [1e-6, 1e-4], [0.0, 0.01, 0.2]
        grid = sweep_grid(
            self.BASE, "failure_rate", rates, "hep", heps, self.POLICY, backend="analytical"
        )
        assert len(operator_calls) == len(rates)
        for rate, row in zip(rates, grid.points):
            for hep, point in zip(heps, row):
                params = self.BASE.with_failure_rate(rate).with_hep(hep)
                assert_point_equals(point, hep, analytical_result(params, self.POLICY))

    def test_per_point_rebuild_matches(self):
        heps = [0.0, 0.01, 0.3]
        fast = sweep(self.BASE, "hep", heps, self.POLICY, backend="analytical")
        slow = sweep_per_point_rebuild(self.BASE, "hep", heps, self.POLICY)
        assert fast == slow
