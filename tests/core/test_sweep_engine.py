"""Tests for the generic sweep engine against the per-point rebuild path.

:data:`RETIRED_SWEEP` keeps the per-point point builder and the per-point
checker-cycle loop that the bulk constructor and the batched fixed-point
solve replaced, verbatim, as oracles; :func:`retired_sweep_paths` patches
them (and the one-matrix checker solve) back into the engine.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from typing import Dict, List, Sequence
from unittest import mock

import numpy as np
import pytest

from repro.availability.metrics import availability_to_nines
from repro.core.evaluation import (
    analytical_policies,
    analytical_result,
    clear_template_cache,
    evaluate,
)
from repro.core.parameters import AvailabilityParameters, paper_parameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.erasure import erasure_policy
from repro.core.sweep import (
    SWEEP_AXES,
    SweepPoint,
    sweep,
    sweep_failure_rate,
    sweep_grid,
    sweep_hep,
    sweep_hep_for_failure_rates,
    sweep_policies,
)
from repro.exceptions import ConfigurationError
from repro.markov import checker
from repro.storage.raid import RaidGeometry
from tests.core.rebuild_oracle import sweep_per_point_rebuild
from tests.markov.test_checker import (
    ORACLE_HEPS,
    ORACLE_PERIODS,
    ORACLE_RATES,
    ORACLE_SCHEMES,
    RETIRED_CHECKER,
)

# ``repro.core`` re-exports the ``sweep`` function under the module's name.
sweep_module = importlib.import_module("repro.core.sweep")
_params_at = sweep_module._params_at


def _retired_points_from_availability(
    availability: np.ndarray, xs: Sequence[float]
) -> List[SweepPoint]:
    # Column-wise twin of availability_from_up_mass: the caller summed the
    # up-state mass left to right from 0, as the scalar path does; clip and
    # convert the same way, point by point.
    clipped = np.minimum(np.maximum(availability, 0.0), 1.0).tolist()
    return [
        SweepPoint(
            x=x,
            availability=value,
            unavailability=1.0 - value,
            nines=availability_to_nines(value),
        )
        for x, value in zip(xs, clipped)
    ]


def _retired_periodic_availability(
    base: AvailabilityParameters,
    swept: Dict[str, np.ndarray],
    k: int,
    policy: SimulationPolicy,
    method: str,
) -> np.ndarray:
    """Return the checker-cycle availability column of a periodic sweep.

    The between-checks decay chain and its cycle operator ``(M, OCC)``
    depend on every parameter except ``hep``, which only enters the
    check-instant repair matrix.  Rows are therefore grouped by their
    non-hep values; each group builds its chain and operator once, and
    each point solves only its own repair matrix and cycle fixed point —
    the same arithmetic as :func:`repro.core.evaluation.analytical_result`.
    """
    others = [field for field in swept if field != "hep"]
    keys = list(zip(*(swept[field].tolist() for field in others))) or [()] * k
    heps = swept["hep"].tolist() if "hep" in swept else [base.hep] * k
    groups: Dict[tuple, List[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    checker_method = "uniformization" if method == "uniformization" else "expm"
    availability = np.empty(k)
    for rows in groups.values():
        params = _params_at(base, swept, rows[0])
        scheme = policy.scheme.resolve(params)
        chain = policy.build_chain(params)
        period = float(scheme.check_period_hours)
        m, occ = checker.chain_cycle_operator(chain, period, checker_method)
        occupancy = []
        for row in rows:
            repair = checker.check_repair_matrix(
                chain, scheme.n_shares, scheme.k, scheme.repair_threshold, heps[row]
            )
            occupancy.append(checker.cycle_start_distribution(m @ repair) @ occ)
        fractions = np.array(occupancy) / period
        availability[rows] = sum(fractions[:, chain.index_of(s)] for s in chain.up_states())
    return availability


#: The per-point sweep paths the bulk constructor and the batched
#: checker-cycle solve replaced, by their names in ``repro.core.sweep``.
RETIRED_SWEEP = {
    "_points_from_availability": _retired_points_from_availability,
    "_periodic_availability": _retired_periodic_availability,
}


@contextlib.contextmanager
def retired_sweep_paths():
    """Run the engine on the retired per-point paths; yield their call counts."""
    calls = dict.fromkeys(list(RETIRED_SWEEP) + list(RETIRED_CHECKER), 0)

    def counted(name, oracle):
        def call(*args, **kwargs):
            calls[name] += 1
            return oracle(*args, **kwargs)

        return call

    with mock.patch.multiple(
        sweep_module, **{name: counted(name, f) for name, f in RETIRED_SWEEP.items()}
    ), mock.patch.multiple(
        checker, **{name: counted(name, f) for name, f in RETIRED_CHECKER.items()}
    ):
        yield calls


def hex_dump(points) -> List[tuple]:
    """Every field of every point, floats as ``float.hex``."""
    return [
        tuple(
            (name, value.hex() if isinstance(value, float) else value)
            for name, value in vars(point).items()
        )
        for point in points
    ]

#: Fig. 4's failure-rate grid (positive part) and Fig. 5's hep grid.
FIG4_RATES = [float(r) for r in np.linspace(5e-7, 5.5e-6, 11)]
FIG5_HEPS = [0.0, 0.001, 0.01]

FAST_PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)

MONTH_HOURS = 730.0


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
        with pytest.raises(ConfigurationError):
            sweep(paper_parameters(), "hep", np.array([]), "conventional")

    @pytest.mark.parametrize(
        "run",
        [
            lambda heps, rates: sweep(paper_parameters(), "hep", heps),
            lambda heps, rates: sweep_grid(
                paper_parameters(), "hep", heps, "failure_rate", rates
            ).points,
            lambda heps, rates: sweep_hep(paper_parameters(), heps),
            lambda heps, rates: sweep_failure_rate(paper_parameters(), rates),
            lambda heps, rates: sweep_hep_for_failure_rates(
                paper_parameters(), heps, rates
            ),
        ],
        ids=["sweep", "sweep_grid", "sweep_hep", "sweep_failure_rate",
             "sweep_hep_for_failure_rates"],
    )
    def test_numpy_axis_values_equal_list_values(self, run):
        heps, rates = np.logspace(-4, -2, 3), np.array([1e-6, 1e-5])
        assert run(heps, rates) == run(heps.tolist(), rates.tolist())

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


def assert_same_as_constructed(point: SweepPoint) -> None:
    """An engine-built point is indistinguishable from ``SweepPoint(...)``."""
    twin = SweepPoint(**{f.name: getattr(point, f.name) for f in fields(SweepPoint)})
    assert list(vars(point).items()) == list(vars(twin).items())
    assert point == twin and hash(point) == hash(twin) and repr(point) == repr(twin)
    assert pickle.dumps(point) == pickle.dumps(twin)
    clone = pickle.loads(pickle.dumps(point))
    assert clone == point and list(vars(clone).items()) == list(vars(point).items())
    with pytest.raises(FrozenInstanceError):
        point.availability = 0.5


class TestBulkPointsAndBatchedCycles:
    """Bulk-built points and batched fixed points equal the per-point oracles."""

    @staticmethod
    def _erasure(scheme, rate=1e-4, period=MONTH_HOURS, hep=0.1):
        k, n, threshold = scheme
        policy = erasure_policy(k, n, repair_threshold=threshold, check_period_hours=period)
        base = paper_parameters(
            geometry=RaidGeometry.erasure(k, n), disk_failure_rate=rate, hep=hep
        )
        return policy, base

    @staticmethod
    def _assert_matches_oracle(run):
        with retired_sweep_paths() as calls:
            expected = run()
        got = run()
        assert hex_dump(got) == hex_dump(expected)
        return calls

    @pytest.mark.parametrize(
        ("scheme", "rate", "period", "method"),
        # Every oracle case on the exact operator; the uniformization
        # reference at the monthly period.
        list(itertools.product(ORACLE_SCHEMES, ORACLE_RATES, ORACLE_PERIODS, ["auto"]))
        + list(itertools.product(ORACLE_SCHEMES, ORACLE_RATES, [MONTH_HOURS], ["uniformization"])),
    )
    def test_erasure_hep_sweep(self, scheme, rate, period, method):
        policy, base = self._erasure(scheme, rate, period)
        calls = self._assert_matches_oracle(
            lambda: sweep(base, "hep", ORACLE_HEPS, policy, backend="analytical", method=method)
        )
        assert calls["_periodic_availability"] == 1
        assert calls["cycle_start_distribution"] == len(ORACLE_HEPS)

    @pytest.mark.parametrize("method", ["auto", "uniformization"])
    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES)
    def test_erasure_failure_rate_sweep(self, scheme, method):
        policy, base = self._erasure(scheme, hep=0.3)
        rates = [1e-6, 1e-4, 1e-3, 1e-4, 2e-5]
        calls = self._assert_matches_oracle(
            lambda: sweep(base, "failure_rate", rates, policy, backend="analytical", method=method)
        )
        assert calls["cycle_start_distribution"] == len(rates)

    @pytest.mark.parametrize("method", ["auto", "uniformization"])
    def test_erasure_grouped_grid(self, method):
        # Both axis orders: rate-major and hep-major rows group alike.
        policy, base = self._erasure((3, 10, 8))
        rates = [1e-6, 1e-3, 1e-4]
        calls = self._assert_matches_oracle(
            lambda: [
                point
                for axes in (
                    ("failure_rate", rates, "hep", ORACLE_HEPS),
                    ("hep", ORACLE_HEPS, "failure_rate", rates),
                )
                for row in sweep_grid(
                    base, *axes, policy, backend="analytical", method=method
                ).points
                for point in row
            ]
        )
        assert calls["_periodic_availability"] == 2
        assert calls["cycle_start_distribution"] == 2 * len(rates) * len(ORACLE_HEPS)

    @pytest.mark.parametrize("policy", analytical_policies())
    def test_template_grid_points(self, policy):
        # hep = 0 and crash_rate = 0 rungs select the reduced structures.
        base = paper_parameters(disk_failure_rate=2e-6, hep=0.01)
        heps, crashes = [0.0, 1e-4, 0.01, 0.3], [0.0, 0.005, 0.2]
        calls = self._assert_matches_oracle(
            lambda: [
                point
                for row in sweep_grid(
                    base, "hep", heps, "crash_rate", crashes, policy, backend="analytical"
                ).points
                for point in row
            ]
        )
        assert calls["_points_from_availability"] == 1

    def test_engine_points_equal_constructed_points(self):
        policy, base = self._erasure((3, 10, 8))
        points = sweep(base, "hep", ORACLE_HEPS, policy, backend="analytical")
        points += sweep(paper_parameters(), "hep", [0.0, 0.01], "conventional")
        for point in points:
            assert_same_as_constructed(point)

    def test_monte_carlo_points_equal_constructed_points(self):
        points = sweep(
            FAST_PARAMS, "hep", [0.01, 0.05], "conventional",
            backend="monte_carlo", mc_iterations=400, seed=3,
        )
        assert len(points) == 2 and all(point.has_interval for point in points)
        for point in points:
            assert_same_as_constructed(point)
