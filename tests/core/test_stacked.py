"""Tests for the stacked-grid Monte Carlo engine.

Covers the per-lifetime parameter grids (``StackedParams``), the flattened
``point x lifetime`` shard planning, statistical equivalence between the
stacked engine and one independent study per point for every registered
policy, bit-identical worker-count independence, per-point replay, the
variance-reduction guarantee of the common-random-numbers mode, and
policies whose kernels cannot take a stacked grid.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core.evaluation import evaluate, evaluate_stacked
from repro.core.montecarlo import (
    DEFAULT_STACKED_SHARD_SIZE,
    MonteCarloConfig,
    plan_stacked_shards,
    replay_stacked_point,
    run_monte_carlo,
    run_stacked,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import (
    available_policies,
    batch_spare_pool,
    get_policy,
    stack_parameter_points,
)
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.stacked import (
    OPTIONAL_PLANE_FIELD,
    SCHEME_PLANE_FIELDS,
    STACKED_PLANE_FIELDS,
)
from repro.core.policies.erasure import erasure_policy
from repro.core.sweep import sweep
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.confidence import StreamingMoments, segmented_moments
from repro.storage.raid import RaidGeometry

#: Exaggerated stress point where estimates separate quickly.
STRESS = dict(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _configs(heps, policy="conventional", n=1200, seed=13, **overrides):
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=STRESS["disk_failure_rate"], hep=hep),
            policy=policy,
            n_iterations=n,
            horizon_hours=HORIZON,
            seed=seed,
            **overrides,
        )
        for hep in heps
    ]


def _unstacked_policy() -> SimulationPolicy:
    """The conventional model whose batch kernel has no stacked support."""
    conventional = get_policy("conventional")
    return SimulationPolicy(
        name="unstacked_test_policy",
        description="batch kernel without stacked support",
        scalar=conventional.scalar,
        batch=conventional.batch,
    )


def _scalar_only_policy() -> SimulationPolicy:
    """The conventional model with its scalar face only (no batch kernel)."""
    return SimulationPolicy(
        name="scalar_only_test_policy",
        description="scalar simulator only",
        scalar=get_policy("conventional").scalar,
    )


#: Erasure 3-of-10 with a repair threshold of 8: its grids carry every
#: optional plane (spare pools and the three scheme planes).
ERASURE = erasure_policy(3, 10, repair_threshold=8)


def _two_axis_erasure_points():
    return [
        paper_parameters(
            geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=rate, hep=hep
        )
        for rate in (1e-5, 1e-4)
        for hep in (0.001, 0.01)
    ]


def _two_axis_erasure_grid():
    """A 2 x 2 failure-rate x hep grid whose other planes are all constant."""
    points = _two_axis_erasure_points()
    counts = [3, 2, 4, 1]
    grid = stack_parameter_points(
        points, counts, n_spares=[2] * len(points), schemes=[ERASURE.scheme] * len(points)
    )
    return grid, counts


def _intervals_overlap(a, b) -> bool:
    return max(a.interval.lower, b.interval.lower) <= min(
        a.interval.upper, b.interval.upper
    )


class TestStackedParams:
    def test_stacking_expands_points_by_count(self):
        points = [paper_parameters(hep=0.0), paper_parameters(hep=0.5)]
        grid = stack_parameter_points(points, [3, 2])
        assert len(grid) == 5
        assert list(grid.hep) == [0.0, 0.0, 0.0, 0.5, 0.5]
        assert grid.n_disks == 4

    def test_slice_is_a_contiguous_view_of_the_grid(self):
        grid = stack_parameter_points(
            [paper_parameters(hep=0.1), paper_parameters(hep=0.9)], [2, 2]
        )
        part = grid.slice(1, 3)
        assert len(part) == 2
        assert list(part.hep) == [0.1, 0.9]
        with pytest.raises(ConfigurationError):
            grid.slice(3, 3)
        with pytest.raises(ConfigurationError):
            grid.slice(0, 9)

    @pytest.mark.parametrize("crn", [False, True])
    def test_slices_carry_their_shards_point_segments(self, crn):
        # A view-transport shard is a slice of the materialised grid; the
        # memoryless kernels thin each of its point segments on its own, so
        # the slice must carry exactly the shard's counts.
        counts = [5, 7, 4]
        points = [paper_parameters(hep=hep) for hep in (0.1, 0.1, 0.2)]
        grid = stack_parameter_points(points, counts)
        assert grid.segments.tolist() == counts
        for shard in plan_stacked_shards(counts, 6, crn=crn):
            part = grid.slice(shard.start, shard.stop)
            assert part.segments.tolist() == list(shard.counts)
        with pytest.raises(ConfigurationError, match="segments"):
            dataclasses.replace(grid, segments=np.array([5, 7, 3]))

    def test_without_human_error_zeroes_every_row(self):
        grid = stack_parameter_points([paper_parameters(hep=0.3)], [4])
        assert np.all(grid.without_human_error().hep == 0.0)
        assert np.all(grid.hep == 0.3)  # original untouched

    def test_constant_planes_are_read_only_broadcast_views(self):
        grid, counts = _two_axis_erasure_grid()
        swept = {"disk_failure_rate", "hep"}
        spec = STACKED_PLANE_FIELDS + (OPTIONAL_PLANE_FIELD,) + SCHEME_PLANE_FIELDS
        for name in (name for name, _ in spec):
            plane = getattr(grid, name)
            if name in swept:
                assert plane.strides == (plane.itemsize,), name
                assert plane.flags.writeable, name
            else:
                assert plane.strides == (0,), name
                assert not plane.flags.writeable, name
            assert plane.shape == (sum(counts),), name
        assert grid.n_disks_rows.dtype == np.int64
        assert grid.check_period_rows.dtype == np.float64

    def test_broadcast_planes_hold_the_repeated_values(self):
        grid, counts = _two_axis_erasure_grid()
        points = _two_axis_erasure_points()
        scheme = ERASURE.scheme.resolve(points[0])
        expected = {
            "disk_failure_rate": [p.disk_failure_rate for p in points],
            "hep": [p.hep for p in points],
            "crash_rate": [p.crash_rate for p in points],
            "failure_shape": [p.failure_shape for p in points],
            "n_disks_rows": [p.n_disks for p in points],
            "n_spares_rows": [2] * len(points),
            "k_rows": [scheme.k] * len(points),
            "check_period_rows": [scheme.check_period_hours] * len(points),
        }
        for name, values in expected.items():
            assert np.array_equal(getattr(grid, name), np.repeat(values, counts)), name

    def test_slice_and_without_human_error_keep_constant_planes_zero_stride(self):
        grid, _ = _two_axis_erasure_grid()
        part = grid.slice(2, 9)
        assert part.crash_rate.strides == (0,) and part.k_rows.strides == (0,)
        assert part.hep.strides == (8,)
        assert list(part.hep) == list(grid.hep[2:9])
        for zeroed in (grid.without_human_error(), part.without_human_error()):
            assert zeroed.hep.strides == (0,)
            assert not zeroed.hep.flags.writeable
            assert zeroed.hep.dtype == np.float64
            assert np.all(zeroed.hep == 0.0)
        assert np.any(grid.hep > 0.0)  # original untouched

    def test_two_axis_grid_planes_peak_below_eight_megabytes(self):
        # 32 points x 10k lifetimes sweeping hep and failure rate: the two
        # swept planes are 2.56 MB each; materialising all nine planes
        # took 23 MB.
        points = [
            paper_parameters(disk_failure_rate=float(rate), hep=float(hep))
            for rate in np.logspace(-7.0, -4.0, 4)
            for hep in np.logspace(-4.0, -2.0, 8)
        ]
        tracemalloc.start()
        try:
            grid = stack_parameter_points(points, [10_000] * len(points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 320_000
        assert peak < 8_000_000, f"stacking peaked at {peak / 1e6:.1f} MB"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            stack_parameter_points([], [])
        with pytest.raises(ConfigurationError):
            stack_parameter_points([paper_parameters()], [1, 2])
        with pytest.raises(ConfigurationError):
            stack_parameter_points([paper_parameters()], [0])
        with pytest.raises(ConfigurationError):
            stack_parameter_points([paper_parameters()], [2], n_spares=[1, 2])

    def test_mixed_geometry_grid_masks_missing_slots(self):
        points = [
            paper_parameters(geometry=RaidGeometry.raid5(3)),  # 4 disks
            paper_parameters(geometry=RaidGeometry.raid1()),   # 2 disks
        ]
        grid = stack_parameter_points(points, [1, 1])
        assert grid.n_disks == 4
        assert list(grid.n_disks_rows) == [4, 2]

    def test_row_distributions_sample_at_row_rates(self):
        grid = stack_parameter_points(
            [
                paper_parameters(disk_failure_rate=1.0),
                paper_parameters(disk_failure_rate=1e-6),
            ],
            [1, 1],
        )
        dist = grid.failure_distribution()
        rng = np.random.default_rng(0)
        fast = dist.sample_rows(np.zeros(2000, dtype=np.int64), rng)
        slow = dist.sample_rows(np.ones(2000, dtype=np.int64), rng)
        assert fast.mean() == pytest.approx(1.0, rel=0.2)
        assert slow.mean() == pytest.approx(1e6, rel=0.2)
        matrix = dist.sample_matrix(3, np.random.default_rng(1))
        assert matrix.shape == (2, 3)
        assert matrix[1].min() > matrix[0].max()  # rate 1e-6 rows are huge

    @pytest.mark.parametrize("shape", [0.7, 1.09, 1.12, 1.2, 1.3, 1.48, 2.0])
    def test_weibull_row_scale_equals_the_point_scale(self, shape):
        # A one-row grid must draw its point's lifetimes: the same Gamma,
        # hence the same scale to the last bit (Fig. 5 uses 1.12 and 1.48).
        point = paper_parameters(disk_failure_rate=1e-4, failure_shape=shape)
        grid = stack_parameter_points([point], [3])
        assert grid.failure_distribution().scales[0] == point.failure_distribution().scale

    def test_weibull_rows_take_their_own_point_scales(self):
        shapes = [1.12, 1.12, 1.48, 2.0]
        points = [paper_parameters(disk_failure_rate=1e-4, failure_shape=s) for s in shapes]
        scales = stack_parameter_points(points, [2, 1, 3, 1]).failure_distribution().scales
        expected = [p.failure_distribution().scale for p in points]
        assert scales.tolist() == np.repeat(expected, [2, 1, 3, 1]).tolist()


class TestSegmentedMoments:
    def test_matches_per_segment_from_samples(self):
        rng = np.random.default_rng(5)
        data = rng.random(100)
        counts = [10, 50, 40]
        segmented = segmented_moments(data, counts)
        offset = 0
        for count, moments in zip(counts, segmented):
            reference = StreamingMoments.from_samples(data[offset : offset + count])
            assert moments.n == reference.n
            assert moments.mean == pytest.approx(reference.mean, abs=1e-15)
            assert moments.m2 == pytest.approx(reference.m2, abs=1e-12)
            offset += count

    def test_validation(self):
        with pytest.raises(SimulationError):
            segmented_moments([1.0, 2.0], [1, 2])
        with pytest.raises(SimulationError):
            segmented_moments([1.0], [0, 1])
        with pytest.raises(SimulationError):
            segmented_moments([], [])


class TestStackedShardPlanning:
    def test_flat_shards_tile_the_whole_axis(self):
        shards = plan_stacked_shards([5, 7, 4], 6)
        assert [(s.start, s.stop) for s in shards] == [(0, 6), (6, 12), (12, 16)]
        assert [s.stream_index for s in shards] == [0, 1, 2]
        # Segment counts per shard line up with the point boundaries 5/12/16.
        assert shards[0].point_indices == (0, 1) and shards[0].counts == (5, 1)
        assert shards[1].point_indices == (1,) and shards[1].counts == (6,)
        assert shards[2].point_indices == (2,) and shards[2].counts == (4,)

    def test_crn_shards_never_cross_point_boundaries(self):
        shards = plan_stacked_shards([5, 7], 4, crn=True)
        assert [(s.start, s.stop, s.stream_index) for s in shards] == [
            (0, 4, 0), (4, 5, 1), (5, 9, 0), (9, 12, 1),
        ]
        for shard in shards:
            assert len(shard.point_indices) == 1

    def test_validation(self):
        with pytest.raises(SimulationError):
            plan_stacked_shards([], 4)
        with pytest.raises(SimulationError):
            plan_stacked_shards([0], 4)
        with pytest.raises(SimulationError):
            plan_stacked_shards([4], 0)


class TestStackedValidation:
    def test_configs_must_share_study_shape(self):
        base = _configs([0.01, 0.02])
        mismatched = [base[0], MonteCarloConfig(
            params=base[1].params, policy="conventional", n_iterations=1200,
            horizon_hours=HORIZON + 1.0, seed=13,
        )]
        with pytest.raises(ConfigurationError, match="horizon_hours"):
            run_stacked(mismatched)

    def test_adaptive_stopping_runs_through_allocator(self):
        # Formerly a hard error; adaptive stacked runs now dispatch extra
        # rounds through the CI-width allocator until every point's merged
        # interval meets the target (or its ceiling).
        results = run_stacked(
            _configs([0.01], target_half_width=1e-3, max_iterations=20_000)
        )
        assert results[0].interval.half_width <= 1e-3

    def test_adaptive_stopping_rejected_with_crn(self):
        with pytest.raises(ConfigurationError, match="common-random-numbers"):
            run_stacked(
                _configs([0.01], target_half_width=1e-4, max_iterations=20_000),
                crn=True,
            )

    def test_policy_without_stacked_kernel_runs_stacked(self):
        # The kernel takes scalar points only, so each shard calls it once
        # per point segment; the shard plan still ignores the worker count.
        unstacked = _unstacked_policy()
        assert not unstacked.can_stack
        configs = _configs([0.01, 0.05], policy=unstacked, n=600, shard_size=500)
        serial = run_stacked(configs)
        pooled = run_stacked([config.with_workers(2) for config in configs])
        for a, b in zip(serial, pooled):
            assert a.n_iterations == 600
            assert a.availability == b.availability
            assert a.interval == b.interval
            assert a.totals == b.totals

    def test_crn_never_dropped_silently(self):
        # An explicit CRN request must never be quietly dropped: adaptive
        # sweeps run on the allocator, where CRN conflicts with the
        # re-planned rounds (hyphenated message from the stacked validator).
        with pytest.raises(ConfigurationError, match="common.random.numbers"):
            sweep(
                paper_parameters(**STRESS), "hep", [0.01, 0.02],
                backend="monte_carlo", crn=True, target_half_width=1e-3,
                mc_iterations=400,
            )
        # A policy without a stacked kernel honours CRN like any other.
        params = paper_parameters(**STRESS)
        first, second = evaluate_stacked(
            [params, params], _unstacked_policy(),
            n_iterations=400, horizon_hours=HORIZON, crn=True,
        )
        assert first.availability == second.availability
        assert first.provenance.endswith(", crn)")

    def test_mc_options_rejected_on_analytical_resolution(self):
        # backend="auto" resolves analytically for dual-face policies; an
        # explicit CRN request must error instead of being dropped (the
        # user would get uncoupled point estimates silently).
        base = paper_parameters(**STRESS)
        with pytest.raises(ConfigurationError, match="analytical backend"):
            sweep(base, "hep", [0.001, 0.01], crn=True)
        from repro.core.sweep import sweep_grid

        with pytest.raises(ConfigurationError, match="analytical backend"):
            sweep_grid(
                base, "hep", [0.001], "failure_rate", [1e-5],
                backend="analytical", crn=True,
            )

    def test_grid_axis_aliases_rejected(self):
        # failure_rate and disk_failure_rate sweep the same field; a grid
        # over both would silently degenerate (axis2 overwrites axis1).
        from repro.core.sweep import sweep_grid

        with pytest.raises(ConfigurationError, match="different parameters"):
            sweep_grid(
                paper_parameters(**STRESS),
                "failure_rate", [1e-6, 1e-5],
                "disk_failure_rate", [1e-4],
                backend="analytical",
            )


@pytest.fixture(
    params=[_unstacked_policy, _scalar_only_policy],
    ids=["batch_kernel", "scalar_only"],
)
def unstackable(request) -> SimulationPolicy:
    """A policy without a stacked kernel: batch-only or scalar-only."""
    policy = request.param()
    assert not policy.can_stack
    return policy


class TestPolicyWithoutStackedKernel:
    """Grids of policies whose kernels take scalar points only.

    They run on the stacked executor like every other policy: each shard
    calls the kernel once per point segment, from the shard's own stream.
    """

    POINTS = [paper_parameters(**STRESS), paper_parameters(**dict(STRESS, hep=0.2))]
    OPTIONS = dict(n_iterations=600, horizon_hours=HORIZON, seed=5)

    def test_workers_do_not_change_results(self, unstackable):
        serial = evaluate_stacked(self.POINTS, unstackable, shard_size=250, **self.OPTIONS)
        pooled = evaluate_stacked(
            self.POINTS, unstackable, shard_size=250, workers=2, **self.OPTIONS
        )
        for a, b in zip(serial, pooled):
            assert a.provenance.startswith("executor=stacked(")
            assert (a.availability, a.ci_lower, a.ci_upper) == (
                b.availability, b.ci_lower, b.ci_upper
            )

    def test_intervals_overlap_per_point_evaluate(self, unstackable):
        stacked = evaluate_stacked(self.POINTS, unstackable, **self.OPTIONS)
        for params, point in zip(self.POINTS, stacked):
            reference = evaluate(
                params, unstackable, backend="monte_carlo", **self.OPTIONS
            )
            assert point.provenance.startswith("executor=stacked(")
            assert max(point.ci_lower, reference.ci_lower) <= min(
                point.ci_upper, reference.ci_upper
            )

    def test_crn_couples_identical_points(self, unstackable):
        first, second = evaluate_stacked(
            [self.POINTS[0]] * 2, unstackable, crn=True, shard_size=250, **self.OPTIONS
        )
        assert (first.availability, first.ci_lower) == (
            second.availability, second.ci_lower
        )

    def test_resume_reproduces_the_grid(self, unstackable, tmp_path):
        journal = str(tmp_path / "grid.journal")
        options = dict(self.OPTIONS, shard_size=250)
        clean = evaluate_stacked(self.POINTS, unstackable, **options)
        evaluate_stacked(self.POINTS, unstackable, checkpoint=journal, **options)
        resumed = evaluate_stacked(self.POINTS, unstackable, resume=journal, **options)
        assert resumed[0].resumed_shards > 0
        for a, b in zip(clean, resumed):
            assert (a.availability, a.ci_lower, a.ci_upper) == (
                b.availability, b.ci_lower, b.ci_upper
            )

    def test_adaptive_ci_width_sweep_runs_without_warning(self, unstackable):
        adaptive = dict(target_half_width=5e-3, max_iterations=4000, allocator="ci_width")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = sweep(
                paper_parameters(**STRESS), "hep", [0.02, 0.2], unstackable,
                backend="monte_carlo", mc_iterations=400, mc_horizon_hours=HORIZON,
                seed=3, target_half_width=5e-3, mc_max_iterations=4000,
                allocator="ci_width",
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # The points are the stacked allocator's, not a per-point loop's.
        allocated = run_stacked(
            _configs([0.02, 0.2], policy=unstackable, n=400, seed=3, **adaptive)
        )
        for point, result in zip(points, allocated):
            assert (point.availability, point.ci_lower) == (
                result.availability, result.interval.lower
            )


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("policy", sorted(available_policies()))
    def test_stacked_agrees_with_per_point_for_every_policy(self, policy):
        # The stacked engine must agree with one independent study per
        # point, within merged 99 % intervals, for every registered policy.
        configs = _configs([0.0, 0.02, 0.05], policy=policy, n=1500)
        stacked = run_stacked(configs)
        for config, point in zip(configs, stacked):
            reference = run_monte_carlo(config)
            assert point.n_iterations == reference.n_iterations == 1500
            assert _intervals_overlap(point, reference), (
                f"{policy}: stacked {point.availability} vs "
                f"per-point {reference.availability}"
            )

    def test_mixed_geometry_grid_agrees_with_per_point(self):
        geometries = [RaidGeometry.raid1(), RaidGeometry.raid5(3), RaidGeometry.raid5(7)]
        configs = [
            MonteCarloConfig(
                params=paper_parameters(geometry=geometry, **STRESS),
                policy="conventional",
                n_iterations=1500,
                horizon_hours=HORIZON,
                seed=17,
            )
            for geometry in geometries
        ]
        stacked = run_stacked(configs)
        for config, point in zip(configs, stacked):
            assert _intervals_overlap(point, run_monte_carlo(config))

    def test_per_row_spare_pools_agree_with_fixed_pools(self):
        # The spare-pool kernel accepts a per-row pool size; each segment
        # must agree with a fixed-pool invocation of the same scenario.
        params = paper_parameters(**STRESS)
        grid = stack_parameter_points([params, params], [2000, 2000], n_spares=[1, 3])
        batch = batch_spare_pool(grid, HORIZON, 4000, np.random.default_rng(3))
        for segment, pool_size in ((slice(0, 2000), 1), (slice(2000, 4000), 3)):
            fixed = batch_spare_pool(
                params, HORIZON, 2000, np.random.default_rng(4), n_spares=pool_size
            )
            got = float(batch.availabilities()[segment].mean())
            want = float(fixed.availabilities().mean())
            assert got == pytest.approx(want, abs=4e-4)

    def test_sweep_routes_monte_carlo_through_stacked_engine(self):
        # A stacked sweep through the public API agrees with one
        # independent study per point within merged CIs.
        base = paper_parameters(**STRESS)
        stacked = sweep(
            base, "hep", [0.0, 0.05], backend="monte_carlo",
            mc_iterations=1500, mc_horizon_hours=HORIZON, seed=29,
        )
        per_point = [
            evaluate(
                base.with_hep(hep), backend="monte_carlo",
                n_iterations=1500, horizon_hours=HORIZON, seed=29,
            )
            for hep in (0.0, 0.05)
        ]
        for a, b in zip(stacked, per_point):
            assert a.has_interval and b.has_interval
            assert max(a.ci_lower, b.ci_lower) <= min(a.ci_upper, b.ci_upper)


class TestStackedDeterminism:
    def test_deterministic_given_seed(self):
        configs = _configs([0.01, 0.04], n=900)
        first = run_stacked(configs)
        second = run_stacked(configs)
        for a, b in zip(first, second):
            assert a.availability == b.availability
            assert a.totals == b.totals
            assert a.seed_entropy == 13

    def test_worker_count_does_not_change_results(self):
        # The stacked decomposition never depends on the worker count, so
        # workers=2 is bit-identical to workers=1 even without a pinned
        # shard size.
        serial = run_stacked(_configs([0.01, 0.04], n=900, workers=1))
        parallel = run_stacked(_configs([0.01, 0.04], n=900, workers=2))
        for a, b in zip(serial, parallel):
            assert a.availability == b.availability
            assert a.interval.half_width == b.interval.half_width
            assert a.totals == b.totals

    def test_shards_span_points_by_default(self):
        # With 900-lifetime points and the default shard size, one shard
        # covers both points — the whole grid is one kernel invocation.
        assert 2 * 900 < DEFAULT_STACKED_SHARD_SIZE
        shards = plan_stacked_shards([900, 900], DEFAULT_STACKED_SHARD_SIZE)
        assert len(shards) == 1 and shards[0].point_indices == (0, 1)

    def test_default_plan_cuts_the_mc_grid_shape_into_52_shards(self):
        # perfbench's mc_grid: 16 heps x 8 failure rates at 10k lifetimes.
        shards = plan_stacked_shards([10_000] * 128, DEFAULT_STACKED_SHARD_SIZE)
        assert len(shards) == 52
        assert shards[0].stop - shards[0].start == 25_000

    def test_default_shards_are_bit_identical_on_every_pool(self):
        # 6 points x 12,500 lifetimes are three default shards, so every
        # pool really dispatches more than one shard.
        def configs(**overrides):
            return [
                MonteCarloConfig(
                    params=paper_parameters(disk_failure_rate=1e-5, hep=hep),
                    policy="conventional",
                    n_iterations=12_500,
                    horizon_hours=HORIZON,
                    seed=23,
                    **overrides,
                )
                for hep in (0.0, 0.002, 0.005, 0.01, 0.02, 0.05)
            ]

        assert len(plan_stacked_shards([12_500] * 6, DEFAULT_STACKED_SHARD_SIZE)) == 3
        reference = run_stacked(configs(workers=1))
        for overrides in (
            dict(workers=2),
            dict(workers=2, pool="thread"),
            dict(workers=2, pool="serial"),
            dict(shard_size=25_000),
        ):
            for got, want in zip(run_stacked(configs(**overrides)), reference):
                assert got.availability == want.availability, overrides
                assert got.interval.half_width == want.interval.half_width, overrides
                assert got.totals == want.totals, overrides

    @pytest.mark.parametrize("crn", [False, True])
    def test_replay_point_is_bit_identical_to_grid_entry(self, crn):
        configs = _configs([0.0, 0.02, 0.05], n=700, shard_size=256)
        grid = run_stacked(configs, crn=crn)
        for index in (0, 2):
            replayed = replay_stacked_point(configs, index, crn=crn)
            assert replayed.availability == grid[index].availability
            assert replayed.interval.half_width == grid[index].interval.half_width
            assert replayed.totals == grid[index].totals

    def test_crn_points_do_not_depend_on_grid_membership(self):
        # CRN shards never cross point boundaries and restart their stream
        # indices per point, so a point's result is the same whether it is
        # evaluated alone or inside any grid.
        configs = _configs([0.01, 0.04], n=800)
        paired = run_stacked(configs, crn=True)
        alone = run_stacked(configs[1:], crn=True)
        assert paired[1].availability == alone[0].availability
        assert paired[1].totals == alone[0].totals


class TestCommonRandomNumbers:
    def test_crn_reduces_contrast_variance_on_two_point_hep_sweep(self):
        # The acceptance property of CRN mode: across independent
        # replications, the variance of the availability *contrast* between
        # two hep points must shrink when both points share base streams.
        # Paper-like rates keep most lifetimes inside the coupled prefix of
        # the shared streams (the contrast is then driven by the same
        # uniforms falling between the two hep thresholds), where the
        # coupling is strongest.
        seeds = range(100, 140)
        contrasts = {True: [], False: []}
        for crn in (True, False):
            for seed in seeds:
                configs = [
                    MonteCarloConfig(
                        params=paper_parameters(disk_failure_rate=1e-5, hep=hep),
                        policy="conventional",
                        n_iterations=2000,
                        horizon_hours=87_600.0,
                        seed=seed,
                    )
                    for hep in (0.001, 0.01)
                ]
                low, high = run_stacked(configs, crn=crn)
                contrasts[crn].append(low.availability - high.availability)
        var_crn = float(np.var(contrasts[True], ddof=1))
        var_independent = float(np.var(contrasts[False], ddof=1))
        assert var_crn < var_independent, (
            f"CRN did not reduce contrast variance: {var_crn} vs {var_independent}"
        )
        # The reduction should be substantial, not a coin flip (measured
        # ratio ~0.6 across parameterisations; draws are seed-pinned).
        assert var_crn < 0.85 * var_independent

    def test_crn_couples_identical_points_exactly(self):
        # Two grid points with identical parameters consume identical
        # streams under CRN, so their estimates coincide bit for bit.
        configs = _configs([0.03, 0.03], n=600)
        first, second = run_stacked(configs, crn=True)
        assert first.availability == second.availability
        assert first.totals == second.totals
