"""Transport bit-identity, kernel-compaction equivalence and lifecycle tests.

The zero-copy execution plane must be invisible in the results: shared-
memory and pickle transports and any worker count all have to produce
byte-identical ``MonteCarloResult``s, because they feed the very same
kernels the very same parameter rows and random streams; the compacted
kernels must reproduce the records of the uncompacted loops they replaced.
This suite pins those guarantees, plus the operational ones —
no leaked ``/dev/shm`` segments after failing sweeps, and the worker
initializer (BLAS pinning) actually running in every pool worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    replay_stacked_point,
    run_stacked,
)
from repro.core.montecarlo.parallel import worker_pool, worker_probe
from repro.core.montecarlo.transport import (
    SharedGridPlanes,
    active_segments,
    attach_grid_slice,
    attach_segment,
    resolve_stacked_transport,
    shared_memory_available,
)
from repro.core.montecarlo.simulator import simulate_conventional
from repro.core.parameters import paper_parameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.stacked import stack_parameter_points
from repro.core.policies.vectorized import batch_conventional, batch_spare_pool
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry
from tests.core.gathered import assert_matches_gathered

HORIZON = 87_600.0

#: Elevated rates so short runs still see failures, repairs and wrong pulls.
STRESS = dict(disk_failure_rate=1e-4, hep=0.02)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory is not usable here"
)


def _grid_configs(n_points, workers, transport, seed=11, iterations=300, shard_size=128):
    heps = np.linspace(0.0, 0.05, n_points)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-4, hep=float(hep)),
            policy="conventional",
            n_iterations=iterations,
            horizon_hours=HORIZON,
            seed=seed,
            workers=workers,
            shard_size=shard_size,
            transport=transport,
        )
        for hep in heps
    ]


def _result_key(results):
    return [
        (
            r.availability,
            r.interval.half_width,
            r.interval.std_error,
            r.n_iterations,
            tuple(sorted(r.totals.items())),
        )
        for r in results
    ]


class TestTransportBitIdentity:
    """shm and pickle transports must be byte-identical, any worker count."""

    @pytest.mark.parametrize("n_points", [1, 4], ids=["scalar", "stacked"])
    @pytest.mark.parametrize("crn", [False, True], ids=["plain", "crn"])
    def test_shm_equals_pickle_across_worker_counts(self, n_points, crn):
        reference = _result_key(
            run_stacked(_grid_configs(n_points, 1, "pickle"), crn=crn)
        )
        for workers in (1, 2, 4):
            for transport in ("pickle", "shm", "auto"):
                results = run_stacked(
                    _grid_configs(n_points, workers, transport), crn=crn
                )
                assert _result_key(results) == reference, (workers, transport)

    def test_replay_matches_grid_run_on_every_transport(self):
        for transport in ("pickle", "shm"):
            configs = _grid_configs(3, 2, transport)
            grid = run_stacked(configs)
            for point in range(len(configs)):
                replayed = replay_stacked_point(configs, point)
                assert replayed.availability == grid[point].availability
                assert replayed.totals == grid[point].totals
                assert replayed.n_iterations == grid[point].n_iterations

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloConfig(transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            resolve_stacked_transport("carrier-pigeon", pooled=True)

    def test_mixed_transports_rejected_in_one_grid(self):
        configs = _grid_configs(2, 1, "shm")
        mixed = [configs[0], configs[1].with_transport("pickle")]
        with pytest.raises(ConfigurationError, match="transport"):
            run_stacked(mixed)


class TestSharedPlanes:
    """The segment layout and attach protocol round-trip exactly."""

    def test_attach_views_round_trip(self):
        points = [
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(3+1)"), **STRESS),
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(7+1)"), **STRESS),
        ]
        grid = stack_parameter_points(points, [5, 7], n_spares=[1, 3])
        with SharedGridPlanes(grid) as planes:
            segment = attach_segment(planes.spec.name)
            try:
                view = attach_grid_slice(planes.spec, segment.buf, 3, 9)
                expected = grid.slice(3, 9)
                assert np.array_equal(view.hep, expected.hep)
                assert np.array_equal(view.n_disks_rows, expected.n_disks_rows)
                assert np.array_equal(view.n_spares_rows, expected.n_spares_rows)
                assert np.array_equal(view.disk_failure_rate, expected.disk_failure_rate)
                # The planes are read-only on the worker side.
                with pytest.raises((ValueError, RuntimeError)):
                    view.hep[0] = 0.5
                del view
            finally:
                segment.close()

    def test_spec_rejects_bad_slices(self):
        grid = stack_parameter_points([paper_parameters(**STRESS)], [4])
        with SharedGridPlanes(grid) as planes:
            segment = attach_segment(planes.spec.name)
            try:
                with pytest.raises(ConfigurationError):
                    attach_grid_slice(planes.spec, segment.buf, 2, 9)
            finally:
                segment.close()


def _exploding_batch(params, horizon_hours, n_lifetimes, rng, **kwargs):
    """A stacked-capable kernel that always fails (worker-side)."""
    raise SimulationError("intentional kernel failure (transport lifecycle test)")


EXPLODING_POLICY = SimulationPolicy(
    name="exploding",
    description="raises inside the worker to exercise cleanup paths",
    scalar=simulate_conventional,
    batch=_exploding_batch,
    supports_stacked=True,
)


class TestShmLifecycle:
    """Segments are unlinked on every exit path, including worker failures."""

    def test_no_segments_leak_after_successful_sweep(self):
        before = active_segments()
        run_stacked(_grid_configs(3, 2, "shm"))
        assert active_segments() == before

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pooled"])
    def test_no_segments_leak_after_failing_sweep(self, workers):
        before = active_segments()
        heps = (0.0, 0.01)
        configs = [
            MonteCarloConfig(
                params=paper_parameters(disk_failure_rate=1e-4, hep=hep),
                policy=EXPLODING_POLICY,
                n_iterations=200,
                horizon_hours=HORIZON,
                seed=3,
                workers=workers,
                shard_size=64,
                transport="shm",
            )
            for hep in heps
        ]
        with pytest.raises(SimulationError, match="intentional kernel failure"):
            run_stacked(configs)
        assert active_segments() == before

    def test_planes_dispose_is_idempotent(self):
        grid = stack_parameter_points([paper_parameters(**STRESS)], [4])
        planes = SharedGridPlanes(grid)
        name = planes.spec.name
        assert name in active_segments()
        planes.dispose()
        planes.dispose()
        assert name not in active_segments()


class TestWorkerInitializer:
    """The BLAS-pinning initializer runs in every pool worker."""

    def test_initializer_ran_in_each_worker(self):
        with worker_pool(2) as pool:
            assert pool is not None
            probes = [pool.submit(worker_probe) for _ in range(16)]
            seen = {}
            for probe in probes:
                pid, initialised = probe.result()
                seen[pid] = initialised
        assert seen, "no worker answered the probe"
        assert all(seen.values()), f"initializer missing in workers: {seen}"


class TestCompactionEquivalence:
    """The compacted kernels run the experiment the gathered loops ran."""

    def _assert_equivalent(self, case, kernel, params, counts, **kwargs):
        rng = RandomStreams(2017).stream("montecarlo")
        batch = kernel(params, HORIZON, sum(counts), rng, **kwargs)
        assert_matches_gathered(case, batch, counts, rng)

    @pytest.mark.parametrize(
        "case,kernel,kwargs",
        [
            ("scalar-conventional", batch_conventional, {}),
            ("scalar-failover", batch_spare_pool, {"n_spares": 1}),
            ("scalar-pool3", batch_spare_pool, {"n_spares": 3}),
        ],
        ids=["conventional", "failover", "pool3"],
    )
    def test_scalar_params(self, case, kernel, kwargs):
        params = paper_parameters(**STRESS)
        self._assert_equivalent(case, kernel, params, [1500], **kwargs)

    @pytest.mark.parametrize(
        "case,kernel,kwargs",
        [
            ("stacked-conventional", batch_conventional, {}),
            ("stacked-pool", batch_spare_pool, {"n_spares": 2}),
        ],
        ids=["conventional", "pool"],
    )
    def test_stacked_grid(self, case, kernel, kwargs):
        points = [
            paper_parameters(disk_failure_rate=rate, hep=hep)
            for rate, hep in ((1e-4, 0.0), (5e-5, 0.02), (1e-5, 0.05))
        ]
        counts = [500, 600, 400]
        grid = stack_parameter_points(points, counts)
        self._assert_equivalent(case, kernel, grid, counts, **kwargs)

    def test_mixed_geometry_grid_with_per_row_pools(self):
        points = [
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(3+1)"), **STRESS),
            paper_parameters(geometry=RaidGeometry.from_label("RAID5(7+1)"), **STRESS),
        ]
        counts = [700, 500]
        grid = stack_parameter_points(points, counts, n_spares=[1, 3])
        self._assert_equivalent("mixed_geometry-spare_pool", batch_spare_pool, grid, counts)
        self._assert_equivalent("mixed_geometry-conventional", batch_conventional, grid, counts)

    def test_weibull_failure_clocks(self):
        points = [
            paper_parameters(disk_failure_rate=1e-4, hep=0.01, failure_shape=1.3),
            paper_parameters(disk_failure_rate=5e-5, hep=0.02, failure_shape=1.3),
        ]
        counts = [400, 300]
        grid = stack_parameter_points(points, counts)
        self._assert_equivalent("weibull-conventional", batch_conventional, grid, counts)
