"""The exponential closed form of the biased sampler equals the general form.

``_BiasedSampler`` computes shape-1, scalar-factor likelihood ratios in
closed form.  :data:`RETIRED_LR` keeps the general-form ``_accumulate`` and
``sample_matrix`` it replaced on that path, verbatim, as test-local oracles:
patched into the sampler, they must reproduce the draws, the ``log_weights``
and the generator state byte for byte, on draws that fire, draws censored
at the horizon, draws born at and after it and masked geometry slots.
Failure laws outside the fast path (Weibull shapes other than 1,
``RowWeibull``, per-row factors) must equal the oracle too.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core.montecarlo.batch import segment_point_records
from repro.core.parameters import paper_parameters
from repro.core.policies import vectorized
from repro.core.policies.registry import resolve_policy
from repro.core.policies.stacked import stack_parameter_points
from repro.core.policies.vectorized import _BiasedSampler, _sample
from repro.distributions.weibull import Weibull
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

HORIZON = 87_600.0

#: Rates at which biased clocks both fire inside and outlive the horizon
#: at either biasing factor.
RATE = 1e-6
GRID_RATES = (5e-7, 1e-6, 2e-6)

#: Lifetimes of the sampler-level cases.
M = 250


def _oracle_sample_matrix(self, n_cols, rng, n_disks_rows=None):
    """The general-form ``_BiasedSampler.sample_matrix``."""
    m = self.log_weights.size
    n_cols = int(n_cols)
    matrix_sampler = getattr(self.base, "sample_matrix", None)
    if matrix_sampler is not None:
        draws = np.asarray(matrix_sampler(n_cols, rng), dtype=float)
    elif getattr(self.base, "sample_rows", None) is not None:
        rows = np.repeat(np.arange(m), n_cols)
        draws = self.base.sample_rows(rows, rng).reshape(m, n_cols)
    else:
        draws = _sample(self.base, m * n_cols, rng).reshape(m, n_cols)
    b = np.broadcast_to(np.asarray(self.factor, dtype=float), (m,))[:, None]
    k = np.broadcast_to(np.asarray(self.shape, dtype=float), (m,))[:, None]
    s = np.broadcast_to(np.asarray(self.scale, dtype=float), (m,))[:, None]
    draws = draws / b
    bk = np.power(b, k)
    fired = draws < self.horizon
    contrib = np.where(
        fired,
        (bk - 1.0) * np.power(draws / s, k) - k * np.log(b),
        (bk - 1.0) * np.power(self.horizon / s, k),
    )
    if n_disks_rows is not None and np.any(n_disks_rows < n_cols):
        contrib[np.arange(n_cols)[None, :] >= n_disks_rows[:, None]] = 0.0
    self.log_weights += contrib.sum(axis=1)
    return draws


def _oracle_accumulate(self, rows, draws, births, b, k, s):
    """The general-form ``_BiasedSampler._accumulate``."""
    size = draws.size
    if size == 0:
        return
    b = np.broadcast_to(np.asarray(b, dtype=float), (size,))
    k = np.broadcast_to(np.asarray(k, dtype=float), (size,))
    s = np.broadcast_to(np.asarray(s, dtype=float), (size,))
    births = np.broadcast_to(births, (size,))
    remaining = self.horizon - births
    contrib = np.zeros(size, dtype=float)
    live = remaining > 0.0
    fired = live & (draws < remaining)
    censored = live & ~fired
    if np.any(fired):
        bf, kf, sf = b[fired], k[fired], s[fired]
        contrib[fired] = (np.power(bf, kf) - 1.0) * np.power(
            draws[fired] / sf, kf
        ) - kf * np.log(bf)
    if np.any(censored):
        bc, kc, sc = b[censored], k[censored], s[censored]
        contrib[censored] = (np.power(bc, kc) - 1.0) * np.power(
            remaining[censored] / sc, kc
        )
    np.add.at(self.log_weights, rows, contrib)


#: The general-form sampler methods, keyed by the ``_BiasedSampler``
#: attribute each stands in for.
RETIRED_LR = {"_accumulate": _oracle_accumulate, "sample_matrix": _oracle_sample_matrix}


def _mixed_grid(shape=1.0, counts=(100, 75, 75)):
    """Three geometries (4, 2 and 6 disks) at three rates: masked slots."""
    geometries = (RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4))
    points = [
        paper_parameters(
            geometry=geometry, disk_failure_rate=rate, hep=0.05, failure_shape=shape
        )
        for geometry, rate in zip(geometries, GRID_RATES)
    ]
    return stack_parameter_points(points, list(counts))


def _grid_case(shape):
    grid = _mixed_grid(shape)
    return grid.failure_distribution(), grid.n_disks_rows, 6, False


#: ``case -> (failure law, n_disks_rows, n_cols, per-row factor)``, each
#: over :data:`M` lifetimes.
CASES = {
    "exponential-point": lambda: (
        paper_parameters(disk_failure_rate=RATE).failure_distribution(), None, 4, False
    ),
    "exponential-grid": lambda: _grid_case(1.0),
    "weibull-shape-1": lambda: (Weibull(1.0, 1.0 / RATE), None, 4, False),
    "weibull-1.3-point": lambda: (
        paper_parameters(disk_failure_rate=RATE, failure_shape=1.3).failure_distribution(),
        None, 4, False,
    ),
    "row-weibull-grid": lambda: _grid_case(1.3),
    "per-row-factor": lambda: (
        paper_parameters(disk_failure_rate=RATE).failure_distribution(), None, 4, True
    ),
}

#: Cases the closed form must serve; every other case keeps the general form.
FAST_CASES = {"exponential-point", "exponential-grid", "weibull-shape-1"}


def _sampler(case, biasing):
    base, n_rows, n_cols, per_row = CASES[case]()
    factor = biasing * np.linspace(0.5, 1.5, M) if per_row else biasing
    sampler = _BiasedSampler(base, factor, HORIZON, np.zeros(M))
    assert (sampler.log_factor is not None) == (case in FAST_CASES)
    return sampler, n_rows, n_cols


def _births(rng):
    """Renewal rows (duplicates included) and births before, at and after H."""
    rows = rng.integers(0, M, size=400)
    births = rng.uniform(0.0, HORIZON, size=rows.size)
    births[:20] = HORIZON
    births[20:40] = HORIZON + rng.uniform(1.0, 1e4, size=20)
    births[40:60] = HORIZON - rng.uniform(0.0, 10.0, size=20)
    return rows, births


def _run_sampler(case, biasing, oracle):
    """Draw an initial matrix and one renewal round; return the outcome."""
    sampler, n_rows, n_cols = _sampler(case, biasing)
    rng = np.random.default_rng(2017)
    rows, births = _births(np.random.default_rng(7))
    retired = mock.patch.multiple(vectorized._BiasedSampler, **RETIRED_LR)
    with retired if oracle else contextlib.nullcontext():
        matrix = sampler.sample_matrix(n_cols, rng, n_disks_rows=n_rows)
        renewals = sampler.sample_rows(rows, rng, at=births)
    return matrix, renewals, births, sampler.log_weights, rng.bit_generator.state


class TestSamplerMatchesOracle:
    @pytest.mark.parametrize("biasing", [8.0, 50.0])
    @pytest.mark.parametrize("case", list(CASES))
    def test_draws_and_log_weights_byte_identical(self, case, biasing):
        matrix, renewals, births, log_weights, state = _run_sampler(case, biasing, False)
        ref = _run_sampler(case, biasing, True)
        assert matrix.tobytes() == ref[0].tobytes()
        assert renewals.tobytes() == ref[1].tobytes()
        assert log_weights.tobytes() == ref[3].tobytes()
        assert state == ref[4]

        # The inputs reach every branch: fired and censored clocks in the
        # matrix and in the renewals, and births at and after the horizon.
        in_matrix = matrix < HORIZON
        assert in_matrix.any() and (~in_matrix).any()
        remaining = HORIZON - births
        live = remaining > 0.0
        assert (live & (renewals < remaining)).any()
        assert (live & (renewals >= remaining)).any()
        assert (births == HORIZON).any() and (births > HORIZON).any()

    def test_masked_slots_contribute_nothing(self):
        grid = _mixed_grid()
        masked = _BiasedSampler(grid.failure_distribution(), 8.0, HORIZON, np.zeros(M))
        unmasked = _BiasedSampler(grid.failure_distribution(), 8.0, HORIZON, np.zeros(M))
        masked.sample_matrix(6, np.random.default_rng(3), n_disks_rows=grid.n_disks_rows)
        unmasked.sample_matrix(6, np.random.default_rng(3))
        two_disk = grid.n_disks_rows == 2
        assert not np.array_equal(masked.log_weights[two_disk], unmasked.log_weights[two_disk])
        six_disk = grid.n_disks_rows == 6
        assert masked.log_weights[six_disk].tobytes() == unmasked.log_weights[six_disk].tobytes()


def _kernel_records(policy, params, counts, biasing):
    rng = RandomStreams(19).stream("montecarlo")
    batch = resolve_policy(policy).batch(params, HORIZON, sum(counts), rng, biasing=biasing)
    records = segment_point_records(batch, range(len(counts)), counts)
    return records.tobytes(), batch.log_weights.tobytes(), rng.bit_generator.state


def _kernel_params(grid):
    if grid == "point":
        return paper_parameters(disk_failure_rate=RATE, hep=0.05), [600]
    counts = [200, 150, 250]
    return _mixed_grid(counts=counts), counts


class TestKernelsMatchOracle:
    """Whole biased kernels on the closed form equal them on the oracle."""

    @pytest.mark.parametrize("biasing", [8.0, 50.0])
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    @pytest.mark.parametrize("policy", ["conventional", "automatic_failover"])
    def test_batch_records_byte_identical(self, policy, grid, biasing):
        params, counts = _kernel_params(grid)
        got = _kernel_records(policy, params, counts, biasing)
        calls = []

        def counted(name):
            def call(*args, **kwargs):
                calls.append(name)
                return RETIRED_LR[name](*args, **kwargs)

            return call

        with mock.patch.multiple(
            vectorized._BiasedSampler, **{name: counted(name) for name in RETIRED_LR}
        ):
            ref = _kernel_records(policy, params, counts, biasing)
        assert set(calls) == set(RETIRED_LR), "an oracle method never ran"
        assert got == ref
