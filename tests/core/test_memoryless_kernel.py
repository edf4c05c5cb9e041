"""Tests for the memoryless conventional and spare-pool kernels.

Unbiased runs whose every row fails exponentially take a memoryless
kernel: ``_memoryless_conventional`` carries one next-failure time per
lifetime, ``_memoryless_spare_pool`` also a pool count.  Both draw each
failure from the aggregate clock ``Exp(k*lambda)`` of the ``k`` disks
still running and settle each repair or rebuild window as one race, an
exponential length and one uniform.  Weibull laws and failure-biased runs
keep the clock matrix (``_clock_matrix_conventional``,
``_clock_matrix_spare_pool``).  Under test: each pair of kernels draws
lifetimes from the same law, the input alone picks the kernel, the
memoryless paths hold no clock matrix, a one-row grid decides every
repair window as its point does, a process keeps its shard pages mapped
between runs, and the estimates meet the analytical chains.  Both
memoryless kernels simulate only the lifetimes that fail before the
horizon, one binomial per point segment: the law holds where most
lifetimes are idle, each point of a shard is thinned on its own, and the
summary folds the idle lifetimes in exactly.  The conventional body jumps
each run of clean repair windows of a lifetime that expects enough of
them: the law holds where lifetimes cross that mark, the count of clean
failures before the horizon matches its definition, the run's edges
land where they should, the paper's point draws as before, and an
event-rich shard keeps its peak memory.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.core.evaluation import evaluate
from repro.core.montecarlo import MonteCarloConfig, run_monte_carlo, segment_point_records
from repro.core.parameters import paper_parameters
from repro.core.policies import stack_parameter_points, vectorized
from repro.core.policies.base import BatchLifetimes
from repro.core.policies.registry import resolve_policy
from repro.core.policies.vectorized import (
    _clean_before,
    _CleanRuns,
    _clock_matrix_conventional,
    _clock_matrix_spare_pool,
    _memoryless_conventional,
    _memoryless_spare_pool,
    batch_conventional,
    batch_spare_pool,
)
from repro.exceptions import ConfigurationError
from repro.simulation.confidence import StreamingMoments
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

HORIZON = 87_600.0

#: Lifetimes per kernel in the same-law comparison.
LAW_LIFETIMES = 120_000

COUNTERS = ("disk_failures", "dl_events", "du_events", "human_errors", "downtime_hours")

RAID5, RAID1, RAID6 = RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4)
MIXED_GEOMETRIES = (RAID5, RAID1, RAID6)

CONVENTIONAL = (_memoryless_conventional, _clock_matrix_conventional)
SPARE_POOL = (_memoryless_spare_pool, _clock_matrix_spare_pool)


def _point(geometry, rate, hep, **fields):
    params = paper_parameters(geometry=geometry, disk_failure_rate=rate, hep=hep)
    return dataclasses.replace(params, **fields)


def _mixed_grid(pools=None):
    """Return the RAID5/RAID1/RAID6 grid, with one pool size per point if given."""
    points = [
        _point(geometry, 1e-4, hep) for geometry, hep in zip(MIXED_GEOMETRIES, (0.02, 0.05, 0.1))
    ]
    return stack_parameter_points(points, [LAW_LIFETIMES // 3] * 3, n_spares=pools)


def _crossing_grid():
    """Return a grid of a point whose lifetimes cross the jump mark, and a dense one."""
    points = [_point(RAID5, rate, 0.01) for rate in (6e-6, 1e-4)]
    return stack_parameter_points(points, [LAW_LIFETIMES // 2] * 2)


#: Same-law inputs: ``(kernels, params builder, kernel keywords, lifetimes
#: per side)``.
LAW_INPUTS = {
    "raid5-hep0.05": (CONVENTIONAL, lambda: _point(RAID5, 1e-4, 0.05), {}, LAW_LIFETIMES),
    "raid1-hep0.1": (CONVENTIONAL, lambda: _point(RAID1, 1e-4, 0.1), {}, LAW_LIFETIMES),
    # At hep 0 a repair window's uniform decides data loss alone.
    "raid5-hep0": (CONVENTIONAL, lambda: _point(RAID5, 1e-4, 0.0), {}, LAW_LIFETIMES),
    # The widest race: five survivors, (n-1)*lambda = 5*lambda.
    "raid6-rate3e-4-hep0.1": (CONVENTIONAL, lambda: _point(RAID6, 3e-4, 0.1), {}, 20_000),
    "mixed-grid": (CONVENTIONAL, _mixed_grid, {}, LAW_LIFETIMES),
    # Every conventional input above jumps from a lifetime's first clean
    # window.  Here n*lambda*H is about 2.1, so a lifetime jumps only from
    # a failure in the first 4% of the horizon and steps once it expects
    # fewer clean failures than the jump's mark.
    "raid5-rate6e-6-hep0.01": (CONVENTIONAL, lambda: _point(RAID5, 6e-6, 0.01), {}, LAW_LIFETIMES),
    "crossing-grid": (CONVENTIONAL, _crossing_grid, {}, LAW_LIFETIMES),
    "failover-raid5-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.05), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "pool2-raid5-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.05), {"n_spares": 2}, LAW_LIFETIMES
    ),
    "failover-raid1-hep0.1": (
        SPARE_POOL, lambda: _point(RAID1, 1e-4, 0.1), {"n_spares": 1}, LAW_LIFETIMES
    ),
    # Event-rich at lambda=3e-4: at a sixth of LAW_LIFETIMES each still
    # fails three or more of its tests against a kernel that drops W from
    # the clean recovery or leaves the pulled disk in A's race.
    "failover-raid5-rate3e-4-hep0.2": (
        SPARE_POOL, lambda: _point(RAID5, 3e-4, 0.2), {"n_spares": 1}, 20_000
    ),
    "pool3-raid6-rate3e-4-hep0.1": (
        SPARE_POOL, lambda: _point(RAID6, 3e-4, 0.1), {"n_spares": 3}, 20_000
    ),
    "failover-raid5-hep0": (
        SPARE_POOL, lambda: _point(RAID5, 1e-4, 0.0), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "pools-mixed-grid": (SPARE_POOL, lambda: _mixed_grid((1, 2, 3)), {}, LAW_LIFETIMES),
    # Wrong pulls take 100 h to undo at lambda=1e-3, so a clock often fires
    # during one and the exposed service after it starts late: its second
    # failure must come from the clocks already running, not a fresh draw
    # from the service start, which reads z of about -16 on dl_events at
    # this input.
    "failover-slow-recovery": (
        SPARE_POOL,
        lambda: _point(RAID5, 1e-3, 0.3, human_error_rate=0.01),
        {"n_spares": 1},
        20_000,
    ),
}


def _run(kernel, params, n, seed, **kwargs):
    rng = RandomStreams(seed).stream("montecarlo")
    return kernel(params, HORIZON, n, rng, **kwargs)


def _histogram_table(a, b, min_column=10):
    """Return the 2 x K histogram table of ``a`` and ``b``, sparse bins merged.

    Adjacent bins are pooled until each column holds ``min_column``
    lifetimes, so every expected cell count is about half that or more.
    """
    width = int(max(a.max(), b.max())) + 1
    table = np.stack([np.bincount(a, minlength=width), np.bincount(b, minlength=width)])
    columns = []
    pending = np.zeros(2, dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= min_column:
            columns.append(pending)
            pending = np.zeros(2, dtype=np.int64)
    columns[-1] = columns[-1] + pending
    return np.array(columns).T


def _law_pair(entry):
    """Run both kernels of one same-law input at the class's fixed seeds."""
    (memoryless, clock_matrix), build, kwargs, n = entry
    params = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (
            _run(memoryless, params, n, seed=101, **kwargs),
            _run(clock_matrix, params, n, seed=202, **kwargs),
        )


class TestSameLawAsClockMatrix:
    """The two kernels draw each lifetime's counters from one law."""

    @pytest.fixture(scope="class", params=list(LAW_INPUTS))
    def pair(self, request):
        return _law_pair(LAW_INPUTS[request.param])

    @pytest.mark.parametrize("field", COUNTERS)
    def test_means_agree(self, pair, field):
        memoryless, clock_matrix = (getattr(batch, field).astype(float) for batch in pair)
        se = np.hypot(
            memoryless.std(ddof=1) / np.sqrt(memoryless.size),
            clock_matrix.std(ddof=1) / np.sqrt(clock_matrix.size),
        )
        assert abs(memoryless.mean() - clock_matrix.mean()) <= 4.0 * se

    def test_disk_failure_histograms_agree(self, pair):
        table = _histogram_table(*(batch.disk_failures for batch in pair))
        assert table.shape[1] > 10
        assert chi2_contingency(table)[1] >= 1e-3


#: Sparse same-law inputs: at the paper's point (lambda = 1e-6) about 70%
#: of lifetimes see no failure in the horizon, at lambda = 1e-7 about 97%,
#: and the memoryless kernels never simulate those.
SPARSE_INPUTS = {
    "paper-point": (CONVENTIONAL, lambda: _point(RAID5, 1e-6, 1e-3), {}, LAW_LIFETIMES),
    "rate1e-7-hep0.05": (CONVENTIONAL, lambda: _point(RAID5, 1e-7, 0.05), {}, LAW_LIFETIMES),
    "failover-paper-point": (
        SPARE_POOL, lambda: _point(RAID5, 1e-6, 1e-3), {"n_spares": 1}, LAW_LIFETIMES
    ),
    "failover-rate1e-7-hep0.05": (
        SPARE_POOL, lambda: _point(RAID5, 1e-7, 0.05), {"n_spares": 1}, LAW_LIFETIMES
    ),
}


class TestSameLawWhenSparse(TestSameLawAsClockMatrix):
    """The same comparison where most lifetimes are idle and thinned."""

    @pytest.fixture(scope="class", params=list(SPARSE_INPUTS))
    def pair(self, request):
        return _law_pair(SPARSE_INPUTS[request.param])

    def test_disk_failure_histograms_agree(self, pair):
        # Few lifetimes fail more than twice here, so the merged histogram
        # has three to five columns.
        table = _histogram_table(*(batch.disk_failures for batch in pair))
        assert table.shape[1] >= 3
        assert chi2_contingency(table)[1] >= 1e-3


def _p_fail(rate, n_disks=4):
    """Return the chance that a lifetime's first failure comes before the horizon."""
    return -math.expm1(-n_disks * rate * HORIZON)


MEMORYLESS = {"conventional": _memoryless_conventional, "failover": _memoryless_spare_pool}

#: Two points in one stacked shard: a sparse point next to one where every
#: lifetime fails, and two identical neighbours.  A binomial drawn over the
#: whole shard would hand the first point failures that belong to the
#: second.
SHARED_SHARD_RATES = {"sparse-next-to-dense": (1e-7, 1e-4), "identical-neighbours": (1e-7, 1e-7)}


@pytest.mark.parametrize("rates", list(SHARED_SHARD_RATES))
@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_each_point_of_a_shard_is_thinned_on_its_own(kernel, rates):
    count = 40_000
    points = [_point(RAID5, rate, 0.05) for rate in SHARED_SHARD_RATES[rates]]
    batch = _run(MEMORYLESS[kernel], stack_parameter_points(points, [count] * 2), 2 * count, seed=7)
    assert batch.segments.tolist() == [count, count]
    for index, point in enumerate(points):
        p = _p_fail(point.disk_failure_rate)
        failed = batch.disk_failures[index * count : (index + 1) * count] > 0
        assert abs(failed.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / count), index


@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_a_grid_without_segments_is_thinned_row_by_row(kernel):
    # Nothing says which rows of such a grid share a point, so every row is
    # its own segment: one Bernoulli(p) per lifetime.
    count = 40_000
    grid = stack_parameter_points([_point(RAID5, 1e-7, 0.05)], [count])
    batch = _run(MEMORYLESS[kernel], dataclasses.replace(grid, segments=None), count, seed=8)
    assert batch.segments.tolist() == [1] * count
    assert np.array_equal(batch.simulated, batch.disk_failures > 0)
    p = _p_fail(1e-7)
    assert abs(batch.simulated.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / count)


def test_folded_summary_equals_the_dense_arrays():
    # The first point simulates no lifetime, the last all of them; only
    # the middle one is thinned in part.
    counts = [500, 30_000, 2_000]
    points = [_point(RAID5, rate, 0.05) for rate in (1e-12, 1e-6, 1e-3)]
    batch = _run(
        _memoryless_conventional, stack_parameter_points(points, counts), sum(counts), seed=9
    )
    assert batch.simulated[0] == 0 and batch.simulated[2] == counts[2]
    assert 0 < batch.simulated[1] < counts[1]
    records = segment_point_records(batch, range(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    for record, start, count in zip(records, starts, counts):
        rows = slice(start, start + count)
        dense = StreamingMoments.from_samples(batch.availabilities()[rows])
        assert record["n"] == dense.n
        for name in ("mean", "m2", "w_sum", "w2_sum"):
            np.testing.assert_allclose(record[name], getattr(dense, name), rtol=1e-14, atol=0.0)
        for name in ("du_events", "dl_events", "disk_failures", "human_errors"):
            assert record[name] == getattr(batch, name)[rows].sum(), name
        # The same values summed in another grouping: last bits only.
        np.testing.assert_allclose(
            record["downtime_hours"], batch.downtime_hours[rows].sum(), rtol=1e-14, atol=0.0
        )
    idle = slice(0, counts[0])
    assert not batch.disk_failures[idle].any() and not batch.downtime_hours[idle].any()


class _FirstUniformAtOne:
    """A generator whose first ``random`` array starts with 1.0.

    ``1.0 * p`` is the largest product a drawn uniform ``V < 1`` can round
    ``V * p`` up to, and it inverts to the horizon itself.
    """

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def random(self, size=None):
        values = self._rng.random(size)
        if self._first:
            self._first = False
            values[0] = 1.0
        return values

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("kernel", list(MEMORYLESS))
def test_first_failure_at_the_horizon_retires_without_a_failure(kernel):
    rng = _FirstUniformAtOne(RandomStreams(4).stream("montecarlo"))
    batch = MEMORYLESS[kernel](paper_parameters(), HORIZON, 2_000, rng)
    heads = int(batch.simulated[0])
    assert heads > 1
    assert batch.disk_failures[0] == 0 and batch.downtime_hours[0] == 0.0
    assert np.all(batch.disk_failures[1:heads] >= 1)
    assert not batch.disk_failures[heads:].any()


#: Same-law inputs at hep 0.
HEP_0_INPUTS = ["raid5-hep0", "failover-raid5-hep0"]


@pytest.mark.parametrize("name", HEP_0_INPUTS)
def test_hep_0_windows_end_in_data_loss_or_repair(name):
    # p_he equals p_dl at hep 0, so a window's uniform names only the
    # race's winner.
    (memoryless, _), build, kwargs, n = LAW_INPUTS[name]
    batch = _run(memoryless, build(), n, seed=101, **kwargs)
    assert not batch.human_errors.any()
    assert batch.dl_events.any()


# ----------------------------------------------------------------------
# Runs of clean windows, jumped in one draw
# ----------------------------------------------------------------------
class _DrawLog:
    """A generator that records which of the jump's draws were called."""

    JUMP_DRAWS = ("poisson", "standard_gamma")

    def __init__(self, rng):
        self._rng = rng
        self.called = set()

    def __getattr__(self, name):
        if name in self.JUMP_DRAWS:
            self.called.add(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize(
    "params", [paper_parameters(), _point(RAID5, 2e-6, 0.01)], ids=["paper-point", "rate2e-6"]
)
def test_no_lifetime_jumps_below_the_mark(params):
    # At the paper's point n*lambda*H is about 0.35 and at 2e-6 about 0.7,
    # so no lifetime expects enough clean failures to jump and the draws
    # are those of a stepping kernel.
    rng = _DrawLog(RandomStreams(4).stream("montecarlo"))
    batch = _memoryless_conventional(params, HORIZON, 50_000, rng)
    assert rng.called == set()
    assert batch.disk_failures.any()


def test_hep_1_leaves_no_clean_stream_to_jump():
    # At hep = 1 every window ends in an outage, so nothing jumps, and a
    # grid's hep = 1 rows never do.  (The kernel itself is not run: at
    # hep = 1 a wrong pull's recovery ends only when the pulled disk
    # crashes, and one pull in about 22,000 outlasts the recovery race's
    # 1000 attempts.)
    batch = BatchLifetimes.zeros(3, HORIZON)
    rng = np.random.default_rng(0)
    assert _CleanRuns.of(batch, rng, 4e-4, 0.1, 0.003, 1.0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _CleanRuns.of(batch, rng, np.full(3, 4e-4), 0.1, 0.003, np.array([1.0, 0.5, 1.0]))
    assert runs.until[0] == runs.until[2] == -np.inf
    assert runs.until[1] == HORIZON - vectorized._JUMP_MIN_CLEAN / 2e-4


def test_hep_0_jumps_and_pulls_no_wrong_disk():
    rng = _DrawLog(RandomStreams(4).stream("montecarlo"))
    batch = _memoryless_conventional(_point(RAID5, 1e-4, 0.0), HORIZON, 5_000, rng)
    assert rng.called == {"poisson", "standard_gamma"}
    assert not batch.human_errors.any() and batch.dl_events.any()


def _brute_force_clean_before(count, span, windows, room, n, rng):
    """Return ``n`` draws of the clean failures within ``room``, by definition.

    ``count`` sorted uniform up-time positions on ``(0, span)``, and
    ``count + 1`` windows: ``windows`` split by normalised exponential
    spacings.  Clean failure ``k`` lands at its position plus the first
    ``k`` windows.
    """
    if count == 0:
        return np.zeros(n, dtype=np.int64)
    positions = np.sort(rng.random((n, count)) * span, axis=1)
    spacings = rng.standard_exponential((n, count + 1))
    partial = np.cumsum(spacings, axis=1)[:, :count] / spacings.sum(axis=1, keepdims=True)
    return np.count_nonzero(positions + windows * partial < room, axis=1)


def _assert_same_frequencies(got, want):
    """Each value's frequency in ``got`` is within 4 SE of its frequency in ``want``.

    Sparse values are pooled with their neighbours first
    (:func:`_histogram_table`), so no compared cell is a handful of draws.
    """
    n = got.size
    for k, (p, q) in enumerate(_histogram_table(got, want, min_column=100).T / n):
        assert abs(p - q) <= 4.0 * math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / n), k


@pytest.mark.parametrize("room", [990.0, 1_010.0], ids=["room-below-span", "room-above-span"])
@pytest.mark.parametrize("count", [0, 1, 2, 30])
def test_backward_count_matches_brute_force(count, room):
    n, span, windows = 20_000, 1_000.0, 60.0
    rng = np.random.default_rng(count)
    got = np.full(n, count, dtype=np.int64)
    _clean_before(got, np.arange(n), np.full(n, span), np.full(n, windows), np.full(n, room), rng)
    assert 0 <= got.min() and got.max() <= count
    _assert_same_frequencies(got, _brute_force_clean_before(count, span, windows, room, n, rng))


def _stepped_clean_run(room, clean_rate, loss_rate, pull_rate, race_rate, n, rng):
    """Return ``n`` runs after a clean failure at 0, stepped window by window.

    Returns ``(arrive, count, kind)`` as :func:`_clean_run` does: when the
    next outage failure comes (``inf`` past ``room``), the clean failures
    before it or before ``room``, and which outage it is.
    """
    rate = clean_rate + loss_rate + pull_rate
    now = rng.standard_exponential(n) / race_rate  # the first failure's own window
    count = np.zeros(n, dtype=np.int64)
    arrive = np.full(n, np.inf)
    kind = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    while live.size:
        now[live] += rng.standard_exponential(live.size) / rate
        live = live[now[live] < room]
        u = rng.random(live.size) * rate
        pulled = (u >= loss_rate) & (u < loss_rate + pull_rate)
        for mark, hit in ((vectorized._LOSS, u < loss_rate), (vectorized._PULL, pulled)):
            arrive[live[hit]] = now[live[hit]]
            kind[live[hit]] = mark
        live = live[u >= loss_rate + pull_rate]
        count[live] += 1
        now[live] += rng.standard_exponential(live.size) / race_rate
        live = live[now[live] < room]
    return arrive, count, kind


#: ``(room, clean rate, data-loss rate, wrong-pull rate, race rate)`` of
#: runs whose windows are as long as the up periods between failures.
RUN_LAWS = {
    "short-room": (4.0, 1.0, 0.2, 0.3, 1.0),
    "long-room": (10.0, 2.0, 0.02, 0.03, 0.5),
    "no-wrong-pull": (10.0, 2.0, 0.05, 0.0, 0.5),
}


@pytest.mark.parametrize("law", list(RUN_LAWS))
def test_a_jumped_run_follows_the_stepped_law(law):
    room, clean_rate, loss_rate, pull_rate, race_rate = RUN_LAWS[law]
    n = 50_000
    rng = np.random.default_rng(5)
    with np.errstate(divide="ignore"):
        loss = rng.standard_exponential(n) / loss_rate
        pull = rng.standard_exponential(n) / pull_rate
    arrive, count, kind = vectorized._clean_run(
        np.full(n, room), loss, pull, clean_rate, race_rate, rng
    )
    want_arrive, want_count, want_kind = _stepped_clean_run(
        room, clean_rate, loss_rate, pull_rate, race_rate, n, rng
    )
    _assert_same_frequencies(kind, want_kind)
    _assert_same_frequencies(count, want_count)
    got, want = arrive[kind > 0], want_arrive[want_kind > 0]
    assert np.all(got < room) and np.all(arrive[kind == 0] == np.inf)
    assert abs(got.mean() - want.mean()) <= 4.0 * math.hypot(
        got.std() / math.sqrt(got.size), want.std() / math.sqrt(want.size)
    )


class _Scripted:
    """A generator whose jump draws are scripted; other draws are real.

    ``standard_exponential`` returns ``loss`` on its first call and
    ``pull`` on its second, ``poisson`` the clean counts and
    ``standard_gamma`` the windows' totals.  The Poisson means and gamma
    shapes the kernel asks for are recorded.
    """

    def __init__(self, loss, pull, counts, windows):
        self._rng = np.random.default_rng(0)
        self.exponentials = [np.array(loss, dtype=float), np.array(pull, dtype=float)]
        self.counts, self.windows = counts, windows
        self.means, self.shapes = None, None

    def standard_exponential(self, size):
        draws = self.exponentials.pop(0)
        assert size == draws.size
        return draws

    def poisson(self, means):
        self.means = np.asarray(means)
        return np.array(self.counts, dtype=np.int64)

    def standard_gamma(self, shapes):
        self.shapes = np.asarray(shapes)
        return np.array(self.windows, dtype=float)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _scripted_jump(loss, pull, counts, windows, room=1_000.0):
    """Jump one clean failure per scripted draw; return ``(rng, batch, fail, landed)``.

    Each failure comes ``room`` hours before the horizon.  With
    ``first_rate`` 2, ``p_dl`` 0.25 and ``p_he`` 0.5 the data-loss and
    wrong-pull rates are 0.5 and the clean rate is 1; the race rate is 1.
    """
    n = len(loss)
    batch = BatchLifetimes.zeros(n, HORIZON)
    rng = _Scripted(loss, pull, counts, windows)
    runs = _CleanRuns(batch, rng, 2.0, 1.0, 0.25, 0.5, HORIZON)
    start = np.full(n, HORIZON - room)
    fail = np.zeros(n)
    landed = runs.jump(np.arange(n), np.zeros(n, dtype=bool), start, fail)
    return rng, batch, fail, landed


def test_an_outage_failure_just_before_the_horizon_lands():
    # Runs of three clean failures, 990 h of up time before the outage
    # failure (a draw of 495 at rate 0.5): with windows a hair under and
    # over 10 h, it lands just before the horizon or just after it.  The
    # third run's first outage is a wrong pull.
    rng, batch, fail, landed = _scripted_jump(
        [495.0, 495.0, 900.0], [900.0, 900.0, 495.0], [3, 3, 3], [10.0 - 1e-9, 10.0 + 1e-9, 5.0]
    )
    np.testing.assert_array_equal(rng.shapes, [4.0, 4.0, 4.0])  # the first window's own, too
    assert landed.tolist() == [vectorized._LOSS, 0, vectorized._PULL]
    assert HORIZON - 1e-6 < fail[0] < HORIZON and fail[1] == np.inf
    assert fail[2] == HORIZON - 1_000.0 + 995.0
    assert batch.disk_failures[0] == batch.disk_failures[2] == 3
    assert 0 <= batch.disk_failures[1] <= 3


def test_an_outage_beyond_the_room_counts_clean_failures_in_the_room():
    # Both outage streams' next failures (1500 and 1800 h of up time) lie
    # beyond the 1000 h of room: the clean count is Poisson over the room
    # alone, and the lifetime retires.
    rng, batch, fail, landed = _scripted_jump([750.0], [900.0], [5], [50.0])
    np.testing.assert_array_equal(rng.means, [1_000.0])
    assert landed.tolist() == [0] and fail[0] == np.inf
    assert 0 <= batch.disk_failures[0] <= 5


@pytest.mark.parametrize("kind", ["data_loss", "wrong_pull"])
def test_a_landed_failure_ends_its_window_in_its_outage(monkeypatch, kind):
    # Every jump lands on an outage failure of one kind just before the
    # horizon; its window must end in that outage.
    mark = {"data_loss": vectorized._LOSS, "wrong_pull": vectorized._PULL}[kind]
    jumps = []

    def land(room, loss, pull, clean_rate, race_rate, rng):
        jumps.append(room.size)
        return room - 1e-6, np.zeros(room.size, dtype=np.int64), np.full(room.size, mark)

    episodes = {"data_loss": 0, "wrong_pull": 0}

    def spy(name):
        method = getattr(vectorized._Outages, name)

        def counted(self, g, *args):
            episodes[name] += g.size
            return method(self, g, *args)

        return counted

    monkeypatch.setattr(vectorized, "_clean_run", land)
    for name in episodes:
        monkeypatch.setattr(vectorized._Outages, name, spy(name))
    _run(_memoryless_conventional, _point(RAID5, 1e-4, 0.05), 40_000, seed=12)
    # Besides the landed ones, about 5% of the windows that open a
    # lifetime end in an outage, 94% of them wrong pulls.
    assert episodes[kind] >= sum(jumps) > 30_000
    other = "wrong_pull" if kind == "data_loss" else "data_loss"
    assert episodes[other] < 0.1 * sum(jumps)


def _shape_grid(shapes):
    """Return a two-point grid of 100 lifetimes per failure shape."""
    points = [
        paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=shape)
        for shape in shapes
    ]
    return stack_parameter_points(points, [100] * len(points))


#: Inputs that keep the clock matrix: ``(params, biasing)``.
CLOCK_MATRIX_INPUTS = [
    (paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=1.3), None),
    (_shape_grid([1.0, 1.3]), None),
    (paper_parameters(disk_failure_rate=1e-4, hep=0.05), 8.0),
    (_shape_grid([1.0, 1.0]), 8.0),
]
CLOCK_MATRIX_IDS = ["weibull-point", "one-weibull-row", "biased-point", "biased-grid"]


def _assert_same_batch(got, want):
    for field in COUNTERS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestPathSelection:
    """The input alone picks the kernel; only the clock matrix builds clocks."""

    @pytest.fixture
    def clock_matrices(self, monkeypatch):
        built = []
        initial_clocks = vectorized._initial_clocks

        def spy(*args, **kwargs):
            built.append(args)
            return initial_clocks(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_initial_clocks", spy)
        return built

    @pytest.mark.parametrize(
        "policy", ["conventional", "baseline", "automatic_failover", "hot_spare_pool"]
    )
    @pytest.mark.parametrize("grid", ["point", "stacked"])
    def test_unbiased_exponential_builds_no_clock_matrix(self, clock_matrices, policy, grid):
        params = (
            paper_parameters(disk_failure_rate=1e-4, hep=0.05)
            if grid == "point"
            else _shape_grid([1.0, 1.0])
        )
        resolve_policy(policy).batch(params, HORIZON, 200, np.random.default_rng(3))
        assert clock_matrices == []

    @pytest.mark.parametrize("params,biasing", CLOCK_MATRIX_INPUTS, ids=CLOCK_MATRIX_IDS)
    def test_weibull_or_biased_builds_a_clock_matrix(self, clock_matrices, params, biasing):
        kwargs = {} if biasing is None else {"biasing": biasing}
        got = _run(batch_conventional, params, 200, seed=5, **kwargs)
        assert len(clock_matrices) == 1
        want = _run(_clock_matrix_conventional, params, 200, seed=5, **kwargs)
        _assert_same_batch(got, want)

    @pytest.mark.parametrize("n_spares", [1, 3])
    @pytest.mark.parametrize("params,biasing", CLOCK_MATRIX_INPUTS, ids=CLOCK_MATRIX_IDS)
    def test_weibull_or_biased_spare_pool_builds_a_clock_matrix(
        self, clock_matrices, params, biasing, n_spares
    ):
        kwargs = {"n_spares": n_spares}
        if biasing is not None:
            kwargs["biasing"] = biasing
        got = _run(batch_spare_pool, params, 200, seed=5, **kwargs)
        assert len(clock_matrices) == 1
        want = _run(_clock_matrix_spare_pool, params, 200, seed=5, **kwargs)
        _assert_same_batch(got, want)
        assert (got.log_weights is None) == (biasing is None)

    def test_unbiased_exponential_runs_the_memoryless_kernel(self):
        params = _shape_grid([1.0, 1.0])
        for kernel, memoryless in (
            (batch_conventional, _memoryless_conventional),
            (batch_spare_pool, _memoryless_spare_pool),
        ):
            got = _run(kernel, params, 200, seed=5)
            _assert_same_batch(got, _run(memoryless, params, 200, seed=5))
            assert got.log_weights is None

    @pytest.mark.parametrize("kernel", [batch_spare_pool, _clock_matrix_spare_pool])
    def test_pool_sizes_are_checked_on_both_paths(self, kernel):
        with pytest.raises(ConfigurationError, match="at least one spare"):
            kernel(paper_parameters(), HORIZON, 10, np.random.default_rng(0), n_spares=0)
        grid = stack_parameter_points([paper_parameters()] * 2, [5, 5], n_spares=[1, 0])
        with pytest.raises(ConfigurationError, match="at least one spare"):
            kernel(grid, HORIZON, 10, np.random.default_rng(0))


#: Memoryless kernels with the pool sizes of a one-row check:
#: ``(kernel, pool size)``, ``None`` for the conventional kernel.
ONE_ROW_KERNELS = {
    "conventional": (_memoryless_conventional, None),
    "failover": (_memoryless_spare_pool, 1),
    "pool3": (_memoryless_spare_pool, 3),
}


@pytest.mark.parametrize("rate", [1e-4, 1e-6], ids=["rate1e-4", "paper-point"])
@pytest.mark.parametrize("kernel", list(ONE_ROW_KERNELS))
def test_one_row_grid_keeps_its_points_counters(kernel, rate):
    # A one-row grid takes its race probabilities from per-row planes
    # through the scalar arithmetic, so it decides every window as its
    # point does.  Downtime may differ in the last bits: the outages draw
    # restores through the row-aware distributions.
    body, pool = ONE_ROW_KERNELS[kernel]
    point = paper_parameters(disk_failure_rate=rate, hep=0.05 if rate == 1e-4 else 1e-3)
    n = 20_000
    point_kwargs = {} if pool is None else {"n_spares": pool}
    grid = stack_parameter_points([point], [n], n_spares=None if pool is None else [pool])
    outcomes = []
    for params, kwargs in ((grid, {}), (point, point_kwargs)):
        rng = RandomStreams(3).stream("montecarlo")
        outcomes.append((body(params, HORIZON, n, rng, **kwargs), rng.bit_generator.state))
    (got, got_state), (want, want_state) = outcomes
    assert got_state == want_state
    for field in ("disk_failures", "dl_events", "du_events", "human_errors"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    np.testing.assert_allclose(got.downtime_hours, want.downtime_hours, rtol=1e-12)


def _shard_peak(kernel, params, n, **kwargs):
    """Return the ``tracemalloc`` peak of one warm shard of ``n`` lifetimes."""
    _run(kernel, params, n, seed=2017, **kwargs)  # warm caches
    tracemalloc.start()
    try:
        _run(kernel, params, n, seed=2017, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _paper_point_shard_peak(kernel, **kwargs):
    """Return the ``tracemalloc`` peak of one 50k-lifetime paper-point shard."""
    return _shard_peak(kernel, paper_parameters(), 50_000, **kwargs)


def test_paper_point_shard_peaks_below_4_5_mb():
    # One default 50k-lifetime shard at the paper's point: the memoryless
    # kernel holds a few per-lifetime vectors, no (50k, 4) clock matrix and
    # no arena buffers.
    assert _paper_point_shard_peak(batch_conventional) < 4.5e6


def test_paper_point_failover_shard_peaks_below_5_mb():
    # The same for fail-over, whose clock-matrix body peaks at 5.85 MB.
    assert _paper_point_shard_peak(batch_spare_pool, n_spares=1) < 5e6


def test_event_rich_stacked_shard_peaks_below_3_55_mb():
    # One default 25k-lifetime stacked shard from the heavy corner of the
    # Fig. 5 Monte Carlo surface (perfbench mc_grid: lambda = 10**-4.43
    # and 1e-4), where nearly every lifetime jumps in the first round.
    # Stepping every window peaked at 3.23 MB, and jumping the whole
    # working set in one slice at 6.4 MB; the bound is the first plus 10%.
    points = [_point(RAID5, rate, 1e-3) for rate in (10.0 ** (-31.0 / 7.0), 1e-4)]
    grid = stack_parameter_points(points, [12_500, 12_500])
    assert _shard_peak(_memoryless_conventional, grid, 25_000) < 3.55e6


#: Two 200k-lifetime paper-point runs per policy; prints each run's minor
#: page faults.
PAGE_FAULT_SCRIPT = """
import resource
from repro.core.evaluation import evaluate
from repro.core.parameters import paper_parameters

for policy in ("conventional", "automatic_failover"):
    for seed in (1, 2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(paper_parameters(), policy, backend="monte_carlo", n_iterations=200_000, seed=seed)
        print(policy, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the budget depends on glibc malloc's mmap and trim thresholds",
)
def test_second_run_reuses_the_mapped_pages():
    # A fresh interpreter, so no earlier test has raised malloc's
    # thresholds.  Without the kernel module's 2 MiB warm-up block the
    # second conventional run faults its working set in again (about 4,000
    # minor faults).
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PAGE_FAULT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [line.split() for line in proc.stdout.splitlines()]
    assert [policy for policy, _ in runs[1::2]] == ["conventional", "automatic_failover"]
    for policy, faults in runs[1::2]:
        assert int(faults) <= 100, runs


@pytest.mark.parametrize("hep", [0.0, 0.1])
@pytest.mark.parametrize(
    "geometry", [RaidGeometry.raid1(), RaidGeometry.raid5(7)], ids=["raid1", "raid5-7"]
)
@pytest.mark.parametrize("policy", ["conventional", "baseline"])
def test_monte_carlo_meets_the_analytical_chain(policy, geometry, hep):
    params = paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=hep)
    exact = evaluate(params, policy, backend="analytical").availability
    result = run_monte_carlo(
        MonteCarloConfig(params=params, policy=policy, n_iterations=100_000, seed=11)
    )
    assert abs(result.availability - exact) <= 4.0 * result.interval.std_error


#: Fail-over Monte Carlo over Fig. 3 chain unavailability at hep = 0.1 and
#: its z-score (100k lifetimes, seed 11); the clock-matrix kernel read
#: 0.734 (+10.9), 0.897 (+8.4) and 0.945 (+9.1) at the same seed.
FIG3_GAP_AT_HEP_0_1 = {"raid1": "0.701 (z +12.6)", "raid5-3": "0.873 (z +10.4)", "raid5-7": "0.958 (z +6.8)"}

FIG3_GEOMETRIES = {"raid1": RAID1, "raid5-3": RAID5, "raid5-7": RaidGeometry.raid5(7)}


def _fig3_cases():
    for name, geometry in FIG3_GEOMETRIES.items():
        for hep in (0.0, 0.01):
            yield pytest.param(geometry, hep, id=f"{name}-{hep}")
        gap = pytest.mark.xfail(
            strict=True,
            reason=(
                "the spare-pool model misses the Fig. 3 chain at hep = 0.1: Monte Carlo / "
                f"chain unavailability {FIG3_GAP_AT_HEP_0_1[name]}"
            ),
        )
        yield pytest.param(geometry, 0.1, id=f"{name}-0.1", marks=gap)


@pytest.mark.parametrize("geometry,hep", _fig3_cases())
def test_failover_monte_carlo_meets_the_fig3_chain(geometry, hep):
    params = paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=hep)
    exact = evaluate(params, "automatic_failover", backend="analytical").availability
    result = run_monte_carlo(
        MonteCarloConfig(
            params=params, policy="automatic_failover", n_iterations=100_000, seed=11
        )
    )
    assert abs(result.availability - exact) <= 4.0 * result.interval.std_error
