"""Vectorised batch Monte Carlo kernels.

Each kernel runs thousands of independent array lifetimes as
struct-of-arrays numpy batches: per round, every still-active lifetime
resolves exactly one failure episode, and all stochastic ingredients of that
round — disk-failure clocks, repair/rebuild durations, human-error Bernoulli
draws, crash races — are sampled as whole arrays.  The per-lifetime scalar
simulators in :mod:`repro.core.montecarlo.simulator` remain the readable
reference (and the traced/debug path); these kernels reproduce their episode
semantics distribution-for-distribution, so at a fixed parameter set the two
paths produce statistically indistinguishable availability estimates.

Three kernels are provided:

``batch_conventional``
    The paper's Fig. 2 conventional replacement policy.  Unbiased runs
    with exponential failures track one aggregate next-failure clock per
    lifetime (``_memoryless_conventional``), simulate only the lifetimes
    that fail before the horizon (``_first_failures``), and jump each run
    of clean repair windows of an event-rich lifetime in one draw
    (``_CleanRuns``); Weibull
    laws and biased runs keep the ``(n_lifetimes, n_disks)`` clock matrix
    (``_clock_matrix_conventional``).  The input alone picks the path.
``batch_spare_pool``
    A hot-spare state machine parameterised by the pool size ``n_spares``.
    With ``n_spares=1`` it is the paper's Fig. 3 automatic fail-over policy;
    larger pools implement the hot-spare-pool scenario (each technician
    visit restocks the full pool, and a failure arriving while spares remain
    consumes another spare instead of exposing the array).  Its clock
    disciplines and the rule that picks one are ``batch_conventional``'s:
    ``_memoryless_spare_pool`` carries one next-failure time per lifetime,
    ``_clock_matrix_spare_pool`` the clock matrix.
``batch_erasure``
    The erasure-coded k-of-N checker/repair family: shares decay between
    deterministic check instants, and the checker repairs below a threshold
    with a human-error botch risk.  Exponential decay is tracked through a
    single aggregate next-failure clock per lifetime (no clock matrix).

The episode kernels accept either a scalar
:class:`~repro.core.parameters.AvailabilityParameters` point (every lifetime
shares one parameter set — bit-identical to the pre-stacked kernels) or a
:class:`~repro.core.policies.stacked.StackedParams` grid, where hep, the
rates, the geometry and the spare-pool size are per-lifetime arrays and a
single invocation simulates an entire ``points x lifetimes`` sweep grid.
The dispatch is duck-typed: row-aware distributions expose ``sample_rows``
and stacked parameter objects expose ``n_disks_rows``/``n_spares_rows``;
plain scalars take the exact pre-stacked code paths (identical draws).

**Allocation discipline.**  Every kernel keeps a *physically compacted*
working set: its per-lifetime state holds only the still-active
lifetimes, shrinking whenever lifetimes reach the horizon, so late rounds
touch only live rows; the memoryless kernels start it from the lifetimes
that fail before the horizon at all.  The clock-matrix kernels compact their clock
matrix into a reusable :class:`_Arena` sized once to the shard.  Compaction only changes *where* state lives, never which rows are
stepped or in which order they are sampled: row-aware draws are keyed by
global lifetime ids, never by working-set positions.  Golden records of
fixed-seed runs (``tests/core/test_golden_records.py``) pin the resulting
draw sequence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import (
    BatchLifetimes,
    RedundancyScheme,
    ResolvedScheme,
    prefix_rows,
)
from repro.exceptions import ConfigurationError, HumanErrorModelError, SimulationError

__all__ = ["batch_conventional", "batch_erasure", "batch_spare_pool"]

# Free one 2 MiB block before the first shard, so that shards keep their
# pages mapped.  glibc malloc serves blocks at or above its mmap threshold
# (128 KiB at start) with a fresh mmap and raises the threshold, and the
# heap trim threshold to twice it, to the largest mmapped block freed so
# far.  A 50k-lifetime shard allocates about ten 400 kB per-lifetime
# columns, so without a larger free the trim threshold stays near 800 kB
# and every shard faults its 3-4 MB working set in again: about 4,300
# minor faults on the second of two 200k-lifetime ``conventional`` runs in
# a fresh interpreter, none once this block has been freed.
np.empty(1 << 21, dtype=np.uint8)


# ----------------------------------------------------------------------
# Array helpers
# ----------------------------------------------------------------------
def _sample(dist, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` samples from a repro distribution as a float array."""
    if size <= 0:
        return np.empty(0, dtype=float)
    return np.asarray(dist.sample(int(size), rng), dtype=float)


def _sample_rows(
    dist, rows: np.ndarray, rng: np.random.Generator, at: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw one sample per entry of ``rows``.

    Row-aware distributions (``sample_rows``) draw each sample at the rate
    of the lifetime it belongs to; plain distributions fall through to the
    scalar-parameter path, which keeps single-point batches bit-identical
    to the pre-stacked kernels.  ``rows`` are always **global** lifetime
    ids — the kernels translate their working-set positions before
    sampling, so compaction never changes a draw.

    ``at`` carries each draw's birth time (the absolute hour the sampled
    clock starts ticking).  Only the failure-biasing importance sampler
    consumes it — it needs the birth to censor likelihood-ratio
    contributions at the horizon; plain distributions ignore it.
    """
    if isinstance(dist, _BiasedSampler):
        return dist.sample_rows(rows, rng, at=at)
    sampler = getattr(dist, "sample_rows", None)
    if sampler is not None:
        return sampler(rows, rng)
    return _sample(dist, rows.size, rng)


def _rows(value: Union[float, np.ndarray], rows: np.ndarray):
    """Index a per-row parameter array (scalars pass through untouched)."""
    if isinstance(value, np.ndarray):
        return value[rows]
    return value


def _has_positive(value: Union[float, np.ndarray]) -> bool:
    """Return whether a scalar-or-array parameter has any positive entry."""
    return bool(np.any(np.asarray(value) > 0.0))


def _exponential_law(params) -> bool:
    """Return whether every row of ``params`` fails exponentially (shape 1)."""
    return bool(np.all(np.asarray(getattr(params, "failure_shape", 1.0)) == 1.0))


def _clip_downtime(start: np.ndarray, end: np.ndarray, horizon: float) -> np.ndarray:
    """Return the portion of each ``[start, end]`` inside the horizon."""
    return np.maximum(0.0, np.minimum(end, horizon) - np.minimum(start, horizon))


# The numpy row searches walk the ``n`` columns of the row-major clock
# matrix instead of calling ``argmin``/``partition`` per row: numpy pays a
# fixed cost per row on rows this narrow, while a column pass is one
# ``np.minimum``/``np.maximum`` over every row at once.  Both only *select*
# elements (clocks are sampled times or ``+inf``, never NaN or ``-0.0``), so
# every result is the element ``argmin``/``partition`` would pick.
def _row_min(clocks: np.ndarray) -> np.ndarray:
    """Return each row's earliest pending failure time (no slot)."""
    best = np.minimum(clocks[:, 0], clocks[:, -1])
    for j in range(1, clocks.shape[1] - 1):
        np.minimum(best, clocks[:, j], out=best)
    return best


def _scan_columns(columns, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return each row's running ``(slot, first, second)`` over ``columns``.

    ``first`` and ``second`` are the two smallest values, duplicates
    included: the elements ``argmin`` and ``partition(1)`` select.  The slot
    moves only where a column is strictly below ``first``, so ties keep the
    lowest column as ``argmin`` does; slots only grow, so
    ``maximum(slot, lower * j)`` sets them without a masked write.
    """
    columns = iter(columns)
    first = next(columns)
    second = np.full(m, np.inf)
    slot = np.zeros(m, dtype=np.intp)
    for j, column in enumerate(columns, 1):
        lower = np.minimum(first, column)
        np.minimum(second, np.maximum(first, column), out=second)
        np.maximum(slot, (lower < first) * j, out=slot)
        first = lower
    return slot, first, second


def _columns(clocks: np.ndarray):
    """Yield the column views of ``clocks`` in slot order."""
    return (clocks[:, j] for j in range(clocks.shape[1]))


def _min_excluding(clocks: np.ndarray, exclude: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return per-row ``(slot, time)`` of the earliest failure outside ``exclude``.

    Equals masking column ``exclude[row]`` to ``inf`` and taking ``argmin``,
    including rows left all-``inf`` (slot 0, time ``inf``).
    """
    masked = (
        np.where(exclude == j, np.inf, column) for j, column in enumerate(_columns(clocks))
    )
    return _scan_columns(masked, clocks.shape[0])[:2]


def _second_smallest(clocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return each row's ``(slot, second)``: the earliest slot, second-smallest clock.

    ``second`` equals ``_min_excluding(clocks, slot)[1]``: removing one
    instance of a row's minimum leaves its second order statistic.
    Requires at least two columns, which every kernel guarantees
    (``n_disks >= 2``).
    """
    slot, _, second = _scan_columns(_columns(clocks), clocks.shape[0])
    return slot, second


def _initial_clocks(params, failure_dist, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the ``(m, n)`` matrix of first failure times.

    Stacked grids sample every slot at its row's failure parameters and mask
    the slots beyond a row's geometry with ``+inf`` so they can never fire.
    """
    n_rows = getattr(params, "n_disks_rows", None)
    if isinstance(failure_dist, _BiasedSampler):
        # The biased sampler needs the geometry mask so slots that can never
        # fire contribute nothing to the likelihood-ratio weights.
        clocks = failure_dist.sample_matrix(n, rng, n_disks_rows=n_rows)
    else:
        matrix_sampler = getattr(failure_dist, "sample_matrix", None)
        if matrix_sampler is not None:
            clocks = matrix_sampler(n, rng)
        elif getattr(failure_dist, "sample_rows", None) is not None:
            rows = np.repeat(np.arange(m), n)
            clocks = failure_dist.sample_rows(rows, rng).reshape(m, n)
        else:
            clocks = _sample(failure_dist, m * n, rng).reshape(m, n)
    if n_rows is not None and np.any(n_rows < n):
        clocks[np.arange(n)[None, :] >= n_rows[:, None]] = np.inf
    return clocks


def _renew_slots(
    clocks: np.ndarray,
    rows: np.ndarray,
    slots: np.ndarray,
    at_times: np.ndarray,
    failure_dist,
    rng: np.random.Generator,
    ids: np.ndarray,
) -> None:
    """Install fresh disks in ``(rows, slots)`` at the given times.

    ``rows`` are working-set positions; ``ids`` are the same rows' global
    lifetime ids, which key the draws.
    """
    if rows.size:
        clocks[rows, slots] = at_times + _sample_rows(failure_dist, ids, rng, at=at_times)


def _renew_failed_before(
    clocks: np.ndarray,
    rows: np.ndarray,
    times: np.ndarray,
    failure_dist,
    rng: np.random.Generator,
    ids: np.ndarray,
) -> None:
    """Renew, per row, every slot whose failure time is at or before ``times``.

    ``rows`` and ``ids`` have the same meaning as in :func:`_renew_slots`.
    """
    if rows.size == 0:
        return
    sub = clocks[rows]
    mask = sub <= times[:, None]
    count = int(mask.sum())
    if count:
        # Boolean indexing walks the mask row-major, so repeating each row's
        # renewal time by its renewal count lines the starts up with it.
        per_row = mask.sum(axis=1)
        starts = np.repeat(times, per_row)
        sub[mask] = starts + _sample_rows(
            failure_dist, np.repeat(ids, per_row), rng, at=starts
        )
        clocks[rows] = sub


def _pick_other_slots(
    rng: np.random.Generator, n_disks: Union[int, np.ndarray], slots: np.ndarray
) -> np.ndarray:
    """Pick, per row, a uniformly random operational slot other than ``slots``.

    ``n_disks`` may be a per-row array on stacked grids (each row draws from
    its own geometry).
    """
    if not isinstance(n_disks, np.ndarray):
        if n_disks <= 1:
            return slots.copy()
        choice = rng.integers(n_disks - 1, size=slots.size)
    else:
        choice = rng.integers(n_disks - 1)
    return np.where(choice < slots, choice, choice + 1)


def _random_slots(
    rng: np.random.Generator, n_disks: Union[int, np.ndarray], size: int
) -> np.ndarray:
    """Pick a uniformly random slot per row (per-row geometry on grids)."""
    if not isinstance(n_disks, np.ndarray):
        return rng.integers(n_disks, size=size)
    return rng.integers(n_disks)


def _crash_times(
    crash_rate: Union[float, np.ndarray], size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample crash clocks of wrongly pulled disks (``inf`` at rate zero)."""
    if not isinstance(crash_rate, np.ndarray):
        if crash_rate > 0.0:
            return rng.exponential(1.0 / crash_rate, size)
        return np.full(size, np.inf)
    crash = np.full(size, np.inf)
    positive = crash_rate > 0.0
    if np.any(positive):
        std = rng.standard_exponential(size)
        crash[positive] = std[positive] / crash_rate[positive]
    return crash


def _recovery_race(
    rows: np.ndarray,
    recovery_dist,
    hep: Union[float, np.ndarray],
    crash_rate: Union[float, np.ndarray],
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised twin of ``HumanErrorRecoveryModel.sample_until_recovered``.

    ``rows`` are the **global** lifetime rows (indices into any per-row
    parameter arrays) of the outstanding errors.  Returns
    ``(total_duration_hours, disk_crashed)`` arrays of length ``rows.size``.
    Each round draws one recovery attempt per still-outstanding error, races
    it against a crash of the wrongly pulled disk, and repeats the attempt
    with probability ``hep``.
    """
    size = rows.size
    total = np.zeros(size, dtype=float)
    crashed = np.zeros(size, dtype=bool)
    pending = np.arange(size)
    for _ in range(int(max_attempts)):
        if pending.size == 0:
            return total, crashed
        sub_rows = rows[pending]
        attempt = _sample_rows(recovery_dist, sub_rows, rng)
        crash = _crash_times(_rows(crash_rate, sub_rows), pending.size, rng)
        crash_first = crash < attempt
        total[pending] += np.where(crash_first, crash, attempt)
        crashed[pending[crash_first]] = True
        repeated = (~crash_first) & (rng.random(pending.size) < _rows(hep, sub_rows))
        pending = pending[repeated]
    raise HumanErrorModelError(
        f"error recovery did not terminate within {max_attempts} attempts (hep={hep!r})"
    )


# ----------------------------------------------------------------------
# Failure-biasing importance sampling
# ----------------------------------------------------------------------
def _failure_shape_scale(dist):
    """Return the Weibull ``(shape, scale)`` parameters of a failure law.

    Exponential families report shape 1 (scale ``1/rate``); row-aware
    stacked distributions report per-row arrays.  Anything outside the
    exponential/Weibull scale families cannot be biased by rate inflation
    and is rejected.
    """
    rates = getattr(dist, "rates", None)
    if rates is not None:
        shapes = getattr(dist, "shapes", None)
        if shapes is not None:
            return shapes, dist.scales
        return 1.0, 1.0 / rates
    rate = getattr(dist, "rate_parameter", None)
    if rate is not None:
        return 1.0, 1.0 / float(rate)
    shape = getattr(dist, "shape", None)
    scale = getattr(dist, "scale", None)
    if shape is not None and scale is not None:
        return float(shape), float(scale)
    raise ConfigurationError(
        "failure biasing requires an exponential or Weibull failure "
        f"distribution, got {dist!r}"
    )


class _BiasedSampler:
    """Failure-biasing importance sampler wrapped around a failure law.

    Draws come from the *biased* distribution — every failure rate inflated
    by ``factor`` — while the underlying stream is consumed exactly like the
    unbiased distribution would (one standard draw per sample): for the
    exponential/Weibull scale families, inflating the rate by ``b`` divides
    the scale by ``b``, so a biased draw is the unbiased draw divided by
    ``b``.  Each draw's log-likelihood-ratio contribution ``log dP/dQ`` is
    accumulated into the per-lifetime ``log_weights`` array.

    **Censoring discipline.**  A naive density ratio on every draw makes the
    weight variance explode exponentially in the number of renewals per
    lifetime.  The kernels only ever *act* on a clock value through events
    inside the mission horizon, so the likelihood ratio is taken on the
    horizon-censored observation instead: a draw born at ``tau`` that fires
    at ``tau + t' < H`` contributes the density ratio
    ``-k*log(b) + (b^k - 1) * (t'/s)^k``; a draw that would fire at or
    beyond ``H`` contributes the survival ratio at its censor point,
    ``(b^k - 1) * ((H - tau)/s)^k`` — a *deterministic* quantity given the
    birth time; a draw born at or after ``H`` (or sampled for a geometry
    slot that does not exist) contributes nothing.  Every contribution has
    unit expectation under the biased measure, and the clipped-at-horizon
    downtime is measurable with respect to the censored observations, so
    the weighted availability estimator is exactly unbiased.

    **Exponential closed form.**  When the failure law's shape is the scalar
    1 and the factor is a scalar, the contributions reduce to
    ``(b - 1) * t'/s - log(b)`` and ``(b - 1) * (H - tau)/s``, with ``log(b)``
    evaluated once.  That is the general arithmetic with ``b^1 = b``,
    ``x^1 = x`` and ``1 * y = y`` applied, each exact in floating point, so
    the weights are bit-identical to the general path.
    """

    def __init__(self, base, factor, horizon_hours: float, log_weights: np.ndarray) -> None:
        self.base = base
        self.horizon = float(horizon_hours)
        self.log_weights = log_weights
        factor_arr = np.asarray(factor, dtype=float)
        if not np.all(np.isfinite(factor_arr)) or np.any(factor_arr <= 0.0):
            raise ConfigurationError(
                f"biasing factor must be positive and finite, got {factor!r}"
            )
        if factor_arr.ndim == 0:
            self.factor: Union[float, np.ndarray] = float(factor_arr)
        elif factor_arr.shape == (log_weights.size,):
            self.factor = factor_arr
        else:
            raise ConfigurationError(
                f"biasing factor shape {factor_arr.shape} does not match "
                f"{log_weights.size} lifetimes"
            )
        self.shape, self.scale = _failure_shape_scale(base)
        #: ``log(b)`` when the exponential closed form applies, else ``None``.
        self.log_factor: Optional[float] = None
        exponential = isinstance(self.shape, float) and self.shape == 1.0
        if exponential and isinstance(self.factor, float):
            self.log_factor = float(np.log(np.array([self.factor]))[0])

    def _exponential_contrib(self, fired, draws, remaining, s) -> np.ndarray:
        """Closed-form contributions: density ratio where ``fired``, else survival."""
        contrib = np.where(fired, draws, remaining)
        contrib /= s
        contrib *= self.factor - 1.0
        np.subtract(contrib, self.log_factor, out=contrib, where=fired)
        return contrib

    def sample_rows(
        self, rows: np.ndarray, rng: np.random.Generator, at: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw biased renewal clocks for ``rows`` born at hours ``at``."""
        if at is None:
            raise SimulationError("biased failure draws require their birth times")
        draws = _sample_rows(self.base, rows, rng)
        b = _rows(self.factor, rows)
        draws = draws / b
        self._accumulate(
            rows,
            draws,
            np.asarray(at, dtype=float),
            b,
            _rows(self.shape, rows),
            _rows(self.scale, rows),
        )
        return draws

    def sample_matrix(
        self,
        n_cols: int,
        rng: np.random.Generator,
        n_disks_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw the biased ``(m, n_cols)`` initial clock matrix (born at 0)."""
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
        if self.log_factor is not None:
            draws = draws / self.factor
            s = self.scale[:, None] if isinstance(self.scale, np.ndarray) else self.scale
            contrib = self._exponential_contrib(draws < self.horizon, draws, self.horizon, s)
        else:
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

    def _accumulate(
        self,
        rows: np.ndarray,
        draws: np.ndarray,
        births: np.ndarray,
        b,
        k,
        s,
    ) -> None:
        """Add each draw's censored log-likelihood-ratio to its lifetime."""
        size = draws.size
        if size == 0:
            return
        if self.log_factor is not None:
            remaining = self.horizon - births
            live = remaining > 0.0
            contrib = self._exponential_contrib(live & (draws < remaining), draws, remaining, s)
            contrib[~live] = 0.0
            np.add.at(self.log_weights, rows, contrib)
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


def _biased_failure_dist(
    params, horizon_hours: float, m: int, biasing
) -> Tuple[object, Optional[np.ndarray]]:
    """Build the (possibly biased) failure distribution for one batch.

    Returns ``(failure_dist, log_weights)``; ``log_weights`` is ``None``
    when no biasing was requested, leaving the unbiased call path untouched.
    """
    failure_dist = params.failure_distribution()
    if biasing is None:
        return failure_dist, None
    log_weights = np.zeros(m, dtype=float)
    return _BiasedSampler(failure_dist, biasing, horizon_hours, log_weights), log_weights


# ----------------------------------------------------------------------
# Scratch-buffer arena
# ----------------------------------------------------------------------
#: Thread-lifetime backing store of the kernel scratch buffers, grown to
#: the largest shard seen.  Re-allocating multi-megabyte scratch per kernel
#: invocation would bounce through ``mmap``/``munmap`` (and re-fault every
#: page) on common allocators; a worker instead pays that cost once and
#: reuses the pages for every subsequent shard.  The store is per *thread*
#: so concurrent kernel invocations (e.g. a caller driving the executors
#: from a thread pool) each get their own buffers instead of silently
#: clobbering another thread's live working set.
_SCRATCH_LOCAL = threading.local()


def _scratch_state() -> dict:
    state = getattr(_SCRATCH_LOCAL, "buffers", None)
    if state is None:
        state = {"ping": None, "pong": None}
        _SCRATCH_LOCAL.buffers = state
    return state


def _scratch_matrix(state: dict, key: str, m: int, n: int) -> np.ndarray:
    buffer = state[key]
    if buffer is None or buffer.size < m * n:
        buffer = np.empty(m * n, dtype=float)
        state[key] = buffer
    return buffer[: m * n].reshape(m, n)


class _Arena:
    """Reusable scratch buffers, sized to the shard, backed process-wide.

    Holds two full-size clock-matrix buffers, the alternating targets of
    working-set compactions (:meth:`compact`).  Because the live set only
    ever shrinks, every later round's view fits inside the buffers sized
    for round one; no per-round allocation of matrix-sized temporaries
    remains, and repeat invocations (a worker stepping through its shards)
    reuse the same backing pages outright.
    """

    __slots__ = ("_ping", "_pong", "_use_ping")

    def __init__(self, m: int, n: int) -> None:
        state = _scratch_state()
        self._ping = _scratch_matrix(state, "ping", m, n)
        self._pong = _scratch_matrix(state, "pong", m, n)
        self._use_ping = True

    def compact(self, clocks: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Copy the ``keep`` rows of ``clocks`` into the next free buffer.

        Targets alternate between the two arena matrices, so the source —
        the kernel's own initial clock matrix on the first call, the other
        arena matrix afterwards — is always disjoint from the target:
        compaction costs one dense row copy and zero allocations.
        """
        target = self._ping if self._use_ping else self._pong
        self._use_ping = not self._use_ping
        out = target[: keep.size]
        np.take(clocks, keep, axis=0, out=out)
        return out


# ----------------------------------------------------------------------
# Episode helpers
# ----------------------------------------------------------------------
def _exp_after(start: np.ndarray, rate, rng: np.random.Generator) -> np.ndarray:
    """Return ``start`` plus one ``Exp(rate)`` draw per entry.

    ``rate`` is a scalar or one rate per entry; every entry takes one
    standard draw from the stream.
    """
    draw = rng.standard_exponential(start.size)
    draw /= rate
    draw += start
    return draw


def _segments(params, m: int) -> np.ndarray:
    """Return the sizes of the segments a memoryless kernel thins.

    A point is one segment and a stacked grid has its point segments; a
    grid that names none is thinned row by row, since nothing says which
    of its rows share a point.
    """
    segments = getattr(params, "segments", None)
    if segments is not None:
        return np.asarray(segments, dtype=np.int64)
    if getattr(params, "n_disks_rows", None) is not None:
        return np.ones(m, dtype=np.int64)
    return np.array([m], dtype=np.int64)


def _first_failures(
    params, batch: BatchLifetimes, first_rate, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(rows, fail)``: the lifetimes failing before the horizon, and when.

    A lifetime's first failure is ``Exp(r)``, ``r = first_rate``, and the
    lifetimes of one segment (:func:`_segments`) are i.i.d., so how many of
    them fail before the horizon ``H`` is one ``Binomial(count, p)`` draw,
    ``p = 1 - exp(-r*H)``.  The segment's first ``K`` rows take those
    failures, ``Exp(r)`` truncated to ``[0, H)`` by inversion:
    ``-log1p(-V*p) / r`` with ``V`` uniform (Devroye 1986).  Every other
    row keeps the all-zero lifetime it would have had and is never
    touched; ``batch`` records the segments and their ``K``.  A failure
    that rounds up to ``H`` retires with no failure in the first round.
    """
    sizes = _segments(params, len(batch))
    rate = np.asarray(first_rate, dtype=float)
    rate = rate[np.cumsum(sizes) - sizes] if rate.ndim else np.full(sizes.size, rate)
    p = -np.expm1(-rate * batch.horizon_hours)
    heads = rng.binomial(sizes, p)
    batch.segments, batch.simulated = sizes, heads
    rows = prefix_rows(sizes, heads)
    if sizes.size > 1:
        p, rate = np.repeat(p, heads), np.repeat(rate, heads)
    fail = rng.random(rows.size)
    fail *= p
    np.negative(fail, out=fail)
    np.log1p(fail, out=fail)
    np.negative(fail, out=fail)
    fail /= rate
    return rows, fail


def _retire(batch: BatchLifetimes, rounds: int, alive: np.ndarray, rows: np.ndarray, *columns):
    """Drop the rows not ``alive`` from ``rows`` and each working-set column.

    A memoryless round opens on one disk failure of every live lifetime,
    so a lifetime retiring after ``rounds`` rounds adds them to its
    failure count once, instead of one scatter per round.
    """
    if alive.all():
        return (rows, *columns)
    if rounds:
        batch.disk_failures[rows[~alive]] += rounds
    keep = np.flatnonzero(alive)
    return (rows[keep], *(column[keep] for column in columns))


def _repair_race(repair_rate, second_rate, hep):
    """Return ``(rate, p_dl, p_he)`` of a repair window raced by a failure.

    The window lasts ``Exp(rate)``, ``rate = repair_rate + second_rate``,
    whichever clock ends it.  One uniform ``u`` per window names the
    winner: the failure (data loss) when ``u < p_dl = second_rate / rate``,
    else the repair, followed by a wrong pull when ``u < p_he = p_dl + (1 -
    p_dl) * hep``.  The minimum of independent exponentials is independent
    of which one came first, and given ``u >= p_dl`` the ratio ``(u - p_dl)
    / (1 - p_dl)`` is uniform, so this is the law of two clocks and a
    Bernoulli.  Scalars and per-row planes take the same arithmetic, so a
    one-row grid decides each window exactly as its point does.
    """
    rate = repair_rate + second_rate
    p_dl = second_rate / rate
    return rate, p_dl, p_dl + (1.0 - p_dl) * hep


#: A conventional lifetime jumps over its clean repair windows only while
#: it expects at least this many more clean failures before the horizon;
#: below it, stepping one round per failure costs less than a jump.  Set
#: where the two cost the same on the shards of the Fig. 5 Monte Carlo
#: surface (DESIGN.md, *Vectorised batch executor*).
_JUMP_MIN_CLEAN = 2.0

#: Working-set rows jumped per slice, so that the jump's temporaries stay
#: a small fraction of an event-rich shard's working set.
_JUMP_SLICE = 3072


#: Kinds of failure a jump lands on, in the mark column of the
#: conventional body; 0 marks none.
_LOSS, _PULL = 1, 2


def _clean_run(
    room: np.ndarray,
    loss: np.ndarray,
    pull: np.ndarray,
    clean_rate,
    race_rate,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(arrive, count, kind)`` of the run after one clean failure.

    A window's outcome is independent of its length and of the up time
    before it, so in up time the failures whose window ends in a data
    loss, those that end in a wrong pull and the clean ones are
    independent Poisson streams (the marking theorem; Kingman, *Poisson
    Processes*, 1993).  From a clean failure with ``room`` hours left,
    ``loss`` and ``pull`` are the up times to the next failure of the
    first two streams, and the next outage failure comes ``X = min(loss,
    pull)`` later.  ``C ~ Poisson(clean_rate * min(X, room))`` clean
    failures lie before it, and their windows and the first failure's own
    total ``S ~ Gamma(C + 1) / race_rate``.  Where the outage failure comes
    within ``room``, ``arrive = X + S``, ``count`` is ``C`` and ``kind``
    says which outage it is (:data:`_LOSS`, :data:`_PULL`); elsewhere
    ``arrive`` is ``inf``, ``kind`` 0 and ``count`` the clean failures that
    land within ``room`` (:func:`_clean_before`).
    """
    arrive = np.minimum(loss, pull)
    span = np.minimum(arrive, room)
    count = rng.poisson(clean_rate * span)
    windows = rng.standard_gamma(count + 1.0)
    windows /= race_rate
    arrive += windows
    kind = np.where(loss < pull, np.int8(_LOSS), np.int8(_PULL))
    late = np.flatnonzero(arrive >= room)
    if late.size:
        _clean_before(count, late, span, windows, room, rng)
        arrive[late] = np.inf
        kind[late] = 0
    return arrive, count, kind


def _clean_before(
    count: np.ndarray,
    late: np.ndarray,
    span: np.ndarray,
    windows: np.ndarray,
    room: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Cut each ``late`` run's ``count`` to the clean failures within ``room``.

    A run holds ``C = count`` clean failures, uniform on ``(0, span)`` of
    up time, and ``C + 1`` windows totalling ``windows``.  Clean failure
    ``k`` lands ``tau_k + S_k`` after the run starts, ``tau_k`` its up-time
    position and ``S_k`` the sum of the first ``k`` windows, and these
    grow with ``k``.  Walk down from the last: ``tau_k = tau_{k+1} *
    V**(1/k)`` and ``S_k = S_{k+1} * V'**(1/k)``, from ``tau_{C+1} = span``
    and ``S_{C+1} = windows``, are the largest of ``k`` uniforms and the
    partial sum of ``k + 1`` exponentials given their total (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. V).  The first
    ``k`` that fits is the count; it is usually ``C`` or ``C - 1``.
    """
    todo = late[count[late] > 0]
    tau, part, room = span[todo], windows[todo], room[todo]
    while todo.size:
        power = 1.0 / count[todo]
        shrink = rng.random(todo.size)
        shrink **= power
        tau *= shrink
        shrink = rng.random(todo.size)
        shrink **= power
        part *= shrink
        miss = tau + part >= room
        count[todo[miss]] -= 1
        keep = np.flatnonzero(miss & (count[todo] > 0))
        todo, tau, part, room = todo[keep], tau[keep], part[keep], room[keep]


class _CleanRuns:
    """Runs of clean repair windows, jumped in one draw each.

    Serves the memoryless conventional body.  A lifetime whose failure at
    ``t`` ends its window cleanly, and which still expects at least
    :data:`_JUMP_MIN_CLEAN` clean failures in ``[t, H)``, jumps straight to
    its next failure whose window ends in an outage (:func:`_clean_run`)
    and adds the clean failures in between to its count, or retires when
    that failure lands past the horizon.  The working set is jumped in
    slices of :data:`_JUMP_SLICE` rows.

    Every position of a slice with a jumping row draws its two outage
    times, so that a lifetime meets the same draws at two hep values
    whichever rows jump, and the data-loss stream's rate
    ``n*lambda*p_dl`` does not depend on hep: common random numbers stay
    coupled across a hep sweep.
    """

    __slots__ = ("batch", "rng", "first_rate", "race_rate", "p_dl", "p_he", "until")

    def __init__(self, batch, rng, first_rate, race_rate, p_dl, p_he, until) -> None:
        self.batch = batch
        self.rng = rng
        self.first_rate = first_rate
        self.race_rate = race_rate
        self.p_dl = p_dl
        self.p_he = p_he
        self.until = until

    @classmethod
    def of(
        cls, batch: BatchLifetimes, rng: np.random.Generator, first_rate, race_rate, p_dl, p_he
    ) -> Optional["_CleanRuns"]:
        """Return the jumps of ``batch``, or ``None`` when no lifetime may jump.

        A lifetime may jump from a failure at or before ``until = H -
        _JUMP_MIN_CLEAN / clean_rate``; with ``hep = 1`` every window ends
        in an outage and nothing jumps.
        """
        horizon = batch.horizon_hours
        clean_rate = first_rate * (1.0 - p_he)
        most = clean_rate.max() if isinstance(clean_rate, np.ndarray) else clean_rate
        if most * horizon < _JUMP_MIN_CLEAN:
            return None
        with np.errstate(divide="ignore"):
            until = horizon - _JUMP_MIN_CLEAN / np.asarray(clean_rate, dtype=float)
        until = until if until.ndim else float(until)
        return cls(batch, rng, first_rate, race_rate, p_dl, p_he, until)

    def jump(
        self, rows: np.ndarray, below: np.ndarray, start: np.ndarray, fail: np.ndarray
    ) -> np.ndarray:
        """Jump the clean windows of ``rows`` that opened early enough.

        ``below`` flags the working-set positions whose window at ``start``
        ended in an outage.  A jumping position's ``fail`` becomes its next
        outage failure, or ``+inf`` when it retires, and its clean failures
        are counted.  Returns the kind of failure each position now fails
        into (:data:`_LOSS`, :data:`_PULL`, 0 for a drawn one).
        """
        landed = np.zeros(rows.size, dtype=np.int8)
        horizon = self.batch.horizon_hours
        rng = self.rng
        for low in range(0, rows.size, _JUMP_SLICE):
            part = slice(low, low + _JUMP_SLICE)
            g, t = rows[part], start[part]
            pos = np.flatnonzero(~below[part] & (t <= _rows(self.until, g)))
            if pos.size == 0:
                continue
            loss = rng.standard_exponential(g.size)[pos]
            pull = rng.standard_exponential(g.size)[pos]
            g, t = g[pos], t[pos]
            pos += low
            rate = _rows(self.first_rate, g)
            loss_rate = rate * _rows(self.p_dl, g)
            outage_rate = rate * _rows(self.p_he, g)
            with np.errstate(divide="ignore"):
                loss /= loss_rate
                pull /= outage_rate - loss_rate
            arrive, count, kind = _clean_run(
                horizon - t, loss, pull, rate - outage_rate, _rows(self.race_rate, g), rng
            )
            arrive += t
            fail[pos] = arrive
            self.batch.disk_failures[g] += count
            landed[pos] = kind
        return landed


class _Outages:
    """Outage episodes counted into one batch.

    Serves both memoryless kernels and the clock-matrix spare pool.  Each
    method takes the **global** rows ``g`` of the lifetimes in the episode,
    updates their counters and downtime, and returns the instant each
    array is back; the clock-matrix caller renews its clocks afterwards.
    """

    __slots__ = ("batch", "horizon", "rng", "ddf_dist", "recovery_dist", "hep", "crash_rate")

    def __init__(self, params, batch: BatchLifetimes, rng: np.random.Generator) -> None:
        self.batch = batch
        self.horizon = batch.horizon_hours
        self.rng = rng
        self.ddf_dist = params.ddf_recovery_distribution()
        self.recovery_dist = params.human_error_recovery_distribution()
        self.hep = params.hep
        self.crash_rate = params.crash_rate

    def data_loss(
        self, g: np.ndarray, lost: np.ndarray, restore_from: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """A disk fails at ``lost``: data loss until the backup restore ends.

        The restore starts at ``restore_from``, by default at ``lost``.
        """
        batch = self.batch
        batch.disk_failures[g] += 1
        batch.dl_events[g] += 1
        start = lost if restore_from is None else restore_from
        end = start + _sample_rows(self.ddf_dist, g, self.rng)
        batch.downtime_hours[g] += _clip_downtime(lost, end, self.horizon)
        return end

    def recovery_race(self, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(duration, crashed)`` of undoing one wrong pull per row."""
        return _recovery_race(g, self.recovery_dist, self.hep, self.crash_rate, self.rng)

    def wrong_pull(self, g: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Wrong disk pulled from a degraded array at ``start``.

        Data is unavailable until the error is undone or, when the pulled
        disk crashes first, until the backup restore ends.
        """
        batch = self.batch
        batch.human_errors[g] += 1
        batch.du_events[g] += 1
        duration, crashed = self.recovery_race(g)
        end = start + duration
        cr = np.flatnonzero(crashed)
        if cr.size:
            batch.dl_events[g[cr]] += 1
            end[cr] += _sample_rows(self.ddf_dist, g[cr], self.rng)
        batch.downtime_hours[g] += _clip_downtime(start, end, self.horizon)
        return end


# ----------------------------------------------------------------------
# Conventional replacement policy
# ----------------------------------------------------------------------
def batch_conventional(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` conventional-policy lifetimes as one numpy batch.

    ``params`` is a scalar parameter point or a
    :class:`~repro.core.policies.stacked.StackedParams` grid (one row per
    lifetime; ``n_lifetimes`` must then equal the grid length).

    The input alone picks one of two clock disciplines:

    * unbiased runs whose every row fails exponentially
      (``failure_shape == 1``) carry one next-failure time per lifetime
      and draw each failure from the aggregate clock of the healthy disks
      (:func:`_memoryless_conventional`);
    * Weibull laws and failure-biased runs carry the ``(n_lifetimes,
      n_disks)`` clock matrix (:func:`_clock_matrix_conventional`).

    ``biasing`` (a factor > 0, scalar or per-lifetime array) switches the
    kernel to failure-biased importance sampling: failure rates are
    inflated by the factor and the returned batch carries per-lifetime
    ``log_weights`` (see :class:`_BiasedSampler`).
    """
    if biasing is None and _exponential_law(params):
        return _memoryless_conventional(params, horizon_hours, n_lifetimes, rng)
    return _clock_matrix_conventional(params, horizon_hours, n_lifetimes, rng, biasing)


def _memoryless_conventional(
    params, horizon_hours: float, n_lifetimes: int, rng: np.random.Generator
) -> BatchLifetimes:
    """Conventional lifetimes with exponential failures, one clock per lifetime.

    Every episode of the clock-matrix kernel ends with each disk either
    renewed or still running, so by memorylessness the next episode starts
    from ``n`` fresh disks: the first failure arrives at rate ``n*lambda``,
    and its repair races a failure among the ``n - 1`` survivors.  One
    :func:`_repair_race` draw and one uniform settle that window, so the
    per-lifetime counters follow the clock-matrix kernel's distribution
    without its clock matrix.  Each lifetime carries only its next
    failure, drawn from the end of the episode before it.  A wrong pull
    draws no slot: which disk was pulled no longer matters.  Stacked grids
    take ``n`` and ``lambda`` row by row, so mixed geometries need no
    masking.  Lifetimes whose first failure would come at or after the
    horizon are counted, not simulated (:func:`_first_failures`).  A
    lifetime that still expects :data:`_JUMP_MIN_CLEAN` clean failures
    jumps each run of clean windows in one draw (:class:`_CleanRuns`); the
    failure a jump lands on has its uniform moved into ``[0, p_dl)`` or
    ``[p_dl, p_he)``, so its window ends in the outage the jump drew.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    horizon_hours = float(horizon_hours)
    m = _check_lifetimes(params, n_lifetimes)
    n = _per_row_or(params, "n_disks_rows", params.n_disks)
    lam = params.disk_failure_rate
    first_rate = n * lam
    race_rate, p_dl, p_he = _repair_race(params.disk_repair_rate, (n - 1) * lam, params.hep)

    batch = BatchLifetimes.zeros(m, horizon_hours)
    outages = _Outages(params, batch, rng)
    runs = _CleanRuns.of(batch, rng, first_rate, race_rate, p_dl, p_he)
    rows, fail = _first_failures(params, batch, first_rate, rng)
    # Where lifetimes may jump, one more column marks the failures a jump
    # landed on with the outage their window ends in.
    marks = [] if runs is None else [np.zeros(rows.size, dtype=np.int8)]

    rounds = 0
    while True:
        rows, fail, *marks = _retire(batch, rounds, fail < horizon_hours, rows, fail, *marks)
        if rows.size == 0:
            break
        rounds += 1

        # ``end`` starts as the repair window's end and is overwritten
        # where an outage extends the episode.
        end = _exp_after(fail, _rows(race_rate, rows), rng)
        u = rng.random(rows.size)
        p_out = _rows(p_he, rows)
        if marks:
            # A landed failure's uniform moves into [0, p_dl) for a data
            # loss and into [p_dl, p_he) for a wrong pull.
            landed = np.flatnonzero(marks[0])
            if landed.size:
                lost = marks[0][landed] == _LOSS
                p_lost = _rows(p_dl, rows[landed])
                low = np.where(lost, 0.0, p_lost)
                high = np.where(lost, p_lost, _rows(p_out, landed))
                u[landed] = low + u[landed] * (high - low)

        # ``u < p_he`` ends the window in an outage; ``u < p_dl`` among
        # those is a double disk failure during the repair (data loss,
        # backup restore), the rest a wrong disk replacement after it.
        below = u < p_out
        hit = np.flatnonzero(below)
        if hit.size:
            g = rows[hit]
            dl = u[hit] < _rows(p_dl, g)
            if dl.any():
                end[hit[dl]] = outages.data_loss(g[dl], end[hit[dl]])
            he = ~dl
            if he.any():
                end[hit[he]] = outages.wrong_pull(g[he], end[hit[he]])

        # Spent columns are freed before the next draws, which set the
        # shard's peak memory.
        del u, p_out
        start = fail
        fail = _exp_after(end, _rows(first_rate, rows), rng)
        if marks:
            del end
            marks = [runs.jump(rows, below, start, fail)]

    return batch


def _clock_matrix_conventional(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Conventional lifetimes on the ``(n_lifetimes, n_disks)`` clock matrix.

    Serves Weibull laws and failure-biased runs of
    :func:`batch_conventional`, and accepts any input of it.  State lives
    in a physically compacted working set: ``clocks`` holds only live rows
    and ``rows`` maps each back to its global lifetime id (used for batch
    counters and row-aware sampling).  Matrix-sized scratch comes from the
    :class:`_Arena`.  Every branch leaves every clock at or after its
    episode's end, so a row's earliest clock is its next episode's start.
    ``biasing`` is as in :func:`batch_conventional`.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    horizon_hours = float(horizon_hours)
    m = _check_lifetimes(params, n_lifetimes)
    n = params.n_disks
    n_disks = _per_row_or(params, "n_disks_rows", n)
    failure_dist, log_weights = _biased_failure_dist(params, horizon_hours, m, biasing)
    repair_dist = params.repair_distribution()
    ddf_dist = params.ddf_recovery_distribution()
    recovery_dist = params.human_error_recovery_distribution()
    hep = params.hep
    has_hep = _has_positive(hep)
    crash_rate = params.crash_rate

    batch = BatchLifetimes.zeros(m, horizon_hours)
    batch.log_weights = log_weights
    clocks = _initial_clocks(params, failure_dist, m, n, rng)
    rows = np.arange(m)
    arena = _Arena(m, n)

    while rows.size:
        # Only the minimum decides who reaches the horizon; the slot and the
        # second failure are searched on the survivors.
        fail = _row_min(clocks)
        alive = fail < horizon_hours
        if not alive.all():
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                break
            clocks = arena.compact(clocks, keep)
            rows = rows[keep]
            fail = fail[keep]
        k = rows.size
        batch.disk_failures[rows] += 1

        repair_done = fail + _sample_rows(repair_dist, rows, rng)
        slot, second = _second_smallest(clocks)

        # Double disk failure during the repair: data loss, backup restore.
        dl = second < repair_done
        dl_pos = np.flatnonzero(dl)
        if dl_pos.size:
            g = rows[dl_pos]
            batch.disk_failures[g] += 1
            batch.dl_events[g] += 1
            outage_end = second[dl_pos] + _sample_rows(ddf_dist, g, rng)
            batch.downtime_hours[g] += _clip_downtime(second[dl_pos], outage_end, horizon_hours)
            _renew_failed_before(clocks, dl_pos, outage_end, failure_dist, rng, g)

        rest = ~dl
        if has_hep:
            he = rest & (rng.random(k) < _rows(hep, rows))
        else:
            he = np.zeros(k, dtype=bool)

        # Wrong disk replacement: data unavailable until the error is undone
        # (or, when the pulled disk crashes, until the backup restore ends).
        he_pos = np.flatnonzero(he)
        if he_pos.size:
            g = rows[he_pos]
            batch.human_errors[g] += 1
            batch.du_events[g] += 1
            wrong = _pick_other_slots(rng, _rows(n_disks, g), slot[he_pos])
            duration, crashed = _recovery_race(g, recovery_dist, hep, crash_rate, rng)
            outage_end = repair_done[he_pos] + duration
            cr = np.flatnonzero(crashed)
            if cr.size:
                batch.dl_events[g[cr]] += 1
                outage_end[cr] += _sample_rows(ddf_dist, g[cr], rng)
                _renew_slots(
                    clocks, he_pos[cr], wrong[cr], outage_end[cr], failure_dist, rng, g[cr]
                )
            batch.downtime_hours[g] += _clip_downtime(repair_done[he_pos], outage_end, horizon_hours)
            _renew_slots(clocks, he_pos, slot[he_pos], outage_end, failure_dist, rng, g)
            _renew_failed_before(clocks, he_pos, outage_end, failure_dist, rng, g)

        # Successful replacement and rebuild.
        ok = rest & ~he
        ok_pos = np.flatnonzero(ok)
        if ok_pos.size:
            _renew_slots(
                clocks, ok_pos, slot[ok_pos], repair_done[ok_pos],
                failure_dist, rng, rows[ok_pos],
            )

    return batch


def _check_lifetimes(params, n_lifetimes: int) -> int:
    """Validate the lifetime count against a (possibly stacked) grid."""
    m = int(n_lifetimes)
    if getattr(params, "n_disks_rows", None) is not None and m != len(params):
        raise ConfigurationError(
            f"stacked grid holds {len(params)} lifetimes but {m} were requested"
        )
    return m


def _per_row_or(params, attr: str, default):
    """Return a per-row parameter array, or ``default`` for scalar points."""
    value = getattr(params, attr, None)
    return default if value is None else value


# ----------------------------------------------------------------------
# Spare-pool state machine (fail-over with n_spares == 1)
# ----------------------------------------------------------------------
@dataclass
class _SparePoolState:
    """Mutable struct-of-arrays state shared by the spare-pool sub-steps.

    ``clocks``/``now``/``spares`` hold only live rows, and ``rows`` maps
    working-set positions to global lifetime ids.  Sub-steps index state
    arrays with the positions they were handed and translate through
    :meth:`gids` for batch counters, per-row parameters and row-aware
    sampling, so compaction never changes a draw.
    """

    params: object
    horizon: float
    rng: np.random.Generator
    n_spares: Union[int, np.ndarray]
    batch: BatchLifetimes
    clocks: np.ndarray
    now: np.ndarray
    spares: np.ndarray
    failure_dist: object
    rebuild_dist: object
    replace_dist: object
    outages: _Outages

    #: Global lifetime ids of the live rows.
    rows: np.ndarray

    #: Scratch arena the working set is compacted into.
    arena: _Arena

    #: Whether any row has a positive hep, computed once per invocation —
    #: the parameter arrays are immutable for the kernel's lifetime, so the
    #: per-round steps must not rescan a grid-sized array.
    has_hep: bool = False

    @property
    def hep(self) -> Union[float, np.ndarray]:
        return self.params.hep

    @property
    def n_disks(self) -> Union[int, np.ndarray]:
        return _per_row_or(self.params, "n_disks_rows", self.params.n_disks)

    def gids(self, idx: np.ndarray) -> np.ndarray:
        """Translate working-set positions to global lifetime ids."""
        return self.rows[idx]

    def restock(self, idx: np.ndarray) -> None:
        """Refill the pools of ``idx`` to their configured sizes."""
        self.spares[idx] = _rows(self.n_spares, self.gids(idx))

    def empty(self, idx: np.ndarray) -> None:
        """Mark the pools of ``idx`` as exhausted."""
        self.spares[idx] = 0


def batch_spare_pool(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    n_spares: int = 1,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` spare-pool lifetimes as one numpy batch.

    ``n_spares=1`` reproduces the paper's automatic fail-over policy; larger
    values implement the hot-spare-pool scenario.  On a stacked grid the
    per-row ``StackedParams.n_spares_rows`` (when present) overrides the
    scalar argument, so one invocation can mix pool sizes.

    The input alone picks one of two clock disciplines, as in
    :func:`batch_conventional`:

    * unbiased runs whose every row fails exponentially carry one
      next-failure time per lifetime and draw each failure from the
      aggregate clock of the disks still running
      (:func:`_memoryless_spare_pool`);
    * Weibull laws and failure-biased runs carry the ``(n_lifetimes,
      n_disks)`` clock matrix (:func:`_clock_matrix_spare_pool`).

    ``biasing`` is as in :func:`batch_conventional`.
    """
    if biasing is None and _exponential_law(params):
        return _memoryless_spare_pool(params, horizon_hours, n_lifetimes, rng, n_spares)
    return _clock_matrix_spare_pool(params, horizon_hours, n_lifetimes, rng, n_spares, biasing)


def _spare_pools(
    params, horizon_hours: float, n_lifetimes: int, n_spares: int
) -> Tuple[int, Union[int, np.ndarray]]:
    """Validate a spare-pool run; return ``(m, pool_sizes)``.

    ``pool_sizes`` is the scalar pool or the grid's per-row plane.  Both
    kernel bodies call it before drawing anything.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    m = _check_lifetimes(params, n_lifetimes)
    pool_sizes = _per_row_or(params, "n_spares_rows", None)
    if pool_sizes is None:
        pool_sizes = int(n_spares)
        if pool_sizes < 1:
            raise ConfigurationError(
                f"spare pool needs at least one spare, got {n_spares!r}"
            )
        return m, pool_sizes
    if np.any(pool_sizes < 1):
        raise ConfigurationError("every stacked pool needs at least one spare")
    return m, pool_sizes


def _full_pools(pool_sizes: Union[int, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Return a fresh array of the full pools of ``rows``."""
    if isinstance(pool_sizes, np.ndarray):
        return np.asarray(pool_sizes[rows], dtype=np.int64)
    return np.full(rows.size, pool_sizes, dtype=np.int64)


def _memoryless_spare_pool(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    n_spares: int = 1,
) -> BatchLifetimes:
    """Spare-pool lifetimes with exponential failures, one clock per lifetime.

    Each lifetime carries only its next failure time and its pool count.
    Every failure is drawn from the aggregate clock ``Exp(k*lambda)`` of
    the ``k`` disks still running, started at the last instant all of them
    are known to be fresh, so by memorylessness every branch of
    :func:`_clock_matrix_spare_pool` keeps its law without the clock
    matrix.  A rebuild onto a spare is one :func:`_repair_race` window,
    whose uniform, given no data loss, also decides the replacement
    visit's wrong pull.  The exposed service keeps a drawn second failure,
    because after a wrong pull it comes from clocks already running.
    Three places need more than a fresh ``Exp(n*lambda)``:

    * a wrong pull during the replacement visit takes the pulled disk out
      of the race: the first failure among the others is ``A ~
      Exp((n-1)*lambda)`` (the clock matrix's :func:`_min_excluding`),
      while the pulled disk's own clock ``W ~ Exp(lambda)`` keeps running;
    * the exposed service after that pull starts when the recovery ends,
      possibly after a clock fired: its second failure is ``min(W, A +
      Exp((n-2)*lambda))`` when ``A`` came during the pull and ``A`` when
      the pulled disk crashed, clamped to the service start as the clock
      matrix clamps to ``now``;
    * a clean recovery resumes at ``max(min(A, W), recovery_end)``: a
      pulled disk whose clock fired during the pull fails when it is back.

    Stacked grids take ``n``, ``lambda`` and the pool size row by row.
    As in :func:`_memoryless_conventional`, only the lifetimes that fail
    before the horizon are simulated (:func:`_first_failures`).
    """
    m, pool_sizes = _spare_pools(params, horizon_hours, n_lifetimes, n_spares)
    horizon = float(horizon_hours)
    n = _per_row_or(params, "n_disks_rows", params.n_disks)
    lam = params.disk_failure_rate
    all_rate, one_down_rate, two_down_rate = n * lam, (n - 1) * lam, (n - 2) * lam
    rebuild_rate, p_dl, p_he = _repair_race(params.disk_repair_rate, one_down_rate, params.hep)
    service_rate = params.disk_repair_rate + params.spare_replacement_rate
    replace_dist = params.spare_replacement_distribution()
    hep = params.hep
    has_hep = _has_positive(hep)

    batch = BatchLifetimes.zeros(m, horizon)
    outages = _Outages(params, batch, rng)
    rows, fail = _first_failures(params, batch, all_rate, rng)
    spares = _full_pools(pool_sizes, rows)

    rounds = 0
    while True:
        rows, fail, spares = _retire(batch, rounds, fail < horizon, rows, fail, spares)
        if rows.size == 0:
            break
        rounds += 1
        # Every branch sets each row's next failure in ``nxt``.  Rows whose
        # disks are all fresh at a known instant queue it in ``fresh`` for
        # one aggregate draw at the end of the round; rows entering the
        # exposed service queue ``(positions, start, second failure)``.
        nxt = np.empty(rows.size)
        fresh: List[Tuple[np.ndarray, np.ndarray]] = []
        exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        has_spare = spares > 0

        # On-line rebuild onto a hot spare, raced by a failure among the
        # other disks (:func:`_repair_race`): ``rebuilt`` ends the window,
        # at the second failure where that wins.
        pos = np.flatnonzero(has_spare)
        g = rows[pos]
        rebuilt = _exp_after(fail[pos], _rows(rebuild_rate, g), rng)
        u = rng.random(pos.size)

        # Double disk failure during the rebuild: data loss, backup restore;
        # the restore window is long enough to restock the pool.
        dl = u < _rows(p_dl, g)
        if dl.any():
            fresh.append((pos[dl], outages.data_loss(g[dl], rebuilt[dl])))
            spares[pos[dl]] = _rows(pool_sizes, g[dl])
            ok = np.flatnonzero(~dl)
            pos, g, rebuilt, u = pos[ok], g[ok], rebuilt[ok], u[ok]

        # Rebuild finished: the spare carries the data, and a technician
        # visit replaces the dead hardware.  A failure before the visit ends
        # preempts it: a spare is gone and the failure is handled next
        # round.  Otherwise the visit restocks the pool (the exposed service
        # below resets the pools of the rows it takes), and the next failure
        # is still ``after``: ``max(after, replaced)`` differs from it only
        # past the horizon.  The rebuild's ``u``, uniform above ``p_dl``
        # now, decides the visit's wrong pull.
        replaced = rebuilt + _sample_rows(replace_dist, g, rng)
        after = _exp_after(rebuilt, _rows(all_rate, g), rng)
        nxt[pos] = after
        visit = (after >= replaced) | (after >= horizon)
        spares[pos] = np.where(visit, _rows(pool_sizes, g), spares[pos] - 1)
        if has_hep:
            he = visit & (u < _rows(p_he, g))
        else:
            he = np.zeros(pos.size, dtype=bool)

        # Wrong pull during the visit: the array was fully redundant, so it
        # only degrades unless another disk fails (``a``) before the error
        # is undone.  ``w`` is the pulled disk's own clock.
        if he.any():
            pos, g, start = pos[he], g[he], replaced[he]
            batch.human_errors[g] += 1
            duration, crashed = outages.recovery_race(g)
            recovered = start + duration
            a = _exp_after(start, _rows(one_down_rate, g), rng)
            w = _exp_after(start, _rows(lam, g), rng)
            during = (a < recovered) & (a < horizon)

            # Failure during the pull, pulled disk crashed: data loss, with
            # the restore after the recovery.
            lost = during & crashed
            if lost.any():
                batch.du_events[g[lost]] += 1
                end = outages.data_loss(g[lost], a[lost], recovered[lost])
                fresh.append((pos[lost], end))

            # Failure during the pull, no crash: unavailable until the error
            # is undone, then the failed disk waits for the exposed service.
            unavailable = during & ~crashed
            if unavailable.any():
                gu = g[unavailable]
                batch.disk_failures[gu] += 1
                batch.du_events[gu] += 1
                batch.downtime_hours[gu] += _clip_downtime(
                    a[unavailable], recovered[unavailable], horizon
                )
                with np.errstate(divide="ignore"):  # RAID1 has no third disk
                    third = _exp_after(a[unavailable], _rows(two_down_rate, gu), rng)
                ex_start = recovered[unavailable]
                ex_second = np.maximum(np.minimum(w[unavailable], third), ex_start)
                exposed.append((pos[unavailable], ex_start, ex_second))

            # No failure, but the pulled disk crashed: it is a failed disk.
            degraded = ~during & crashed
            if degraded.any():
                ex_start = recovered[degraded]
                exposed.append((pos[degraded], ex_start, np.maximum(a[degraded], ex_start)))

            # Clean recovery.
            clean = ~during & ~crashed
            nxt[pos[clean]] = np.maximum(np.minimum(a[clean], w[clean]), recovered[clean])

        # No spare left: the failure waits for the exposed service.
        pos = np.flatnonzero(~has_spare)
        if pos.size:
            second = _exp_after(fail[pos], _rows(one_down_rate, rows[pos]), rng)
            exposed.append((pos, fail[pos], second))

        # Exposed service (``EXPns1``): one visit rebuilds and replaces at
        # the combined rate; a data loss or a wrong pull empties the pool,
        # success restocks it.
        if exposed:
            pos, start, second = (np.concatenate(part) for part in zip(*exposed))
            g = rows[pos]
            end = _exp_after(start, _rows(service_rate, g), rng)
            dl = (second < end) & (second < horizon)
            if dl.any():
                end[dl] = outages.data_loss(g[dl], second[dl])
            if has_hep:
                he = ~dl & (rng.random(pos.size) < _rows(hep, g))
                if he.any():
                    end[he] = outages.wrong_pull(g[he], end[he])
                dl |= he
            spares[pos] = np.where(dl, 0, _rows(pool_sizes, g))
            fresh.append((pos, end))

        if fresh:
            pos, start = (np.concatenate(part) for part in zip(*fresh))
            nxt[pos] = _exp_after(start, _rows(all_rate, rows[pos]), rng)
        fail = nxt

    return batch


def _clock_matrix_spare_pool(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    n_spares: int = 1,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Spare-pool lifetimes on the ``(n_lifetimes, n_disks)`` clock matrix.

    Serves Weibull laws and failure-biased runs of
    :func:`batch_spare_pool`, and accepts any input of it.  The working set
    is compacted and ``biasing`` enables failure-biased importance
    sampling, both exactly as in :func:`_clock_matrix_conventional`.
    """
    m, pool_sizes = _spare_pools(params, horizon_hours, n_lifetimes, n_spares)
    n = params.n_disks
    failure_dist, log_weights = _biased_failure_dist(
        params, float(horizon_hours), m, biasing
    )
    batch = BatchLifetimes.zeros(m, horizon_hours)
    state = _SparePoolState(
        params=params,
        horizon=float(horizon_hours),
        rng=rng,
        n_spares=pool_sizes,
        batch=batch,
        clocks=_initial_clocks(params, failure_dist, m, n, rng),
        now=np.zeros(m, dtype=float),
        spares=_full_pools(pool_sizes, np.arange(m)),
        failure_dist=failure_dist,
        rebuild_dist=params.repair_distribution(),
        replace_dist=params.spare_replacement_distribution(),
        outages=_Outages(params, batch, rng),
        rows=np.arange(m),
        arena=_Arena(m, n),
        has_hep=_has_positive(params.hep),
    )
    state.batch.log_weights = log_weights
    first_round = True
    while state.rows.size:
        fail = _row_min(state.clocks)
        if first_round:
            first_round = False
        else:
            np.maximum(fail, state.now, out=fail)
        alive = fail < state.horizon
        if not alive.all():
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                break
            state.clocks = state.arena.compact(state.clocks, keep)
            state.now = state.now[keep]
            state.spares = state.spares[keep]
            state.rows = state.rows[keep]
            fail = fail[keep]
        slot, second = _second_smallest(state.clocks)
        state.batch.disk_failures[state.rows] += 1

        # Lifetimes entering the exposed service this round, from any branch.
        exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        has_spare = state.spares > 0
        sp = np.flatnonzero(has_spare)
        if sp.size:
            _spare_rebuild_step(state, sp, slot[sp], fail[sp], second[sp], exposed)
        ns = np.flatnonzero(~has_spare)
        if ns.size:
            exposed.append((ns, slot[ns], fail[ns]))

        if exposed:
            idx = np.concatenate([part[0] for part in exposed])
            ex_slot = np.concatenate([part[1] for part in exposed])
            ex_start = np.concatenate([part[2] for part in exposed])
            _exposed_step(state, idx, ex_slot, ex_start)

    return state.batch


def _spare_rebuild_step(
    state: _SparePoolState,
    idx: np.ndarray,
    slot: np.ndarray,
    fail: np.ndarray,
    second: np.ndarray,
    exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """On-line rebuild onto a hot spare, then the hardware replacement visit.

    ``second`` is each row's second-smallest clock at the episode start.
    """
    rng = state.rng
    g = state.gids(idx)
    rebuild_done = fail + _sample_rows(state.rebuild_dist, g, rng)
    second = np.maximum(second, fail)

    # Double disk failure during the rebuild: data loss, backup restore; the
    # restore window is long enough for the technician to restock the pool.
    dl = second < rebuild_done
    dl_idx = idx[dl]
    if dl_idx.size:
        g_dl = g[dl]
        outage_end = state.outages.data_loss(g_dl, second[dl])
        _renew_failed_before(
            state.clocks, dl_idx, outage_end, state.failure_dist, rng, g_dl
        )
        state.restock(dl_idx)
        state.now[dl_idx] = outage_end

    # Rebuild finished: the spare carries the data; replace the dead hardware.
    ok = ~dl
    ok_idx = idx[ok]
    if ok_idx.size:
        _renew_slots(
            state.clocks, ok_idx, slot[ok], rebuild_done[ok],
            state.failure_dist, rng, g[ok],
        )
        state.spares[ok_idx] -= 1
        _replacement_visit_step(state, ok_idx, rebuild_done[ok], exposed)


def _replacement_visit_step(
    state: _SparePoolState,
    idx: np.ndarray,
    start: np.ndarray,
    exposed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Technician visit restocking the spare pool after an on-line rebuild."""
    rng = state.rng
    g = state.gids(idx)
    replace_done = start + _sample_rows(state.replace_dist, g, rng)
    next_fail = np.maximum(_row_min(state.clocks[idx]), start)

    # A further failure preempts the visit: the pool is not restocked and the
    # failure is handled from scratch next round (another spare when one is
    # left, the exposed service otherwise).
    preempt = (next_fail < replace_done) & (next_fail < state.horizon)
    p_idx = idx[preempt]
    if p_idx.size:
        state.now[p_idx] = next_fail[preempt]

    rest = ~preempt
    if state.has_hep:
        he = rest & (rng.random(idx.size) < _rows(state.hep, g))
    else:
        he = np.zeros(idx.size, dtype=bool)

    ok = rest & ~he
    ok_idx = idx[ok]
    if ok_idx.size:
        state.restock(ok_idx)
        state.now[ok_idx] = replace_done[ok]

    # Wrong pull during the visit: the array was fully redundant, so it only
    # degrades — unless a real failure or a crash of the pulled disk lands
    # while the error is outstanding.
    he_idx = idx[he]
    if he_idx.size == 0:
        return
    g_he = g[he]
    state.batch.human_errors[g_he] += 1
    wrong = _random_slots(rng, _rows(state.n_disks, g_he), he_idx.size)
    duration, crashed = state.outages.recovery_race(g_he)
    recovery_end = replace_done[he] + duration
    other, second = _min_excluding(state.clocks[he_idx], wrong)
    second = np.maximum(second, replace_done[he])
    fail_during = (second < recovery_end) & (second < state.horizon)

    # Failure during the wrong pull, pulled disk crashed: unavailability
    # escalates to data loss; the backup restore fixes everything.
    a = fail_during & crashed
    a_idx = he_idx[a]
    if a_idx.size:
        g_a = g_he[a]
        state.batch.du_events[g_a] += 1
        outage_end = state.outages.data_loss(g_a, second[a], recovery_end[a])
        _renew_failed_before(
            state.clocks, a_idx, outage_end, state.failure_dist, rng, g_a
        )
        state.restock(a_idx)
        state.now[a_idx] = outage_end

    # Failure during the wrong pull, no crash: data unavailable until the
    # error is undone, then the real failure resolves without a spare.
    b = fail_during & ~crashed
    b_idx = he_idx[b]
    if b_idx.size:
        g_b = g_he[b]
        state.batch.disk_failures[g_b] += 1
        state.batch.du_events[g_b] += 1
        state.batch.downtime_hours[g_b] += _clip_downtime(second[b], recovery_end[b], state.horizon)
        exposed.append((b_idx, other[b], recovery_end[b]))

    # No failure, but the pulled disk crashed: it is now a genuine failed
    # disk (array degraded-but-up, pool not restocked).
    cr = ~fail_during & crashed
    cr_idx = he_idx[cr]
    if cr_idx.size:
        exposed.append((cr_idx, wrong[cr], recovery_end[cr]))

    # Clean recovery: the visit still restocked the pool.
    ok2 = ~fail_during & ~crashed
    ok2_idx = he_idx[ok2]
    if ok2_idx.size:
        state.restock(ok2_idx)
        state.now[ok2_idx] = recovery_end[ok2]


def _exposed_step(
    state: _SparePoolState,
    idx: np.ndarray,
    slot: np.ndarray,
    start: np.ndarray,
) -> None:
    """Resolve a failed disk with no spare left (the ``EXPns1`` service).

    The technician rebuilds and replaces hardware in one visit (combined
    rate ``mu_DF + mu_ch``); success restocks the whole pool.
    """
    rng = state.rng
    g = state.gids(idx)
    combined_rate = state.params.disk_repair_rate + state.params.spare_replacement_rate
    if isinstance(combined_rate, np.ndarray):
        service_done = start + rng.standard_exponential(idx.size) / combined_rate[g]
    else:
        service_done = start + rng.exponential(1.0 / combined_rate, idx.size)
    _, second = _min_excluding(state.clocks[idx], slot)
    second = np.maximum(second, start)

    # Double failure with no spare: data loss.
    dl = (second < service_done) & (second < state.horizon)
    dl_idx = idx[dl]
    if dl_idx.size:
        g_dl = g[dl]
        outage_end = state.outages.data_loss(g_dl, second[dl])
        _renew_slots(
            state.clocks, dl_idx, slot[dl], outage_end,
            state.failure_dist, rng, g_dl,
        )
        _renew_failed_before(
            state.clocks, dl_idx, outage_end, state.failure_dist, rng, g_dl
        )
        state.empty(dl_idx)
        state.now[dl_idx] = outage_end

    rest = ~dl
    if state.has_hep:
        he = rest & (rng.random(idx.size) < _rows(state.hep, g))
    else:
        he = np.zeros(idx.size, dtype=bool)

    # Wrong pull while degraded: data unavailable (data loss if the pulled
    # disk crashes before the error is undone).
    he_idx = idx[he]
    if he_idx.size:
        g_he = g[he]
        outage_end = state.outages.wrong_pull(g_he, service_done[he])
        _renew_slots(
            state.clocks, he_idx, slot[he], outage_end,
            state.failure_dist, rng, g_he,
        )
        _renew_failed_before(
            state.clocks, he_idx, outage_end, state.failure_dist, rng, g_he
        )
        state.empty(he_idx)
        state.now[he_idx] = outage_end

    # Successful combined service: disk back, pool restocked in one visit.
    ok = rest & ~he
    ok_idx = idx[ok]
    if ok_idx.size:
        g_ok = g[ok]
        _renew_slots(
            state.clocks, ok_idx, slot[ok], service_done[ok],
            state.failure_dist, rng, g_ok,
        )
        state.restock(ok_idx)
        state.now[ok_idx] = service_done[ok]


# ----------------------------------------------------------------------
# Erasure-coded k-of-N checker/repair kernel
# ----------------------------------------------------------------------
def _erasure_scheme_planes(params, m: int, scheme):
    """Return per-row ``(n, k, repair_threshold, period)`` arrays.

    Stacked grids carry the scheme as optional per-row planes
    (``k_rows``/``repair_threshold_rows``/``check_period_rows``, built by
    ``stack_parameter_points(..., schemes=...)``); a grid without planes
    falls back to broadcasting a fully pinned scheme.  Scalar points
    resolve the scheme against their geometry.
    """
    n_rows = getattr(params, "n_disks_rows", None)
    if n_rows is None:
        if scheme is None:
            raise ConfigurationError(
                "the erasure kernel needs a redundancy scheme; bind one via "
                "erasure_policy(k, n, ...) or pass scheme= explicitly"
            )
        resolved = scheme.resolve(params) if isinstance(scheme, RedundancyScheme) else scheme
        if not resolved.is_periodic:
            raise ConfigurationError(
                "the erasure kernel simulates periodic check/repair cycles; "
                "the scheme must set check_period_hours"
            )
        return (
            np.full(m, int(resolved.n_shares), dtype=np.int64),
            np.full(m, int(resolved.k), dtype=np.int64),
            np.full(m, int(resolved.repair_threshold), dtype=np.int64),
            np.full(m, float(resolved.check_period_hours), dtype=float),
        )
    k_rows = getattr(params, "k_rows", None)
    if k_rows is not None:
        return (
            np.asarray(n_rows, dtype=np.int64),
            np.asarray(k_rows, dtype=np.int64),
            np.asarray(params.repair_threshold_rows, dtype=np.int64),
            np.asarray(params.check_period_rows, dtype=float),
        )
    pinned = (
        scheme is not None
        and getattr(scheme, "n_shares", None) is not None
        and getattr(scheme, "k", None) is not None
        and getattr(scheme, "repair_threshold", None) is not None
        and getattr(scheme, "check_period_hours", None) is not None
    )
    if not pinned:
        raise ConfigurationError(
            "stacked erasure grids need per-row scheme planes (build the "
            "grid with stack_parameter_points(..., schemes=...)) or a fully "
            "pinned scheme to broadcast"
        )
    if np.any(np.asarray(n_rows) != int(scheme.n_shares)):
        raise ConfigurationError(
            f"scheme pins n_shares={scheme.n_shares!r} but the stacked grid "
            "mixes other geometries; use per-row scheme planes instead"
        )
    return (
        np.asarray(n_rows, dtype=np.int64),
        np.full(m, int(scheme.k), dtype=np.int64),
        np.full(m, int(scheme.repair_threshold), dtype=np.int64),
        np.full(m, float(scheme.check_period_hours), dtype=float),
    )


def batch_erasure(
    params,
    horizon_hours: float,
    n_lifetimes: int,
    rng: np.random.Generator,
    scheme: Optional[object] = None,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run ``n_lifetimes`` erasure-coded k-of-N lifetimes as one numpy batch.

    The simulated semantics (tahoe-style, shared with the scalar simulator
    and the checker-cycle analytical face in :mod:`repro.markov.checker`):

    * ``N`` shares fail independently at rate ``lambda`` (exponential only —
      the kernel tracks the aggregate next-failure clock ``Exp(s*lambda)``
      by memorylessness, so ``failure_shape`` must be 1);
    * a checker runs every ``check_period`` hours.  Finding ``k <= s <
      repair_threshold`` live shares it repairs back to ``N`` (one
      ``du_events`` repair activation); with probability ``hep`` the repair
      is botched by operator error and leaves ``N - 1`` shares
      (``human_errors``).  Repairs are instantaneous;
    * dropping below ``k`` live shares is a data outage (``dl_events``):
      downtime accrues until the next check discovers it and restores from
      backup (same ``hep`` botch risk; a botched restore of a ``k == N``
      scheme stays down — a continuing outage, not a second ``dl_events``);
    * share failures are not simulated while the object is down.

    ``scheme`` is a :class:`~repro.core.policies.base.RedundancyScheme`
    (resolved against scalar points) or a ready ``ResolvedScheme``; stacked
    grids read the per-row scheme planes instead.  Failure biasing is
    not supported (the aggregate-clock discipline has no per-share draws to
    tilt); pass ``biasing=None``.

    ``crash_rate`` and the ``mu_*`` repair rates are not read by this
    kernel — repair duration is the check latency itself.
    """
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    if biasing is not None:
        raise ConfigurationError(
            "the erasure checker kernel does not support failure biasing; "
            "its aggregate share clocks have no per-draw likelihood ratio"
        )
    horizon = float(horizon_hours)
    m = _check_lifetimes(params, n_lifetimes)
    if not _exponential_law(params):
        raise ConfigurationError(
            "the erasure kernel requires exponential share failures "
            "(failure_shape == 1); Weibull share decay is not memoryless"
        )
    n_arr, k_arr, r_arr, period = _erasure_scheme_planes(params, m, scheme)
    lam = np.broadcast_to(
        np.asarray(params.disk_failure_rate, dtype=float), (m,)
    )
    hep = params.hep
    has_hep = _has_positive(hep)

    batch = BatchLifetimes.zeros(m, horizon)
    shares = n_arr.copy()
    # Aggregate next-failure clock: from s live shares the next loss arrives
    # at rate s*lambda; one draw per state change (memorylessness).
    pending = rng.standard_exponential(m) / (shares * lam)
    # Checks fire at T, 2T, ...; while s >= repair_threshold every check is
    # a no-op, so jump straight to the first check at or after the failure.
    next_check = period * np.ceil(pending / period)
    down_since = np.full(m, np.inf)
    active = np.arange(m)

    while active.size:
        pf = pending[active]
        nc = next_check[active]
        etime = np.minimum(pf, nc)
        done = etime >= horizon
        if done.any():
            d_idx = active[done]
            still_down = np.isfinite(down_since[d_idx])
            if still_down.any():
                g = d_idx[still_down]
                batch.downtime_hours[g] += horizon - down_since[g]
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            pf, nc, etime = pf[keep], nc[keep], etime[keep]

        pos = np.arange(active.size)
        is_fail = pf < nc

        # --- share failures (strictly before a coincident check) ---
        fail_pos = pos[is_fail]
        surv_pos = np.empty(0, dtype=np.int64)
        if fail_pos.size:
            f_idx = active[fail_pos]
            batch.disk_failures[f_idx] += 1
            shares[f_idx] -= 1
            broke = shares[f_idx] < k_arr[f_idx]
            br_idx = f_idx[broke]
            if br_idx.size:
                # Data outage until the next check discovers it; failures of
                # the surviving shares are not simulated while down.
                batch.dl_events[br_idx] += 1
                down_since[br_idx] = pending[br_idx]
                pending[br_idx] = np.inf
            surv_pos = fail_pos[~broke]

        # --- checker visits ---
        check_pos = pos[~is_fail]
        acted_up_pos = np.empty(0, dtype=np.int64)
        if check_pos.size:
            c_idx = active[check_pos]
            at = next_check[c_idx]
            is_down = ~np.isfinite(pending[c_idx])
            needs_repair = ~is_down & (shares[c_idx] < r_arr[c_idx])
            act = is_down | needs_repair
            act_pos = check_pos[act]
            if act_pos.size:
                a_idx = active[act_pos]
                a_at = at[act]
                if has_hep:
                    botched = rng.random(a_idx.size) < _rows(hep, a_idx)
                else:
                    botched = np.zeros(a_idx.size, dtype=bool)
                rep_idx = a_idx[needs_repair[act]]
                if rep_idx.size:
                    batch.du_events[rep_idx] += 1
                res = is_down[act]
                res_idx = a_idx[res]
                if res_idx.size:
                    batch.downtime_hours[res_idx] += a_at[res] - down_since[res_idx]
                    down_since[res_idx] = np.inf
                shares[a_idx] = np.where(botched, n_arr[a_idx] - 1, n_arr[a_idx])
                if botched.any():
                    batch.human_errors[a_idx[botched]] += 1
                # A botched restore of a k == N scheme stays down until the
                # next check — a continuing outage, no second dl_event.
                still_down = shares[a_idx] < k_arr[a_idx]
                if still_down.any():
                    down_since[a_idx[still_down]] = a_at[still_down]
                acted_up_pos = act_pos[~still_down]
            next_check[c_idx] = at + period[c_idx]

        # --- fresh aggregate clocks, in global row order ---
        redraw_pos = np.sort(np.concatenate([surv_pos, acted_up_pos]))
        if redraw_pos.size:
            g = active[redraw_pos]
            pending[g] = etime[redraw_pos] + rng.standard_exponential(g.size) / (
                shares[g] * lam[g]
            )

        # Check-skip: rows at or above the repair threshold see only no-op
        # checks until their next failure, so jump ahead (never backwards).
        up = np.isfinite(pending[active])
        skip_idx = active[up]
        skip_idx = skip_idx[shares[skip_idx] >= r_arr[skip_idx]]
        if skip_idx.size:
            next_check[skip_idx] = np.maximum(
                next_check[skip_idx],
                period[skip_idx] * np.ceil(pending[skip_idx] / period[skip_idx]),
            )

    return batch
