"""Generic parameter-sweep engine over the evaluation backends.

Every figure in the paper is a sweep: availability versus failure rate
(Fig. 4), versus hep (Figs. 5-7), across RAID configurations (Fig. 6) and
across policies (Fig. 7).  The engine here runs such sweeps against any
registered policy on either evaluation backend:

* **analytical** sweeps are columnar: each distinct axis value is
  validated once, the swept parameters become float64 symbol columns, and
  the policy's cached chain template (one per (policy, geometry, structure),
  see :mod:`repro.core.evaluation`) evaluates each transition rate once over
  those columns and solves the whole generator stack in one batched
  factorization.  No parameter object, builder, chain or solver is
  constructed per point, and the points themselves are built in bulk —
  see ``benchmarks/bench_sweep.py`` for the speedup over the per-point
  rebuild loop the test suite keeps as its reference.
* **monte_carlo** sweeps run on the **stacked-grid engine**, the one
  Monte Carlo grid path: per-study scalars become per-lifetime broadcast
  arrays and one kernel invocation per shard simulates the whole
  ``points x lifetimes`` grid (:func:`repro.core.montecarlo.batch.run_stacked`),
  with per-point results recovered by one segmented aggregation.  A policy
  whose kernel cannot take a stacked grid runs inside the same shards, one
  kernel call per point segment.  Adaptive (``target_half_width``) sweeps
  run stacked too: the CI-width allocator dispatches each next shard round
  to the points with the widest intervals (see
  :mod:`repro.core.montecarlo.parallel`), optionally on the
  importance-sampled kernels (``biasing``) for rare-event scenarios.

:func:`sweep_grid` runs a full **2-axis surface** (e.g. the Fig. 5
hep-versus-lambda sheet) in one call on either backend: analytically the
cross-product joins one batched factorization group per chain structure, on
Monte Carlo it becomes a single stacked grid.

Periodic-scheme policies (the erasure k-of-N family) have no ergodic steady
state; analytical sweeps route their points through the checker-cycle solver
in :mod:`repro.markov.checker` instead of the template engine, building the
decay chain and its cycle operator once per group of points that differ
only in ``hep`` and solving the group's cycle fixed points in one call.

The legacy helpers (:func:`sweep_hep`, :func:`sweep_failure_rate`, ...) keep
their signatures; any registered policy name or :class:`SimulationPolicy`
works anywhere a policy is expected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.availability.metrics import availability_to_nines
from repro.core.evaluation import (
    analytical_result,  # looked up here by the tests' rebuild reference and perfbench
    chain_template,
    evaluate,  # looked up here by perfbench's span wrappers
    evaluate_stacked,
)
from repro.core.montecarlo.config import (
    DEFAULT_HORIZON_HOURS,
    DEFAULT_ITERATIONS,
    PolicyRef,
)
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.markov import checker
from repro.markov.rates import PARAMETER_SYMBOLS, symbol_table

#: Sweepable parameter axes: public alias -> AvailabilityParameters field.
SWEEP_AXES: Dict[str, str] = {
    "hep": "hep",
    "failure_rate": "disk_failure_rate",
    "disk_failure_rate": "disk_failure_rate",
    "repair_rate": "disk_repair_rate",
    "disk_repair_rate": "disk_repair_rate",
    "ddf_recovery_rate": "ddf_recovery_rate",
    "human_error_rate": "human_error_rate",
    "spare_replacement_rate": "spare_replacement_rate",
    "crash_rate": "crash_rate",
}

#: Sweep backends: the evaluation backends of :mod:`repro.core.evaluation`.
SWEEP_BACKENDS = ("analytical", "monte_carlo", "auto")

@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a parameter sweep.

    Monte Carlo backed points additionally carry their confidence interval;
    analytical points leave ``ci_lower``/``ci_upper`` as ``None``.
    ``retried_shards``/``resumed_shards`` count fault-tolerance events of
    the sharded executor (see :mod:`repro.core.montecarlo.parallel`);
    ``interrupted`` marks a partial point from a gracefully interrupted
    sweep — its moments cover only the shards that completed.
    """

    x: float
    availability: float
    unavailability: float
    nines: float
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    retried_shards: int = 0
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def has_interval(self) -> bool:
        """Return whether this point carries a confidence interval."""
        return self.ci_lower is not None and self.ci_upper is not None

    def as_dict(self) -> Dict[str, float]:
        """Return the point as a plain mapping (CI keys only when present)."""
        payload = {
            "x": self.x,
            "availability": self.availability,
            "unavailability": self.unavailability,
            "nines": self.nines,
        }
        if self.has_interval:
            payload["ci_lower"] = self.ci_lower
            payload["ci_upper"] = self.ci_upper
        if self.retried_shards:
            payload["retried_shards"] = self.retried_shards
        if self.resumed_shards:
            payload["resumed_shards"] = self.resumed_shards
        if self.interrupted:
            payload["interrupted"] = True
        return payload


#: The fields after ``nines`` at their defaults, in declaration order.
_EXTRA_DEFAULTS = {field.name: field.default for field in fields(SweepPoint)[4:]}


def _new_points(rows: Iterable[tuple]) -> List[SweepPoint]:
    """Build sweep points in bulk from field rows.

    A row is ``(x, availability, unavailability, nines, extra)``, with
    ``extra`` mapping the later fields in declaration order.  Each point's
    instance ``__dict__`` is filled directly, in that order, instead of
    through the generated ``__init__`` and its nine ``object.__setattr__``
    calls; the points equal ``SweepPoint(...)`` in ``vars()``, ``==``,
    ``hash``, ``repr`` and pickle.
    """
    new = object.__new__
    points = []
    for x, a, u, n, extra in rows:
        point = new(SweepPoint)
        state = point.__dict__
        state["x"] = x
        state["availability"] = a
        state["unavailability"] = u
        state["nines"] = n
        state.update(extra)
        points.append(point)
    return points


def _axis_field(axis: str) -> str:
    try:
        return SWEEP_AXES[axis]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; known axes: {sorted(SWEEP_AXES)}"
        ) from None


def _with_axis(
    params: AvailabilityParameters, field: str, value: float
) -> AvailabilityParameters:
    return replace(params, **{field: float(value)})


def _axis_column(
    base: AvailabilityParameters, field: str, values: Sequence[float]
) -> np.ndarray:
    """Validate each distinct axis value once and return the axis as a column.

    :class:`AvailabilityParameters` has no cross-field checks, so a value
    that is valid on ``base`` is valid at every point of the sweep, and an
    invalid one raises the same :class:`ConfigurationError` a per-point
    build would.
    """
    column = [float(value) for value in values]
    for value in dict.fromkeys(column):
        _with_axis(base, field, value)
    return np.array(column)


def _params_at(
    base: AvailabilityParameters, swept: Dict[str, np.ndarray], row: int
) -> AvailabilityParameters:
    """Return the parameter point of one row of the swept columns."""
    params = base
    for field, column in swept.items():
        params = _with_axis(params, field, column[row])
    return params


def _points_from_availability(
    availability: np.ndarray, xs: Sequence[float]
) -> List[SweepPoint]:
    # Column-wise twin of availability_from_up_mass: the caller summed the
    # up-state mass left to right from 0, as the scalar path does; clip and
    # subtract the same way, and validate each point's nines conversion.
    clipped = np.minimum(np.maximum(availability, 0.0), 1.0)
    values = clipped.tolist()
    nines = map(availability_to_nines, values)
    return _new_points(
        zip(xs, values, (1.0 - clipped).tolist(), nines, repeat(_EXTRA_DEFAULTS))
    )


def _analytical_points(
    base: AvailabilityParameters,
    swept: Dict[str, np.ndarray],
    xs: Sequence[float],
    policy: SimulationPolicy,
    method: str,
) -> List[SweepPoint]:
    """Evaluate a sweep analytically from its parameter columns.

    ``swept`` maps each swept :class:`AvailabilityParameters` field to its
    ``(k,)`` float64 column; every other parameter keeps its ``base`` value.
    Points are grouped by chain structure — ``hep == 0`` and
    ``crash_rate == 0`` select reduced chains — and each group's template
    solves its rows in one :meth:`~repro.markov.template.ChainTemplate.solve_many`
    call on the symbol columns.  Periodic-scheme policies (the erasure
    family) have no ergodic steady state and go through
    :func:`_periodic_availability` instead.
    """
    if policy.has_periodic_checks:
        return _points_from_availability(
            _periodic_availability(base, swept, len(xs), policy, method), xs
        )
    columns = symbol_table(base)
    columns.update({PARAMETER_SYMBOLS[field]: c for field, c in swept.items()})
    structure = np.broadcast_to(
        2 * (np.asarray(columns["hep"]) > 0.0)
        + (np.asarray(columns["lam_crash"]) > 0.0),
        (len(xs),),
    )
    availability = np.empty(len(xs))
    # Groups in first-appearance order, so templates build in point order.
    for first in sorted(np.unique(structure, return_index=True)[1].tolist()):
        rows = np.flatnonzero(structure == structure[first])
        template = chain_template(policy, _params_at(base, swept, first))
        pi = template.solve_many(
            {
                symbol: c[rows] if isinstance(c, np.ndarray) else c
                for symbol, c in columns.items()
            },
            method=method,
        )
        availability[rows] = sum(pi[:, i] for i in template.up_indices)
    return _points_from_availability(availability, xs)


def _periodic_availability(
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
    non-hep values; each group builds its chain and operator once, builds
    one repair matrix per point, and solves the stack of its points' cycle
    fixed points in one batched call — member for member the arithmetic of
    :func:`repro.core.evaluation.analytical_result`.
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
        repairs = np.array([
            checker.check_repair_matrix(
                chain, scheme.n_shares, scheme.k, scheme.repair_threshold, heps[row]
            )
            for row in rows
        ])
        phis = checker.cycle_start_distribution(m @ repairs)
        fractions = np.array([phi @ occ for phi in phis]) / period
        availability[rows] = sum(fractions[:, chain.index_of(s)] for s in chain.up_states())
    return availability


def _check_mc_options_for_backend(
    backend: str, crn: bool, biasing: Optional[float] = None
) -> None:
    """Reject Monte Carlo-only options once a sweep resolved analytically.

    ``backend="auto"`` picks the analytical face whenever the policy has
    one; an explicit ``crn`` or ``biasing`` request must not be dropped
    silently on that path (a caller asking for coupled streams or
    importance sampling would get plain point estimates without noticing).
    """
    if backend == "monte_carlo":
        return
    if crn:
        raise ConfigurationError(
            "common random numbers apply to the monte_carlo backend, but "
            "this sweep resolved to the analytical backend; pass "
            "backend='monte_carlo'"
        )
    if biasing is not None:
        raise ConfigurationError(
            "failure biasing applies to the monte_carlo backend, but this "
            "sweep resolved to the analytical backend; pass "
            "backend='monte_carlo'"
        )


def _points_from_estimates(estimates, xs: Sequence[float]) -> List[SweepPoint]:
    return _new_points(
        (
            float(x), e.availability, e.unavailability, e.nines,
            {name: getattr(e, name) for name in _EXTRA_DEFAULTS},
        )
        for e, x in zip(estimates, xs)
    )


def sweep(
    base_params: AvailabilityParameters,
    axis: str,
    values: Sequence[float],
    policy: PolicyRef = "conventional",
    backend: str = "auto",
    *,
    method: str = "auto",
    mc_iterations: int = DEFAULT_ITERATIONS,
    mc_horizon_hours: float = DEFAULT_HORIZON_HOURS,
    seed: Optional[int] = 0,
    confidence: float = 0.99,
    workers: int = 1,
    shard_size: Optional[int] = None,
    target_half_width: Optional[float] = None,
    mc_max_iterations: Optional[int] = None,
    crn: bool = False,
    transport: str = "auto",
    biasing: Optional[float] = None,
    allocator: str = "uniform",
    pool_kind: str = "process",
    pool=None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 0,
    retry_backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
) -> List[SweepPoint]:
    """Sweep one parameter axis for one policy on one backend.

    Parameters
    ----------
    base_params:
        Parameter point every swept value is derived from.
    axis:
        One of :data:`SWEEP_AXES` (``"hep"``, ``"failure_rate"``, ...).
    values:
        Axis values, evaluated in order.
    policy:
        Registry name, legacy enum member or policy instance.
    backend:
        ``"analytical"``, ``"monte_carlo"`` or ``"auto"`` (analytical when
        the policy has a chain face).
    method:
        Steady-state solver for analytical sweeps (``"auto"`` = dense/sparse
        by state count).
    mc_iterations, mc_horizon_hours, seed, confidence, workers, shard_size,
    target_half_width, mc_max_iterations:
        Monte Carlo configuration for simulation-backed sweeps.  The points
        run as one stacked grid (:func:`repro.core.evaluation.evaluate_stacked`)
        whose shards are planned from the master seed alone, so the draws
        never depend on ``workers``.  Adaptive (``target_half_width``)
        sweeps run on the stacked engine's CI-width allocator.
    crn:
        Couple every point to identical base random streams (common random
        numbers) for variance-reduced contrasts between neighbouring
        points.
    transport:
        How a stacked sweep's parameter planes reach the shard workers:
        ``"auto"`` (per-shard scalar rebuild on process pools, zero-copy
        grid views for thread and in-process shards), ``"shm"``
        (shared-memory planes) or ``"pickle"`` (per-shard rebuild
        everywhere).  Results are byte-identical across transports.
    biasing:
        Failure-biasing factor of the importance-sampled kernels (``None``
        keeps the unbiased kernels); see
        :class:`~repro.core.montecarlo.config.MonteCarloConfig`.
    allocator:
        Adaptive-round budget allocator of stacked adaptive sweeps:
        ``"uniform"`` or ``"ci_width"``.
    pool_kind:
        Shard-executor pool of the sharded path (``"process"``, ``"thread"``
        or ``"serial"``); named ``pool_kind`` because ``pool`` below is the
        long-standing shared-executor argument.
    pool:
        Optional externally owned worker pool; ``None`` with ``workers > 1``
        starts one pool for the whole sweep (not one per point).
    shard_timeout, max_shard_retries, retry_backoff:
        Fault tolerance of the sharded executor — per-shard deadline and
        bounded retry with exponential backoff; retried shards recompute
        bit-identical summaries.  See
        :class:`~repro.core.montecarlo.config.MonteCarloConfig`.
    checkpoint, resume:
        Durable shard journal of Monte Carlo sweeps: ``checkpoint`` appends
        every completed shard summary to the given path, ``resume`` splices
        a previous journal back in (and keeps appending), skipping already
        completed shards; a resumed sweep is bit-identical to an
        uninterrupted one.
    """
    if len(values) == 0:
        raise ConfigurationError(f"sweep over {axis!r} requires at least one value")
    if backend not in SWEEP_BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
        )
    field = _axis_field(axis)
    resolved = resolve_policy(policy)
    if backend == "auto":
        backend = "analytical" if resolved.has_analytical_model else "monte_carlo"
    _check_mc_options_for_backend(backend, crn, biasing)
    column = _axis_column(base_params, field, values)
    xs = column.tolist()

    if backend == "analytical":
        return _analytical_points(base_params, {field: column}, xs, resolved, method)
    estimates = evaluate_stacked(
        [_with_axis(base_params, field, x) for x in xs],
        resolved,
        n_iterations=mc_iterations,
        horizon_hours=mc_horizon_hours,
        seed=seed,
        confidence=confidence,
        workers=workers,
        shard_size=shard_size,
        target_half_width=target_half_width,
        max_iterations=mc_max_iterations,
        crn=crn,
        transport=transport,
        biasing=biasing,
        allocator=allocator,
        pool_kind=pool_kind,
        pool=pool,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        retry_backoff=retry_backoff,
        checkpoint=checkpoint,
        resume=resume,
    )
    return _points_from_estimates(estimates, xs)


# ----------------------------------------------------------------------
# 2-axis grid sweeps (fig5-style surfaces)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGrid:
    """A 2-axis sweep surface: ``points[i][j]`` evaluates ``(values1[i],
    values2[j])``.

    Each :class:`SweepPoint` carries the *second* axis value as its ``x``
    (every row of the grid is a valid 1-axis sweep over ``axis2``).
    """

    axis1: str
    axis2: str
    values1: tuple
    values2: tuple
    points: List[List[SweepPoint]]

    @property
    def shape(self) -> tuple:
        """Return ``(len(values1), len(values2))``."""
        return (len(self.values1), len(self.values2))

    def row(self, index: int) -> List[SweepPoint]:
        """Return the ``axis2`` sweep at ``values1[index]``."""
        return self.points[index]

    def availability_matrix(self) -> List[List[float]]:
        """Return availabilities as a ``values1 x values2`` nested list."""
        return [[point.availability for point in row] for row in self.points]

    def nines_matrix(self) -> List[List[float]]:
        """Return nines as a ``values1 x values2`` nested list."""
        return [[point.nines for point in row] for row in self.points]

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable description of the surface."""
        return {
            "axis1": self.axis1,
            "axis2": self.axis2,
            "values1": list(self.values1),
            "values2": list(self.values2),
            "points": [[point.as_dict() for point in row] for row in self.points],
        }


def sweep_grid(
    base_params: AvailabilityParameters,
    axis1: str,
    values1: Sequence[float],
    axis2: str,
    values2: Sequence[float],
    policy: PolicyRef = "conventional",
    backend: str = "auto",
    *,
    method: str = "auto",
    mc_iterations: int = DEFAULT_ITERATIONS,
    mc_horizon_hours: float = DEFAULT_HORIZON_HOURS,
    seed: Optional[int] = 0,
    confidence: float = 0.99,
    workers: int = 1,
    shard_size: Optional[int] = None,
    target_half_width: Optional[float] = None,
    mc_max_iterations: Optional[int] = None,
    crn: bool = False,
    transport: str = "auto",
    biasing: Optional[float] = None,
    allocator: str = "uniform",
    pool_kind: str = "process",
    pool=None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 0,
    retry_backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
) -> SweepGrid:
    """Sweep two parameter axes at once (a fig5-style surface) in one call.

    The cross product ``values1 x values2`` is evaluated as **one** batch:
    analytically all points join the template engine's grouped batched
    factorizations, on Monte Carlo they form a single stacked grid (one
    kernel invocation per shard for the entire surface).  Options match
    :func:`sweep`.
    """
    field1, field2 = _axis_field(axis1), _axis_field(axis2)
    if field1 == field2:
        # Compare the underlying fields, not the axis names: aliases such as
        # failure_rate/disk_failure_rate would otherwise silently produce a
        # degenerate surface (axis2 overwriting axis1 row by row).
        raise ConfigurationError(
            f"grid axes must sweep different parameters, got {axis1!r} and "
            f"{axis2!r} (both sweep {field1!r})"
        )
    if len(values1) == 0 or len(values2) == 0:
        raise ConfigurationError("both grid axes require at least one value")
    if backend not in SWEEP_BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
        )
    resolved = resolve_policy(policy)
    if backend == "auto":
        backend = "analytical" if resolved.has_analytical_model else "monte_carlo"
    _check_mc_options_for_backend(backend, crn, biasing)
    column1 = _axis_column(base_params, field1, values1)
    column2 = _axis_column(base_params, field2, values2)
    n1, n2 = len(column1), len(column2)
    xs = np.tile(column2, n1).tolist()

    if backend == "analytical":
        swept = {field1: np.repeat(column1, n2), field2: np.tile(column2, n1)}
        flat = _analytical_points(base_params, swept, xs, resolved, method)
    else:
        estimates = evaluate_stacked(
            [
                _with_axis(_with_axis(base_params, field1, v1), field2, v2)
                for v1 in column1.tolist()
                for v2 in column2.tolist()
            ],
            resolved,
            n_iterations=mc_iterations,
            horizon_hours=mc_horizon_hours,
            seed=seed,
            confidence=confidence,
            workers=workers,
            shard_size=shard_size,
            target_half_width=target_half_width,
            max_iterations=mc_max_iterations,
            crn=crn,
            transport=transport,
            biasing=biasing,
            allocator=allocator,
            pool_kind=pool_kind,
            pool=pool,
            shard_timeout=shard_timeout,
            max_shard_retries=max_shard_retries,
            retry_backoff=retry_backoff,
            checkpoint=checkpoint,
            resume=resume,
        )
        flat = _points_from_estimates(estimates, xs)
    rows = [flat[i * n2 : (i + 1) * n2] for i in range(n1)]
    return SweepGrid(
        axis1=axis1,
        axis2=axis2,
        values1=tuple(column1.tolist()),
        values2=tuple(column2.tolist()),
        points=rows,
    )


# ----------------------------------------------------------------------
# Figure-shaped helpers (legacy signatures, registry-era internals)
# ----------------------------------------------------------------------
def sweep_failure_rate(
    base_params: AvailabilityParameters,
    failure_rates: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> List[SweepPoint]:
    """Evaluate a policy across a range of disk failure rates (Fig. 4 axis)."""
    if len(failure_rates) == 0:
        raise ConfigurationError("failure_rates must be non-empty")
    return sweep(
        base_params, "disk_failure_rate", failure_rates,
        policy=model, backend=backend, **options,
    )


def sweep_hep(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> List[SweepPoint]:
    """Evaluate a policy across a range of human error probabilities."""
    if len(hep_values) == 0:
        raise ConfigurationError("hep_values must be non-empty")
    return sweep(
        base_params, "hep", hep_values, policy=model, backend=backend, **options
    )


def sweep_hep_for_failure_rates(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    failure_rates: Sequence[float],
    model: PolicyRef = "conventional",
    backend: str = "analytical",
    **options,
) -> Dict[float, List[SweepPoint]]:
    """Return one hep sweep per failure rate (the shape of Fig. 5).

    The whole surface is evaluated as one :func:`sweep_grid` call — one
    batched factorization group per chain structure analytically, one
    stacked grid on Monte Carlo — and re-keyed by failure rate for the
    legacy mapping shape.
    """
    if len(failure_rates) == 0:
        raise ConfigurationError("failure_rates must be non-empty")
    if len(hep_values) == 0:
        raise ConfigurationError("hep_values must be non-empty")
    grid = sweep_grid(
        base_params,
        "disk_failure_rate",
        failure_rates,
        "hep",
        hep_values,
        policy=model,
        backend=backend,
        **options,
    )
    return {
        float(rate): grid.row(index) for index, rate in enumerate(failure_rates)
    }


def sweep_policies(
    base_params: AvailabilityParameters,
    hep_values: Sequence[float],
    models: Optional[Sequence[PolicyRef]] = None,
    backend: str = "analytical",
    **options,
) -> Dict[str, List[SweepPoint]]:
    """Return one hep sweep per policy (the shape of Fig. 7).

    ``models`` defaults to the paper's two replacement policies; series are
    keyed by registry name.
    """
    chosen = list(models) if models is not None else [
        "conventional",
        "automatic_failover",
    ]
    if not chosen:
        raise ConfigurationError("at least one policy is required")
    series: Dict[str, List[SweepPoint]] = {}
    for ref in chosen:
        policy = resolve_policy(ref)
        series[policy.name] = sweep_hep(
            base_params, hep_values, policy, backend=backend, **options
        )
    return series


def nines_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the nines column of a sweep."""
    return [point.nines for point in points]


def availability_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the availability column of a sweep."""
    return [point.availability for point in points]


def x_series(points: Sequence[SweepPoint]) -> List[float]:
    """Return the x column of a sweep."""
    return [point.x for point in points]
