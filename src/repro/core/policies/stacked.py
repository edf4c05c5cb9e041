"""Per-lifetime parameter grids for the stacked Monte Carlo kernels.

The batch kernels in :mod:`repro.core.policies.vectorized` were written
against :class:`~repro.core.parameters.AvailabilityParameters`, whose rates
are plain scalars: one kernel invocation simulates many lifetimes of **one**
parameter point.  A parameter *sweep* therefore used to pay one kernel
invocation — plus shard scheduling and aggregation — per point.

:class:`StackedParams` removes that limit: every per-study scalar (``hep``,
``lambda``, the repair/recovery rates, ``n_disks``, the spare-pool size)
becomes a **per-lifetime plane**, so a single kernel invocation can simulate
``points x lifetimes`` lifetimes covering an entire sweep grid at once.  A
plane is a real array only for a swept field; a field with the same value
at every point is a read-only zero-stride view of that one value, so a
two-axis grid holds two per-lifetime arrays, not nine.  The class quacks
exactly like ``AvailabilityParameters`` as far as the kernels are
concerned:

* the distribution factories return *row-aware* distributions whose
  ``sample_rows(rows, rng)`` draws each sample at the rate of the lifetime
  it belongs to, and
* ``hep`` / ``crash_rate`` / the service rates are arrays the kernels index
  with the global lifetime rows they are currently stepping.  Kernels only
  read planes; none may write into one.

Lifetimes of points with fewer disks than the widest point simply carry
``+inf`` failure clocks in the unused slots, so one rectangular clock matrix
serves a geometry-mixed grid.

The sharded executor in :mod:`repro.core.montecarlo.parallel` splits the
flattened ``point x lifetime`` axis into independent shards and has each
worker expand its own slice via :func:`stack_parameter_points` from the
covered points' scalars (only scalars cross the process boundary, never
grid-sized arrays); ``StackedParams.slice`` additionally cuts a contiguous
row range out of an existing grid for direct grid surgery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.parameters import AvailabilityParameters
from repro.exceptions import ConfigurationError

__all__ = [
    "OPTIONAL_PLANE_FIELD",
    "SCHEME_PLANE_FIELDS",
    "STACKED_PLANE_FIELDS",
    "RowExponential",
    "RowWeibull",
    "StackedParams",
    "stack_parameter_points",
    "stacked_from_planes",
]

#: The per-lifetime parameter planes of a grid, in canonical segment-layout
#: order: ``(field name, dtype)`` of every mandatory ``StackedParams`` array.
#: The shared-memory transport (:mod:`repro.core.montecarlo.transport`) lays
#: a sweep's planes out in exactly this order, so the spec doubles as the
#: wire format — change it and the attach protocol changes with it.
STACKED_PLANE_FIELDS = (
    ("disk_failure_rate", np.float64),
    ("disk_repair_rate", np.float64),
    ("ddf_recovery_rate", np.float64),
    ("human_error_rate", np.float64),
    ("spare_replacement_rate", np.float64),
    ("crash_rate", np.float64),
    ("hep", np.float64),
    ("failure_shape", np.float64),
    ("n_disks_rows", np.int64),
)

#: The optional per-row spare-pool plane, appended after the mandatory ones
#: when a grid carries per-row pool sizes.
OPTIONAL_PLANE_FIELD = ("n_spares_rows", np.int64)

#: The optional per-row redundancy-scheme planes of erasure-coded grids,
#: appended (in this order, all three together) after the spare plane when
#: present.  ``n_shares`` rides the mandatory ``n_disks_rows`` plane.
SCHEME_PLANE_FIELDS = (
    ("k_rows", np.int64),
    ("repair_threshold_rows", np.int64),
    ("check_period_rows", np.float64),
)


class RowExponential:
    """Exponential sampler with a per-lifetime rate array.

    ``sample_rows(rows, rng)`` draws one standard exponential per requested
    row and scales it by that row's mean, so every sample is distributed at
    the rate of the lifetime it belongs to while all rows share one
    underlying stream.
    """

    def __init__(self, rates: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ConfigurationError("row rates must be a non-empty 1-d array")
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0.0):
            raise ConfigurationError("row rates must be positive and finite")
        self.rates = rates

    def sample_rows(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one sample per entry of ``rows`` at that row's rate."""
        if rows.size == 0:
            return np.empty(0, dtype=float)
        draws = rng.standard_exponential(rows.size)
        draws /= self.rates[rows]
        return draws

    def sample_matrix(self, n_cols: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an ``(n_rows, n_cols)`` matrix, each row at its own rate.

        Equivalent to ``sample_rows`` over a row-major repeat of every row
        ``n_cols`` times, but the rate division broadcasts (in place, over
        the draw buffer) instead of gathering one rate per sample — the
        fast path for the initial clock matrix of a large stacked grid.
        """
        draws = rng.standard_exponential((self.rates.size, int(n_cols)))
        draws /= self.rates[:, None]
        return draws

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowExponential(n={self.rates.size})"


class RowWeibull:
    """Weibull sampler with per-lifetime rate and shape arrays.

    Follows the paper's convention (``Weibull.from_rate_and_shape``): the
    mean time to event of row ``i`` equals ``1 / rates[i]`` and its shape is
    ``shapes[i]``; rows with shape 1 degenerate to the exponential.
    """

    def __init__(self, rates: np.ndarray, shapes: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=float)
        shapes = np.asarray(shapes, dtype=float)
        if rates.shape != shapes.shape or rates.ndim != 1 or rates.size == 0:
            raise ConfigurationError("row rates/shapes must be matching 1-d arrays")
        if np.any(rates <= 0.0) or np.any(shapes <= 0.0):
            raise ConfigurationError("row rates and shapes must be positive")
        self.rates = rates
        self.shapes = shapes
        # mean = scale * Gamma(1 + 1/shape)  =>  scale = mean / Gamma(...),
        # with math.gamma as in Weibull.from_mean_and_shape, so a one-row
        # grid has its point's scale to the bit.  Shapes come in runs of one
        # value per point: evaluate Gamma once per run.
        starts = np.flatnonzero(np.concatenate(([True], shapes[1:] != shapes[:-1])))
        run_lengths = np.diff(np.append(starts, shapes.size))
        gammas = [math.gamma(1.0 + 1.0 / shape) for shape in shapes[starts].tolist()]
        self.scales = (1.0 / rates) / np.repeat(gammas, run_lengths)

    def sample_rows(self, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one sample per entry of ``rows`` at that row's parameters."""
        if rows.size == 0:
            return np.empty(0, dtype=float)
        draws = rng.weibull(self.shapes[rows])
        draws *= self.scales[rows]
        return draws

    def sample_matrix(self, n_cols: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an ``(n_rows, n_cols)`` matrix, each row at its own parameters."""
        draws = rng.weibull(self.shapes[:, None], (self.shapes.size, int(n_cols)))
        draws *= self.scales[:, None]
        return draws

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowWeibull(n={self.rates.size})"


@dataclass(frozen=True)
class StackedParams:
    """Struct-of-arrays parameter grid, one entry per simulated lifetime.

    Attributes mirror :class:`~repro.core.parameters.AvailabilityParameters`
    field for field, each widened to a length-``n_lifetimes`` plane; a
    plane may be a read-only zero-stride view (``np.broadcast_to``) when
    every row holds the same value, and :meth:`slice` keeps it one.
    ``n_spares`` is optional: when present it overrides the pool size a
    spare-pool kernel was constructed with, row by row.  The three scheme
    planes (``k_rows``/``repair_threshold_rows``/``check_period_rows``) are
    likewise optional and always travel together: erasure-coded grids carry
    one resolved :class:`~repro.core.policies.base.RedundancyScheme` per
    row, letting one kernel invocation mix ``k``-of-``N`` geometries and
    check periods (``N`` is ``n_disks_rows``).

    ``segments`` is not a plane: ``segments[i]`` consecutive rows belong to
    one parameter point, in row order.  The memoryless kernels draw each
    segment's count of lifetimes that fail before the horizon as one
    binomial, which is only that point's law if the segment is the point's
    own: rows of two points, even two identical ones, must never share a
    segment.  :func:`stack_parameter_points` sets it and :meth:`slice`
    cuts it; a grid without it is thinned row by row.
    """

    disk_failure_rate: np.ndarray
    disk_repair_rate: np.ndarray
    ddf_recovery_rate: np.ndarray
    human_error_rate: np.ndarray
    spare_replacement_rate: np.ndarray
    crash_rate: np.ndarray
    hep: np.ndarray
    failure_shape: np.ndarray
    n_disks_rows: np.ndarray
    n_spares_rows: Optional[np.ndarray] = None
    k_rows: Optional[np.ndarray] = None
    repair_threshold_rows: Optional[np.ndarray] = None
    check_period_rows: Optional[np.ndarray] = None
    segments: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.disk_failure_rate.shape
        for name in (
            "disk_repair_rate",
            "ddf_recovery_rate",
            "human_error_rate",
            "spare_replacement_rate",
            "crash_rate",
            "hep",
            "failure_shape",
            "n_disks_rows",
        ):
            if getattr(self, name).shape != n:
                raise ConfigurationError(
                    f"stacked field {name!r} does not match the grid length"
                )
        if self.n_spares_rows is not None and self.n_spares_rows.shape != n:
            raise ConfigurationError("stacked n_spares does not match the grid length")
        if np.any(self.n_disks_rows < 2):
            raise ConfigurationError("stacked grids require at least two disks per row")
        if np.any(self.hep < 0.0) or np.any(self.hep > 1.0):
            raise ConfigurationError("stacked hep values must lie in [0, 1]")
        if np.any(self.crash_rate < 0.0):
            raise ConfigurationError("stacked crash rates must be non-negative")
        scheme_planes = (self.k_rows, self.repair_threshold_rows, self.check_period_rows)
        present = [plane is not None for plane in scheme_planes]
        if any(present):
            if not all(present):
                raise ConfigurationError(
                    "stacked scheme planes travel together: k_rows, "
                    "repair_threshold_rows and check_period_rows must all be "
                    "set (or none)"
                )
            for name, _ in SCHEME_PLANE_FIELDS:
                if getattr(self, name).shape != n:
                    raise ConfigurationError(
                        f"stacked field {name!r} does not match the grid length"
                    )
            if np.any(self.k_rows < 1) or np.any(self.k_rows > self.repair_threshold_rows):
                raise ConfigurationError(
                    "stacked schemes need 1 <= k <= repair_threshold per row"
                )
            if np.any(self.repair_threshold_rows > self.n_disks_rows):
                raise ConfigurationError(
                    "stacked schemes need repair_threshold <= n_disks per row"
                )
            if np.any(self.check_period_rows <= 0.0):
                raise ConfigurationError("stacked check periods must be positive")
        if self.segments is not None and (
            self.segments.ndim != 1
            or np.any(self.segments < 1)
            or int(self.segments.sum()) != n[0]
        ):
            raise ConfigurationError(
                "stacked segments must be positive row counts that tile the grid"
            )

    @property
    def has_schemes(self) -> bool:
        """Return whether the grid carries per-row redundancy schemes."""
        return self.k_rows is not None

    # ------------------------------------------------------------------
    # AvailabilityParameters-compatible surface (as used by the kernels)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.disk_failure_rate.size)

    @property
    def n_disks(self) -> int:
        """Return the clock-matrix width: the widest geometry in the grid."""
        return int(self.n_disks_rows.max())

    def failure_distribution(self):
        """Return the row-aware per-disk time-to-failure distribution."""
        if np.all(self.failure_shape == 1.0):
            return RowExponential(self.disk_failure_rate)
        return RowWeibull(self.disk_failure_rate, self.failure_shape)

    def repair_distribution(self) -> RowExponential:
        return RowExponential(self.disk_repair_rate)

    def ddf_recovery_distribution(self) -> RowExponential:
        return RowExponential(self.ddf_recovery_rate)

    def human_error_recovery_distribution(self) -> RowExponential:
        return RowExponential(self.human_error_rate)

    def spare_replacement_distribution(self) -> RowExponential:
        return RowExponential(self.spare_replacement_rate)

    def without_human_error(self) -> "StackedParams":
        """Return a copy with every row's ``hep`` forced to zero.

        The zero plane is a read-only broadcast view, like every constant
        plane of :func:`stack_parameter_points`.
        """
        return replace(
            self, hep=np.broadcast_to(np.zeros(1, dtype=self.hep.dtype), self.hep.shape)
        )

    # ------------------------------------------------------------------
    # Grid surgery
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "StackedParams":
        """Return the contiguous row range ``[start, stop)`` as its own grid."""
        if not 0 <= start < stop <= len(self):
            raise ConfigurationError(
                f"invalid stacked slice [{start}, {stop}) of {len(self)} rows"
            )
        def _cut(plane):
            return None if plane is None else plane[start:stop]

        segments = None
        if self.segments is not None:
            ends = np.cumsum(self.segments)
            sizes = np.minimum(ends, stop) - np.maximum(ends - self.segments, start)
            segments = sizes[sizes > 0]
        return StackedParams(
            disk_failure_rate=self.disk_failure_rate[start:stop],
            disk_repair_rate=self.disk_repair_rate[start:stop],
            ddf_recovery_rate=self.ddf_recovery_rate[start:stop],
            human_error_rate=self.human_error_rate[start:stop],
            spare_replacement_rate=self.spare_replacement_rate[start:stop],
            crash_rate=self.crash_rate[start:stop],
            hep=self.hep[start:stop],
            failure_shape=self.failure_shape[start:stop],
            n_disks_rows=self.n_disks_rows[start:stop],
            n_spares_rows=_cut(self.n_spares_rows),
            k_rows=_cut(self.k_rows),
            repair_threshold_rows=_cut(self.repair_threshold_rows),
            check_period_rows=_cut(self.check_period_rows),
            segments=segments,
        )


def stacked_from_planes(planes: dict, segments: Optional[Sequence[int]] = None) -> StackedParams:
    """Build a grid directly from per-field arrays (views included).

    ``planes`` maps every :data:`STACKED_PLANE_FIELDS` name — plus
    optionally ``n_spares_rows`` — to a length-matched 1-d array.  The
    arrays are adopted as-is, so zero-copy views (row ranges of a
    shared-memory segment, slices of a materialised sweep grid) flow
    straight into the kernels without a repack.  ``segments`` are the
    rows' point segments (see :class:`StackedParams`).
    """
    missing = [name for name, _ in STACKED_PLANE_FIELDS if name not in planes]
    if missing:
        raise ConfigurationError(f"stacked planes missing fields: {missing}")
    return StackedParams(
        **{name: planes[name] for name, _ in STACKED_PLANE_FIELDS},
        n_spares_rows=planes.get(OPTIONAL_PLANE_FIELD[0]),
        **{name: planes.get(name) for name, _ in SCHEME_PLANE_FIELDS},
        segments=None if segments is None else np.asarray(segments, dtype=np.int64),
    )


def stack_parameter_points(
    points: Sequence[AvailabilityParameters],
    counts: Sequence[int],
    n_spares: Optional[Sequence[int]] = None,
    schemes: Optional[Sequence[object]] = None,
) -> StackedParams:
    """Expand per-point scalar parameters into a per-lifetime grid.

    ``points[i]`` contributes ``counts[i]`` consecutive lifetimes; the
    flattened row order is therefore point-major, which is what the
    segmented per-point aggregation in
    :mod:`repro.core.montecarlo.batch` relies on.  ``counts`` become the
    grid's ``segments``.

    Only swept fields are repeated into per-lifetime arrays.  A field whose
    per-point values are all exactly equal becomes a read-only zero-stride
    view of its one value (``np.broadcast_to``), keeping the field's dtype:
    the kernels read it exactly as the repeated array, and it costs no
    memory.

    ``schemes`` attaches one periodic redundancy scheme per point
    (:class:`~repro.core.policies.base.RedundancyScheme` instances are
    resolved against their point's geometry), attaching the per-row
    scheme planes the erasure kernel reads — this is how one grid mixes
    ``k``-of-``N`` layouts and check periods.
    """
    if len(points) == 0:
        raise ConfigurationError("stacking requires at least one parameter point")
    if len(counts) != len(points):
        raise ConfigurationError("one lifetime count is required per parameter point")
    reps = np.asarray([int(c) for c in counts], dtype=np.int64)
    if np.any(reps < 1):
        raise ConfigurationError("every stacked point needs at least one lifetime")
    total_rows = int(reps.sum())

    def _field(values, dtype=float) -> np.ndarray:
        column = np.asarray(values, dtype=dtype)
        if np.all(column == column[0]):
            return np.broadcast_to(column[:1], (total_rows,))
        return np.repeat(column, reps)

    spares = None
    if n_spares is not None:
        if len(n_spares) != len(points):
            raise ConfigurationError("one spare count is required per parameter point")
        spares = _field([int(k) for k in n_spares], dtype=np.int64)
    scheme_planes = {}
    if schemes is not None:
        if len(schemes) != len(points):
            raise ConfigurationError("one scheme is required per parameter point")
        resolved = [
            scheme.resolve(point) if hasattr(scheme, "resolve") else scheme
            for scheme, point in zip(schemes, points)
        ]
        not_periodic = [i for i, r in enumerate(resolved) if not r.is_periodic]
        if not_periodic:
            raise ConfigurationError(
                f"stacked scheme planes need periodic schemes; points "
                f"{not_periodic} have no check period"
            )
        scheme_planes = {
            "k_rows": _field([r.k for r in resolved], dtype=np.int64),
            "repair_threshold_rows": _field(
                [r.repair_threshold for r in resolved], dtype=np.int64
            ),
            "check_period_rows": _field(
                [r.check_period_hours for r in resolved], dtype=np.float64
            ),
        }
    return StackedParams(
        **scheme_planes,
        disk_failure_rate=_field([p.disk_failure_rate for p in points]),
        disk_repair_rate=_field([p.disk_repair_rate for p in points]),
        ddf_recovery_rate=_field([p.ddf_recovery_rate for p in points]),
        human_error_rate=_field([p.human_error_rate for p in points]),
        spare_replacement_rate=_field([p.spare_replacement_rate for p in points]),
        crash_rate=_field([p.crash_rate for p in points]),
        hep=_field([p.hep for p in points]),
        failure_shape=_field([p.failure_shape for p in points]),
        n_disks_rows=_field([p.n_disks for p in points], dtype=np.int64),
        n_spares_rows=spares,
        segments=reps,
    )
