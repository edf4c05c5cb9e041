"""Policy protocol shared by the simulation kernels and the analytical models.

A *simulation policy* packages the semantics of one disk-replacement
strategy (conventional, automatic fail-over, hot-spare pool, ...) behind up
to three faces:

``scalar``
    Simulate **one** array lifetime with a plain Python event loop.  This is
    the traced/debug path: it can record an
    :class:`~repro.core.montecarlo.results.EpisodeTrace` and its episodes can
    be replayed on the discrete-event
    :class:`~repro.simulation.engine.SimulationEngine`.
``batch``
    Simulate **many** independent lifetimes at once as struct-of-arrays
    numpy batches — all disk-failure clocks, repair durations and
    human-error Bernoulli draws are sampled per batch instead of one Python
    loop iteration at a time.  This is the fast path used by the large
    paper sweeps; it is optional, and policies without a vectorised kernel
    transparently fall back to a scalar loop.
``chain``
    Optional **analytical face**: ``chain(params) -> MarkovChain`` builds the
    policy's CTMC availability model (the paper's Fig. 2/3 chains).  A policy
    with both a simulation face and an analytical face can be evaluated by
    either backend through :func:`repro.core.evaluation.evaluate`, which is
    how the Fig. 4 cross-validation compares the *same* scenario under both.

Policies are looked up by name through :mod:`repro.core.policies.registry`,
so new strategies plug into the Monte Carlo runner, the analytical
evaluation layer, the experiments and the CLI without touching any of them.

This module deliberately imports nothing from :mod:`repro.core.montecarlo`
at module scope; the two packages reference each other and the policy layer
must stay importable from either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.montecarlo.results import EpisodeTrace, IterationResult
    from repro.core.parameters import AvailabilityParameters
    from repro.markov.chain import MarkovChain
    from repro.simulation.rng import RandomStreams

#: Signature of a scalar (one-lifetime) simulator.
ScalarSimulator = Callable[..., "IterationResult"]

#: Signature of a vectorised batch kernel: ``(params, horizon_hours,
#: n_lifetimes, rng) -> BatchLifetimes``.
BatchKernel = Callable[..., "BatchLifetimes"]

#: Signature of an analytical face: ``(params) -> MarkovChain``.
ChainFactory = Callable[..., "MarkovChain"]


@dataclass(frozen=True)
class RedundancyScheme:
    """How a policy derives availability from redundant shares.

    Every scenario in the registry is an instance of one structure: the
    object stores ``N`` shares, any ``k`` of which suffice to serve data,
    and a repair process restores lost shares — either continuously (a
    technician reacts to each failure, the paper's RAID policies) or on a
    periodic check (a scrubber inspects share counts every
    ``check_period_hours`` and triggers repair when fewer than
    ``repair_threshold`` shares remain, the tahoe-style erasure family).

    All fields are optional: ``None`` means "derive from the parameter
    point's geometry at evaluation time" (see :meth:`resolve`), which keeps
    one scheme instance valid across a whole mixed-geometry sweep grid.

    Attributes
    ----------
    n_shares:
        Total shares ``N``.  ``None`` derives ``geometry.n_disks``; a
        pinned value must match the geometry (the kernels size their clock
        matrices from the geometry, so a mismatch is a configuration
        error, not a silent override).
    k:
        Shares needed to serve data.  ``None`` derives
        ``N - geometry.fault_tolerance``.
    repair_threshold:
        Check-time repair trigger ``R``: a check finding fewer than ``R``
        (but at least ``k``) live shares repairs back to ``N``.  ``None``
        derives ``N`` (always repair missing shares).
    check_period_hours:
        Hours between checks.  ``None`` means continuous repair — the
        scheme is descriptive metadata and the policy's kernels keep their
        own event semantics (this is what the legacy RAID policies declare,
        which is why re-expressing them over schemes is bit-identical by
        construction).
    """

    n_shares: Optional[int] = None
    k: Optional[int] = None
    repair_threshold: Optional[int] = None
    check_period_hours: Optional[float] = None

    @property
    def is_periodic(self) -> bool:
        """Return whether repair happens on a check period (vs continuously)."""
        return self.check_period_hours is not None

    def resolve(self, params: "AvailabilityParameters") -> "ResolvedScheme":
        """Bind the scheme to one parameter point's geometry.

        Fills every ``None`` field from the geometry (``N = n_disks``,
        ``k = N - fault_tolerance``, ``R = N``) and validates the result:
        ``1 <= k <= R <= N`` and a positive check period.
        """
        from repro.exceptions import ConfigurationError

        geometry_n = int(params.geometry.n_disks)
        if self.n_shares is not None and int(self.n_shares) != geometry_n:
            raise ConfigurationError(
                f"scheme pins n_shares={self.n_shares!r} but the geometry "
                f"{params.geometry.label!r} has {geometry_n} disks; build the "
                "point with a matching geometry (RaidGeometry.erasure(k, n))"
            )
        n = geometry_n
        k = int(self.k) if self.k is not None else n - int(params.geometry.fault_tolerance)
        threshold = int(self.repair_threshold) if self.repair_threshold is not None else n
        period = self.check_period_hours
        if not 1 <= k <= threshold <= n:
            raise ConfigurationError(
                f"scheme needs 1 <= k <= repair_threshold <= N, got "
                f"k={k!r}, repair_threshold={threshold!r}, N={n!r}"
            )
        if period is not None and not float(period) > 0.0:
            raise ConfigurationError(
                f"check period must be positive, got {period!r}"
            )
        return ResolvedScheme(
            n_shares=n,
            k=k,
            repair_threshold=threshold,
            check_period_hours=None if period is None else float(period),
        )


@dataclass(frozen=True)
class ResolvedScheme:
    """A :class:`RedundancyScheme` bound to a concrete geometry.

    Every field is filled in; produced by :meth:`RedundancyScheme.resolve`
    and consumed by the erasure kernels and the checker-cycle analytical
    machinery.
    """

    n_shares: int
    k: int
    repair_threshold: int
    check_period_hours: Optional[float]

    @property
    def is_periodic(self) -> bool:
        return self.check_period_hours is not None


@dataclass
class BatchLifetimes:
    """Struct-of-arrays outcome of a batch of simulated lifetimes.

    Each attribute is a length-``n`` array holding one value per lifetime;
    the layout mirrors the fields of
    :class:`~repro.core.montecarlo.results.IterationResult`.

    ``log_weights`` is populated only by importance-sampled (``biasing=``)
    kernel runs: per-lifetime log-likelihood-ratio ``log dP/dQ`` of the
    nominal measure against the biased sampling measure.  ``None`` means the
    batch was drawn from the nominal measure (all weights exactly one).
    """

    horizon_hours: float
    downtime_hours: np.ndarray
    du_events: np.ndarray
    dl_events: np.ndarray
    disk_failures: np.ndarray
    human_errors: np.ndarray
    log_weights: Optional[np.ndarray] = None

    @classmethod
    def zeros(cls, n: int, horizon_hours: float) -> "BatchLifetimes":
        """Return a zero-initialised batch of ``n`` lifetimes."""
        return cls(
            horizon_hours=float(horizon_hours),
            downtime_hours=np.zeros(n, dtype=float),
            du_events=np.zeros(n, dtype=np.int64),
            dl_events=np.zeros(n, dtype=np.int64),
            disk_failures=np.zeros(n, dtype=np.int64),
            human_errors=np.zeros(n, dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.downtime_hours.size)

    def availabilities(self) -> np.ndarray:
        """Return the per-lifetime availability (downtime clipped to horizon)."""
        downtime = np.minimum(self.downtime_hours, self.horizon_hours)
        return 1.0 - downtime / self.horizon_hours

    def weights(self) -> Optional[np.ndarray]:
        """Return per-lifetime importance weights, ``None`` on unbiased runs."""
        if self.log_weights is None:
            return None
        return np.exp(self.log_weights)

    def weighted_availabilities(self, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Return the per-lifetime *unbiased estimator* of availability.

        For an unbiased batch this is exactly :meth:`availabilities`.  For an
        importance-sampled batch each sample is ``1 - w * (1 - a)``: the
        unavailability is reweighted by the likelihood ratio ``w = dP/dQ``
        while lifetimes with zero downtime contribute exactly ``1.0``
        regardless of their weight, so the estimator's expectation under the
        biased measure equals the nominal availability.  Callers already
        holding :meth:`weights` pass them in to skip a second ``exp``.
        """
        availabilities = self.availabilities()
        if weights is None:
            weights = self.weights()
        if weights is None:
            return availabilities
        return 1.0 - weights * (1.0 - availabilities)

    def totals(self) -> Dict[str, float]:
        """Return summed counters in the ``MonteCarloResult.totals`` layout.

        Importance-sampled batches sum likelihood-ratio-weighted counters so
        the totals estimate the nominal-measure expectations.
        """
        weights = self.weights()
        if weights is None:
            return {
                "downtime_hours": float(self.downtime_hours.sum()),
                "du_events": float(self.du_events.sum()),
                "dl_events": float(self.dl_events.sum()),
                "disk_failures": float(self.disk_failures.sum()),
                "human_errors": float(self.human_errors.sum()),
            }
        return {
            "downtime_hours": float(np.dot(weights, self.downtime_hours)),
            "du_events": float(np.dot(weights, self.du_events)),
            "dl_events": float(np.dot(weights, self.dl_events)),
            "disk_failures": float(np.dot(weights, self.disk_failures)),
            "human_errors": float(np.dot(weights, self.human_errors)),
        }

    def to_iteration_results(self) -> List["IterationResult"]:
        """Explode the batch into per-lifetime result objects."""
        from repro.core.montecarlo.results import IterationResult

        return [
            IterationResult(
                horizon_hours=self.horizon_hours,
                downtime_hours=float(self.downtime_hours[i]),
                du_events=int(self.du_events[i]),
                dl_events=int(self.dl_events[i]),
                disk_failures=int(self.disk_failures[i]),
                human_errors=int(self.human_errors[i]),
            )
            for i in range(len(self))
        ]


@dataclass(frozen=True)
class SimulationPolicy:
    """One replacement policy as seen by the simulation kernel.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"conventional"`` or ``"hot_spare_pool"``.
    description:
        One-line human readable summary (shown by ``python -m repro policies``).
    scalar:
        One-lifetime simulator ``(params, horizon_hours, rng, trace=None)``.
    batch:
        Optional vectorised kernel ``(params, horizon_hours, n, rng)``.
    chain:
        Optional analytical face ``(params) -> MarkovChain`` building the
        policy's CTMC availability model.
    n_spares:
        Number of hot spares the policy assumes (0 for conventional).
    supports_stacked:
        Whether the batch kernel accepts a
        :class:`~repro.core.policies.stacked.StackedParams` grid (per-
        lifetime parameter arrays), so one kernel call covers a whole shard
        of a stacked grid (:mod:`repro.core.montecarlo.batch`).  The
        built-in kernels do; custom kernels opt in explicitly.  Without it
        a grid still runs on the stacked executor, but each shard calls
        :meth:`simulate_batch` once per point segment.
    scheme:
        The policy's :class:`RedundancyScheme`.  Continuous-repair schemes
        (``check_period_hours=None``) are descriptive metadata — the legacy
        RAID policies declare one without their kernels reading it, so the
        re-expression is bit-identical by construction.  Periodic schemes
        switch the analytical face to the checker-cycle solver and
        parameterise the erasure kernels.  Participates in equality (the
        stacked executor requires every point of a grid to share one
        policy, so two policies differing only in scheme must not compare
        equal).
    """

    name: str
    description: str
    scalar: ScalarSimulator = field(compare=False)
    batch: Optional[BatchKernel] = field(compare=False, default=None)
    chain: Optional[ChainFactory] = field(compare=False, default=None)
    n_spares: int = 0
    supports_stacked: bool = False
    scheme: Optional[RedundancyScheme] = None

    @property
    def label(self) -> str:
        """Return a display label for reports."""
        return self.name.replace("_", " ")

    @property
    def has_batch_kernel(self) -> bool:
        """Return whether a vectorised batch kernel is available."""
        return self.batch is not None

    @property
    def has_analytical_model(self) -> bool:
        """Return whether the policy offers an analytical (CTMC) face."""
        return self.chain is not None

    @property
    def can_stack(self) -> bool:
        """Return whether the policy can run stacked parameter grids."""
        return self.batch is not None and self.supports_stacked

    @property
    def has_periodic_checks(self) -> bool:
        """Return whether repair runs on a check period (erasure family)."""
        return self.scheme is not None and self.scheme.is_periodic

    def build_chain(self, params: "AvailabilityParameters") -> "MarkovChain":
        """Build the policy's analytical Markov chain at one parameter point.

        Raises :class:`~repro.exceptions.ConfigurationError` for policies
        without an analytical face (e.g. custom spare-pool variants), so the
        ``"auto"`` evaluation backend can fall back to Monte Carlo instead.
        """
        if self.chain is None:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"policy {self.name!r} has no analytical model; evaluate it "
                "with the monte_carlo backend"
            )
        return self.chain(params)

    def simulate(
        self,
        params: "AvailabilityParameters",
        horizon_hours: float,
        rng: np.random.Generator,
        trace: Optional["EpisodeTrace"] = None,
    ) -> "IterationResult":
        """Simulate one lifetime on the scalar (traced/debug) path."""
        return self.scalar(params, horizon_hours, rng, trace=trace)

    def simulate_batch(
        self,
        params: "AvailabilityParameters",
        horizon_hours: float,
        n_lifetimes: int,
        rng: np.random.Generator,
        biasing: Optional[float] = None,
    ) -> BatchLifetimes:
        """Simulate ``n_lifetimes`` lifetimes, vectorised when possible.

        Policies without a batch kernel fall back to a scalar loop so every
        registered policy runs on the batch and sharded executors.
        ``biasing`` requests the kernel's importance-sampled mode; it is
        forwarded only when set so unbiased runs hit the exact historical
        call and custom kernels without the keyword keep working.
        """
        if self.batch is not None:
            if biasing is not None:
                return self.batch(params, horizon_hours, int(n_lifetimes), rng, biasing=biasing)
            return self.batch(params, horizon_hours, int(n_lifetimes), rng)
        if biasing is not None:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"policy {self.name!r} cannot apply failure biasing on the "
                "scalar path; importance sampling requires a batch kernel"
            )
        batch = BatchLifetimes.zeros(int(n_lifetimes), horizon_hours)
        for i in range(int(n_lifetimes)):
            result = self.scalar(params, horizon_hours, rng, trace=None)
            batch.downtime_hours[i] = result.downtime_hours
            batch.du_events[i] = result.du_events
            batch.dl_events[i] = result.dl_events
            batch.disk_failures[i] = result.disk_failures
            batch.human_errors[i] = result.human_errors
        return batch

    def simulate_stacked(
        self,
        stacked_params,
        horizon_hours: float,
        rng: np.random.Generator,
        biasing: Optional[float] = None,
    ) -> BatchLifetimes:
        """Simulate one lifetime per row of a stacked parameter grid.

        One kernel invocation covers the whole grid: every per-study scalar
        (hep, rates, geometry, pool size) is a per-lifetime array inside
        ``stacked_params``.  Raises
        :class:`~repro.exceptions.ConfigurationError` for policies whose
        kernel has not opted into stacked grids.
        """
        if not self.can_stack:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"policy {self.name!r} has no stacked-capable batch kernel; "
                "run it point by point instead"
            )
        if biasing is not None:
            return self.batch(
                stacked_params, horizon_hours, len(stacked_params), rng, biasing=biasing
            )
        return self.batch(stacked_params, horizon_hours, len(stacked_params), rng)

    def simulate_shard(
        self,
        params: "AvailabilityParameters",
        horizon_hours: float,
        n_lifetimes: int,
        streams: "RandomStreams",
        biasing: Optional[float] = None,
    ) -> BatchLifetimes:
        """Simulate one shard of a parallel run from its own stream family.

        A shard owns a whole :class:`~repro.simulation.rng.RandomStreams`
        family (spawned from the master seed at the shard's fixed index) and
        draws through the family's ``"montecarlo"`` stream — the same stream
        name the single-process executors use, so a one-shard run and a
        whole-budget batch run differ only in their position in the spawn
        tree.
        """
        rng = streams.stream("montecarlo")
        return self.simulate_batch(
            params,
            horizon_hours,
            int(n_lifetimes),
            rng,
            biasing=biasing,
        )
