"""Configuration of a Monte Carlo availability study."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import SimulationPolicy
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind

#: Default mission time of one simulated lifetime: ten years of operation.
DEFAULT_HORIZON_HOURS = 10 * 8760.0

#: Default number of simulated lifetimes.  The paper uses 1e6; the default
#: here is sized for interactive use and can be raised per experiment.
DEFAULT_ITERATIONS = 20_000

#: Accepted stacked-grid parameter transports: ``"auto"`` pickles each
#: shard's points to process pools and hands thread and in-process shards
#: views of the grid, ``"shm"`` demands shared-memory planes, ``"pickle"``
#: pins the per-shard rebuild path.
#: Re-exported from the transport module, the single source of truth.
from repro.core.montecarlo.transport import TRANSPORTS  # noqa: E402

#: Accepted shard-executor pools: ``"process"`` fans shards out over worker
#: processes (today's default), ``"thread"`` over in-process threads that
#: share the stacked grid planes outright (no segment, no pickling),
#: ``"serial"`` runs the identical shard plan sequentially in-process even
#: with ``workers > 1`` (the pool oracle).  All three are bit-identical:
#: shard decomposition, spawn-indexed draws and CGL merge order are pool
#: independent.
POOLS = ("process", "thread", "serial")

#: Iteration ceiling of an adaptive (``target_half_width``) run when no
#: explicit ``max_iterations`` is configured — the paper's 1e6 setting.
DEFAULT_ADAPTIVE_CEILING = 1_000_000

#: Accepted adaptive-round budget allocators for stacked grids:
#: ``"uniform"`` gives every unmet point the same next-round budget,
#: ``"ci_width"`` sizes each unmet point's round by its own interval gap.
ALLOCATORS = ("uniform", "ci_width")

#: How a policy may be specified: a registry name, a legacy enum member, or
#: a ready :class:`~repro.core.policies.base.SimulationPolicy` instance.
PolicyRef = Union[str, PolicyKind, SimulationPolicy]

#: Sentinel distinguishing "argument not passed" from an explicit ``None``.
_UNSET = object()


@dataclass(frozen=True)
class MonteCarloConfig:
    """Everything needed to run a Monte Carlo availability estimate.

    Attributes
    ----------
    params:
        Rates, probabilities and RAID geometry of the simulated array.
    policy:
        Replacement policy: a registry name (``"conventional"``,
        ``"automatic_failover"``, ``"hot_spare_pool"``, ...), a legacy
        :class:`~repro.human.policy.PolicyKind` member, or a
        :class:`~repro.core.policies.base.SimulationPolicy` instance.
    horizon_hours:
        Mission time of each simulated lifetime.
    n_iterations:
        Number of independent lifetimes to simulate.
    confidence:
        Confidence level of the availability interval (0.99 in the paper).
    seed:
        Master seed for reproducibility; ``None`` draws a fresh seed.
    collect_trace:
        When ``True`` the first iteration records a Fig. 1 style event trace
        (this runs the per-lifetime scalar loop; every other single-process
        run uses the policy's batch kernel when it has one).
    workers:
        Number of worker processes for the sharded executor.  ``1`` (the
        default) runs all shards in-process; ``> 1`` fans shards out over a
        process pool.
    shard_size:
        Lifetimes per shard on the sharded path.  ``None`` derives
        ``ceil(round_budget / workers)`` (one shard per worker and round),
        capped at 50k lifetimes per shard
        (:data:`repro.core.montecarlo.parallel.DEFAULT_SHARD_CAP`), which
        ties the decomposition — and therefore the exact random draws — to
        the worker count.  Setting it explicitly pins the decomposition
        instead (no cap applied), making results bit-identical across
        different worker counts.
    target_half_width:
        Adaptive-stopping target: keep dispatching shard rounds until the
        Student-t interval half-width at ``confidence`` drops to this value
        (or ``max_iterations`` is reached).  ``n_iterations`` sizes the
        first round.  ``None`` disables adaptive mode.
    max_iterations:
        Iteration ceiling of an adaptive run; ``None`` uses
        ``DEFAULT_ADAPTIVE_CEILING``.  Ignored without ``target_half_width``.
    transport:
        How a stacked sweep's parameter planes reach the shard workers:
        ``"auto"`` (per-shard scalar rebuild on process pools, zero-copy
        grid views for thread and in-process shards), ``"shm"`` (shared-
        memory planes; error when unavailable) or ``"pickle"`` (per-shard
        scalar rebuild everywhere).  Every transport is byte-identical in
        results; single-point (non-stacked) runs ignore the setting
        because only scalars ever cross the boundary there.
    biasing:
        Failure-biasing factor of the importance-sampled kernels: failure
        rates are inflated by this factor (> 0) and every lifetime carries a
        log-likelihood-ratio weight, so estimates stay unbiased while
        rare-event scenarios resolve with orders of magnitude fewer
        lifetimes.  ``None`` (the default) runs the unbiased kernels on the
        exact historical call path.  Requires a batch kernel (no event
        traces).
    allocator:
        How adaptive (``target_half_width``) stacked runs split each next
        shard round across grid points: ``"uniform"`` gives every unmet
        point the same budget, ``"ci_width"`` sizes each unmet point's
        budget by its own confidence-interval gap.  Ignored without
        ``target_half_width``; single-point runs have nothing to allocate.
    pool:
        Which executor the sharded path fans shards out over when
        ``workers > 1``: ``"process"`` (worker processes, today's
        behaviour), ``"thread"`` (in-process threads sharing the stacked
        grid planes outright — no segment, no pickling) or ``"serial"``
        (the identical shard plan run sequentially in-process, the pool
        oracle).  Bit-identical across pools and worker counts.
    shard_timeout:
        Seconds the sharded collector waits for the next unfinished shard
        (in plan order) before declaring it hung: the pool is torn down,
        rebuilt, and every unfinished shard resubmitted — counting one
        retry against the timed-out shard.  ``None`` (the default) waits
        forever, today's behaviour.  Not enforceable on the inline
        (``workers=1``/serial) path, where shards run in the caller.
    max_shard_retries:
        How many times a failed shard — in-shard exception, timeout, or a
        worker lost to ``BrokenProcessPool`` — is resubmitted before the
        run gives up and re-raises.  Retried shards recompute bit-identical
        records (the spawn-indexed stream family depends only on the master
        entropy and shard index), so retries never change results.  ``0``
        (the default) keeps the historical fail-fast behaviour.
    retry_backoff:
        Base of the exponential pause between a shard's failure and its
        resubmission: attempt ``k`` sleeps ``retry_backoff * 2**(k-1)``
        seconds.  ``0`` disables the pause.
    checkpoint:
        Path of a shard journal to write (and, when it already exists with
        a matching run digest, to resume): completed shard summaries are
        appended durably as they are collected, and already-journaled
        shards are skipped on restart.  See
        :mod:`repro.core.montecarlo.journal`.
    resume:
        Like ``checkpoint`` but the journal **must** already exist — the
        explicit "continue that killed run" spelling.  Requires a matching
        digest; a ``seed=None`` resume adopts the journaled run's entropy.
    """

    params: AvailabilityParameters = field(default_factory=AvailabilityParameters)
    policy: PolicyRef = PolicyKind.CONVENTIONAL
    horizon_hours: float = DEFAULT_HORIZON_HOURS
    n_iterations: int = DEFAULT_ITERATIONS
    confidence: float = 0.99
    seed: Optional[int] = None
    collect_trace: bool = False
    workers: int = 1
    shard_size: Optional[int] = None
    target_half_width: Optional[float] = None
    max_iterations: Optional[int] = None
    transport: str = "auto"
    biasing: Optional[float] = None
    allocator: str = "uniform"
    pool: str = "process"
    shard_timeout: Optional[float] = None
    max_shard_retries: int = 0
    retry_backoff: float = 0.1
    checkpoint: Optional[str] = None
    resume: Optional[str] = None

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon_hours!r}")
        if self.n_iterations < 2:
            raise ConfigurationError(
                f"at least two iterations are required, got {self.n_iterations!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        if int(self.workers) < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers!r}")
        if self.shard_size is not None and int(self.shard_size) < 1:
            raise ConfigurationError(
                f"shard size must be at least 1, got {self.shard_size!r}"
            )
        if self.target_half_width is not None and self.target_half_width <= 0.0:
            raise ConfigurationError(
                f"target half-width must be positive, got {self.target_half_width!r}"
            )
        if (
            self.target_half_width is not None
            and self.max_iterations is not None
            and self.max_iterations < self.n_iterations
        ):
            # Without a target the ceiling is documented as ignored, so it
            # is deliberately left unvalidated there.
            raise ConfigurationError(
                f"max_iterations ({self.max_iterations!r}) must not be below "
                f"n_iterations ({self.n_iterations!r}); the adaptive ceiling "
                "cannot undercut the first round"
            )
        if self.allocator not in ALLOCATORS:
            raise ConfigurationError(
                f"allocator must be one of {ALLOCATORS}, got {self.allocator!r}"
            )
        if self.pool not in POOLS:
            raise ConfigurationError(f"pool must be one of {POOLS}, got {self.pool!r}")
        if self.pool in ("thread", "serial") and self.transport == "shm":
            raise ConfigurationError(
                "transport='shm' crosses a process boundary; thread and "
                "serial pools share the stacked grid planes directly "
                "(use transport='auto')"
            )
        if self.biasing is not None:
            if not float(self.biasing) > 0.0:
                raise ConfigurationError(
                    f"biasing factor must be positive, got {self.biasing!r}"
                )
            if self.collect_trace:
                raise ConfigurationError(
                    "failure biasing runs on the batch path and cannot "
                    "collect an event trace"
                )
        if self.shard_timeout is not None and not float(self.shard_timeout) > 0.0:
            raise ConfigurationError(
                f"shard timeout must be positive, got {self.shard_timeout!r}"
            )
        if int(self.max_shard_retries) < 0:
            raise ConfigurationError(
                f"max_shard_retries must be non-negative, got {self.max_shard_retries!r}"
            )
        if float(self.retry_backoff) < 0.0:
            raise ConfigurationError(
                f"retry_backoff must be non-negative, got {self.retry_backoff!r}"
            )
        if self.checkpoint is not None and self.resume is not None:
            raise ConfigurationError(
                "checkpoint= and resume= name the same journal mechanism; "
                "pass one of them (resume requires the file to exist, "
                "checkpoint creates it)"
            )
        if self.collect_trace and self.uses_sharded_path:
            raise ConfigurationError(
                "event traces require the single-process scalar path; "
                "collect_trace cannot be combined with workers > 1, "
                "shard_size or target_half_width"
            )

    @property
    def uses_sharded_path(self) -> bool:
        """Return whether this config runs on the sharded parallel executor."""
        return (
            int(self.workers) > 1
            or self.shard_size is not None
            or self.target_half_width is not None
        )

    @property
    def journal_path(self) -> Optional[str]:
        """Return the configured journal path (``resume`` wins), if any."""
        return self.resume if self.resume is not None else self.checkpoint

    @property
    def adaptive_ceiling(self) -> int:
        """Return the iteration ceiling of an adaptive run."""
        if self.max_iterations is not None:
            return int(self.max_iterations)
        return max(DEFAULT_ADAPTIVE_CEILING, int(self.n_iterations))

    @property
    def policy_name(self) -> str:
        """Return the registry name of the configured policy."""
        if isinstance(self.policy, SimulationPolicy):
            return self.policy.name
        if isinstance(self.policy, PolicyKind):
            return self.policy.value
        return str(self.policy)

    def with_iterations(self, n_iterations: int) -> "MonteCarloConfig":
        """Return a copy with a different iteration count."""
        return replace(self, n_iterations=int(n_iterations))

    def with_policy(self, policy: PolicyRef) -> "MonteCarloConfig":
        """Return a copy with a different replacement policy."""
        return replace(self, policy=policy)

    def with_workers(self, workers: int, shard_size=_UNSET) -> "MonteCarloConfig":
        """Return a copy configured for the sharded executor.

        A pinned ``shard_size`` is preserved unless explicitly overridden
        (pass ``None`` to unpin), so changing the worker count never
        silently changes the shard decomposition of a reference config.
        """
        return replace(
            self,
            workers=int(workers),
            shard_size=self.shard_size if shard_size is _UNSET else shard_size,
        )

    def with_target_half_width(
        self, target_half_width: float, max_iterations=_UNSET
    ) -> "MonteCarloConfig":
        """Return a copy that stops adaptively at the given interval width.

        A pinned ``max_iterations`` ceiling is preserved unless explicitly
        overridden (pass ``None`` to restore the default ceiling).
        """
        return replace(
            self,
            target_half_width=float(target_half_width),
            max_iterations=self.max_iterations if max_iterations is _UNSET else max_iterations,
        )

    def with_biasing(self, biasing: Optional[float]) -> "MonteCarloConfig":
        """Return a copy with a different failure-biasing factor."""
        return replace(self, biasing=None if biasing is None else float(biasing))

    def with_allocator(self, allocator: str) -> "MonteCarloConfig":
        """Return a copy with a different adaptive-round budget allocator."""
        return replace(self, allocator=str(allocator))

    def with_params(self, params: AvailabilityParameters) -> "MonteCarloConfig":
        """Return a copy with a different parameter set."""
        return replace(self, params=params)

    def with_transport(self, transport: str) -> "MonteCarloConfig":
        """Return a copy with a different stacked-grid parameter transport."""
        return replace(self, transport=str(transport))

    def with_pool(self, pool: str) -> "MonteCarloConfig":
        """Return a copy with a different shard-executor pool."""
        return replace(self, pool=str(pool))

    def with_retries(
        self,
        max_shard_retries: int,
        shard_timeout=_UNSET,
        retry_backoff=_UNSET,
    ) -> "MonteCarloConfig":
        """Return a copy with different shard retry/timeout settings."""
        return replace(
            self,
            max_shard_retries=int(max_shard_retries),
            shard_timeout=self.shard_timeout if shard_timeout is _UNSET else shard_timeout,
            retry_backoff=self.retry_backoff if retry_backoff is _UNSET else retry_backoff,
        )

    def with_journal(
        self, checkpoint: Optional[str] = None, resume: Optional[str] = None
    ) -> "MonteCarloConfig":
        """Return a copy with a checkpoint/resume journal path."""
        return replace(self, checkpoint=checkpoint, resume=resume)

    def with_seed(self, seed: int) -> "MonteCarloConfig":
        """Return a copy with a fixed master seed."""
        return replace(self, seed=int(seed))

    def label(self) -> str:
        """Return a short description used in result tables."""
        return (
            f"{self.params.geometry.label} {self.policy_name} "
            f"lambda={self.params.disk_failure_rate:g} hep={self.params.hep:g}"
        )
