"""Backend-agnostic availability evaluation.

This is the single front door the paper's comparisons walk through: a
(parameters, policy) pair is evaluated either **analytically** (steady state
of the policy's CTMC face) or by **Monte Carlo** (the policy's simulation
face on the batch or sharded executor), and both backends return the same
:class:`AvailabilityEstimate` — point value, optional confidence interval
and solver/executor provenance.

Analytical evaluations go through a process-wide cache of
:class:`~repro.markov.template.ChainTemplate` objects: the policy's chain is
built **once** per (policy, geometry, structure) and later parameter points
only rewrite the affected generator entries and re-solve (with automatic
dense/sparse solver selection by state count).  Repeated evaluations — and
especially the sweeps in :mod:`repro.core.sweep` — therefore never pay the
builder/validation cost again.

Usage::

    from repro.core.evaluation import evaluate

    est = evaluate(params, policy="automatic_failover", backend="analytical")
    mc = evaluate(params, policy="conventional", backend="monte_carlo",
                  n_iterations=50_000, seed=7)
    assert mc.contains(est.availability)   # the Fig. 4 acceptance test
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.montecarlo.config import (
    DEFAULT_HORIZON_HOURS,
    DEFAULT_ITERATIONS,
    MonteCarloConfig,
    PolicyRef,
)
from repro.core.montecarlo.results import MonteCarloResult
from repro.core.montecarlo.batch import run_stacked
from repro.core.montecarlo.runner import _executor_provenance, run_monte_carlo
from repro.core.parameters import AvailabilityParameters
from repro.core.policies.base import SimulationPolicy
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.markov.metrics import (
    AvailabilityResult,
    availability_from_up_mass,
    availability_result_from_pi,
)
from repro.markov.template import ChainTemplate

#: Accepted evaluation backends.  ``"auto"`` prefers the analytical face
#: when the policy has one and falls back to Monte Carlo otherwise.
BACKENDS: Tuple[str, ...] = ("analytical", "monte_carlo", "auto")


@dataclass(frozen=True)
class AvailabilityEstimate:
    """A backend-agnostic availability estimate.

    Attributes
    ----------
    availability / unavailability / nines:
        The point estimate (exact for the analytical backend, a mean over
        simulated lifetimes for Monte Carlo).
    policy:
        Registry name of the evaluated policy.
    backend:
        ``"analytical"`` or ``"monte_carlo"``.
    provenance:
        How the number was produced: the resolved steady-state solver
        (``"solver=dense"``) or the Monte Carlo executor
        (``"executor=sharded(4 workers)"``), for reports and debugging.
    ci_lower / ci_upper / confidence:
        Confidence interval of a Monte Carlo estimate; ``None`` for the
        analytical backend, which is exact given the model.
    n_iterations:
        Simulated lifetimes behind a Monte Carlo estimate.
    state_probabilities:
        Stationary distribution behind an analytical estimate.
    analytical_reference:
        Steady-state availability of the policy's analytical face at the
        same parameter point, attached to importance-sampled Monte Carlo
        estimates when the policy has a chain face — the free cross-check
        (and control variate) of the rare-event engine.
    retried_shards / resumed_shards:
        Fault-tolerance provenance of a Monte Carlo estimate: how many
        shard attempts were resubmitted after a failure, and how many
        shards were skipped because a checkpoint journal already held
        their records.  Both recompute bit-identical numbers.
    interrupted:
        ``True`` when the Monte Carlo run was cut short (Ctrl-C/SIGTERM)
        and this estimate covers only the shards collected before the
        interrupt; resumable when a journal was configured.
    """

    availability: float
    unavailability: float
    nines: float
    policy: str
    backend: str
    provenance: str
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    confidence: Optional[float] = None
    n_iterations: Optional[int] = None
    state_probabilities: Optional[Dict[str, float]] = None
    analytical_reference: Optional[float] = None
    retried_shards: int = 0
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def has_interval(self) -> bool:
        """Return whether the estimate carries a confidence interval."""
        return self.ci_lower is not None and self.ci_upper is not None

    @property
    def half_width(self) -> Optional[float]:
        """Return the half-width of the confidence interval, if any."""
        if not self.has_interval:
            return None
        return 0.5 * (self.ci_upper - self.ci_lower)

    def contains(self, availability: float) -> bool:
        """Return whether a value lies inside this estimate's interval.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        estimate has no interval (analytical backend).
        """
        if not self.has_interval:
            raise ConfigurationError(
                f"{self.backend} estimate of {self.policy!r} carries no "
                "confidence interval"
            )
        return self.ci_lower <= availability <= self.ci_upper

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable summary."""
        payload: Dict[str, object] = {
            "availability": self.availability,
            "unavailability": self.unavailability,
            "nines": self.nines,
            "policy": self.policy,
            "backend": self.backend,
            "provenance": self.provenance,
        }
        if self.has_interval:
            payload["ci_lower"] = self.ci_lower
            payload["ci_upper"] = self.ci_upper
            payload["confidence"] = self.confidence
        if self.n_iterations is not None:
            payload["n_iterations"] = self.n_iterations
        if self.analytical_reference is not None:
            payload["analytical_reference"] = self.analytical_reference
        if self.retried_shards:
            payload["retried_shards"] = self.retried_shards
        if self.resumed_shards:
            payload["resumed_shards"] = self.resumed_shards
        if self.interrupted:
            payload["interrupted"] = self.interrupted
        return payload


# ----------------------------------------------------------------------
# Template cache
# ----------------------------------------------------------------------
#: Reference hep used to build full-structure templates: any value that
#: keeps every human-error state and transition in the chain.
_REFERENCE_HEP = 0.5

#: Default capacity of the template cache.  Each entry is one compiled
#: (policy, geometry, structure) chain; 64 comfortably covers the paper's
#: figure grids while keeping many-geometry workloads (capacity scans over
#: hundreds of RAID shapes) from growing the process without bound.
DEFAULT_TEMPLATE_CACHE_SIZE = 64

_TEMPLATE_CACHE: "OrderedDict[Tuple[str, str, bool, bool], ChainTemplate]" = OrderedDict()
_TEMPLATE_LOCK = threading.Lock()
_TEMPLATE_CACHE_MAXSIZE = DEFAULT_TEMPLATE_CACHE_SIZE
_TEMPLATE_CACHE_HITS = 0
_TEMPLATE_CACHE_MISSES = 0
_TEMPLATE_CACHE_EVICTIONS = 0


def _structure_key(
    policy: SimulationPolicy, params: AvailabilityParameters
) -> Tuple[str, str, bool, bool]:
    """Return the cache key of a (policy, geometry, structure) combination.

    The model builders drop states and transitions that a zero parameter
    makes unreachable (``hep == 0`` removes the human-error states,
    ``crash_rate == 0`` removes the wrong-pull crash edges), so those two
    flags select between structurally different templates of the same
    policy/geometry pair.
    """
    return (
        policy.name,
        params.geometry.label,
        params.hep > 0.0,
        params.crash_rate > 0.0,
    )


def _reference_params(params: AvailabilityParameters) -> AvailabilityParameters:
    """Return the parameter point a template's reference chain is built at.

    ``hep`` is pinned to a canonical mid-range value whenever it is positive
    so that denormal-small inputs cannot underflow states out of the
    reference build; every other rate keeps the caller's (positive) value.
    """
    if params.hep > 0.0:
        return params.with_hep(_REFERENCE_HEP)
    return params


def chain_template(
    policy: PolicyRef, params: AvailabilityParameters
) -> ChainTemplate:
    """Return the cached parameterized template for a policy at ``params``.

    The template is built from the policy's analytical face on first use and
    shared by every later evaluation with the same structure.  Raises
    :class:`~repro.exceptions.ConfigurationError` for policies without an
    analytical face.
    """
    global _TEMPLATE_CACHE_HITS, _TEMPLATE_CACHE_MISSES, _TEMPLATE_CACHE_EVICTIONS
    resolved = resolve_policy(policy)
    key = _structure_key(resolved, params)
    with _TEMPLATE_LOCK:
        template = _TEMPLATE_CACHE.get(key)
        if template is not None:
            _TEMPLATE_CACHE_HITS += 1
            _TEMPLATE_CACHE.move_to_end(key)
            return template
        _TEMPLATE_CACHE_MISSES += 1
    # The chain build is the expensive part — do it outside the lock, then
    # publish under the lock (a racing builder of the same key wins once).
    reference = _reference_params(params)
    built = ChainTemplate(resolved.build_chain(reference), reference)
    with _TEMPLATE_LOCK:
        template = _TEMPLATE_CACHE.setdefault(key, built)
        _TEMPLATE_CACHE.move_to_end(key)
        while len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_MAXSIZE:
            _TEMPLATE_CACHE.popitem(last=False)
            _TEMPLATE_CACHE_EVICTIONS += 1
        return template


def clear_template_cache() -> None:
    """Drop every cached template and reset the statistics counters."""
    global _TEMPLATE_CACHE_HITS, _TEMPLATE_CACHE_MISSES, _TEMPLATE_CACHE_EVICTIONS
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE.clear()
        _TEMPLATE_CACHE_HITS = 0
        _TEMPLATE_CACHE_MISSES = 0
        _TEMPLATE_CACHE_EVICTIONS = 0


def set_template_cache_size(maxsize: int) -> None:
    """Bound the template cache to ``maxsize`` entries (LRU eviction).

    Shrinking below the current population evicts the least recently used
    templates immediately.
    """
    global _TEMPLATE_CACHE_MAXSIZE, _TEMPLATE_CACHE_EVICTIONS
    if int(maxsize) < 1:
        raise ConfigurationError(
            f"template cache needs room for at least one entry, got {maxsize!r}"
        )
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE_MAXSIZE = int(maxsize)
        while len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_MAXSIZE:
            _TEMPLATE_CACHE.popitem(last=False)
            _TEMPLATE_CACHE_EVICTIONS += 1


def template_cache_stats() -> Dict[str, int]:
    """Return cache occupancy and hit/miss/eviction counters.

    The counters reset on :func:`clear_template_cache`; they exist so
    long-running many-geometry workloads can observe whether the LRU bound
    (:func:`set_template_cache_size`) is thrashing.
    """
    with _TEMPLATE_LOCK:
        return {
            "size": len(_TEMPLATE_CACHE),
            "maxsize": _TEMPLATE_CACHE_MAXSIZE,
            "hits": _TEMPLATE_CACHE_HITS,
            "misses": _TEMPLATE_CACHE_MISSES,
            "evictions": _TEMPLATE_CACHE_EVICTIONS,
        }


def analytical_policies() -> Tuple[str, ...]:
    """Return the registered policies that offer an analytical face."""
    from repro.core.policies.registry import available_policies, get_policy

    return tuple(
        name for name in available_policies() if get_policy(name).has_analytical_model
    )


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def analytical_result(
    params: AvailabilityParameters,
    policy: PolicyRef = "conventional",
    method: str = "auto",
) -> AvailabilityResult:
    """Return the full analytical summary through the template cache.

    The policy's chain is resolved by name, its cached template
    re-evaluated at ``params`` and the stationary vector summarised exactly
    as :func:`repro.markov.metrics.steady_state_availability` would.
    Periodic-scheme policies route through the checker-cycle solver
    instead (no ergodic steady state exists for them).
    """
    resolved = resolve_policy(policy)
    if resolved.has_periodic_checks:
        return _periodic_availability_result(params, resolved, method)[0]
    template = chain_template(resolved, params)
    pi = template.evaluator(params).solve(method=method)
    pi_map = dict(zip(template.state_names, pi.tolist()))
    ups = tuple(template.state_names[i] for i in template.up_indices)
    return availability_result_from_pi(pi_map, template.state_names, ups)


def _periodic_availability_result(
    params: AvailabilityParameters,
    policy: SimulationPolicy,
    method: str,
) -> Tuple[AvailabilityResult, str]:
    """Solve a periodic-check policy's cycle-stationary availability.

    Periodic-scheme policies (the erasure family) have no ergodic steady
    state — repair happens at deterministic check instants — so instead of
    the template cache's stationary solve this path builds the policy's
    between-checks decay chain fresh (the chains are tiny, one state per
    share count) and hands it to the checker-cycle operator solver in
    :mod:`repro.markov.checker`.  The "state probabilities" reported are the
    expected fraction of a check period spent in each state.  ``method``
    maps ``"auto"`` to the exact matrix-exponential series operator;
    ``"uniformization"`` selects the independent transient-engine reference.
    """
    from repro.markov.checker import (
        check_repair_matrix,
        cycle_stationary_availability,
    )

    scheme = policy.scheme.resolve(params)
    chain = policy.build_chain(params)
    repair = check_repair_matrix(
        chain, scheme.n_shares, scheme.k, scheme.repair_threshold, params.hep
    )
    checker_method = "uniformization" if method == "uniformization" else "expm"
    cycle = cycle_stationary_availability(
        chain, repair, scheme.check_period_hours, method=checker_method
    )
    fractions = cycle.occupancy_hours / float(scheme.check_period_hours)
    pi_map = dict(zip(cycle.state_names, fractions.tolist()))
    result = availability_result_from_pi(
        pi_map, cycle.state_names, chain.up_states()
    )
    provenance = f"solver=cycle({checker_method}) states={chain.n_states}"
    return result, provenance


def _evaluate_analytical(
    params: AvailabilityParameters,
    policy: SimulationPolicy,
    method: str,
) -> AvailabilityEstimate:
    if policy.has_periodic_checks:
        result, provenance = _periodic_availability_result(params, policy, method)
        return AvailabilityEstimate(
            availability=result.availability,
            unavailability=result.unavailability,
            nines=result.nines,
            policy=policy.name,
            backend="analytical",
            provenance=provenance,
            state_probabilities=dict(result.state_probabilities),
        )
    template = chain_template(policy, params)
    evaluator = template.evaluator(params)
    result = availability_result_from_pi(
        evaluator.state_probabilities(evaluator.solve(method=method)),
        template.state_names,
        tuple(template.state_names[i] for i in template.up_indices),
    )
    return AvailabilityEstimate(
        availability=result.availability,
        unavailability=result.unavailability,
        nines=result.nines,
        policy=policy.name,
        backend="analytical",
        provenance=(
            f"solver={evaluator.solver_name(method)} "
            f"states={template.n_states}"
        ),
        state_probabilities=dict(result.state_probabilities),
    )


def _estimate_from_mc(
    result: MonteCarloResult, policy_name: str, provenance: str
) -> AvailabilityEstimate:
    return AvailabilityEstimate(
        availability=result.availability,
        unavailability=result.unavailability,
        nines=result.nines,
        policy=policy_name,
        backend="monte_carlo",
        provenance=provenance,
        ci_lower=result.interval.lower,
        ci_upper=result.interval.upper,
        confidence=result.interval.confidence,
        n_iterations=result.n_iterations,
        analytical_reference=result.analytical_reference,
        retried_shards=result.retried_shards,
        resumed_shards=result.resumed_shards,
        interrupted=result.interrupted,
    )


def _attach_analytical_reference(
    result: MonteCarloResult,
    policy: SimulationPolicy,
    params: AvailabilityParameters,
) -> None:
    """Pair an importance-sampled estimate with its analytical face.

    Dual-face policies get the template cache's steady-state availability
    at the same parameter point recorded on the result — a free sanity
    anchor for rare-event runs, where an off-regime biasing factor shows up
    as an estimate far outside the analytical neighbourhood.  Policies
    without a chain face leave the field ``None``.
    """
    if not policy.has_analytical_model:
        return
    if policy.has_periodic_checks:
        result.analytical_reference = _periodic_availability_result(
            params, policy, "auto"
        )[0].availability
        return
    template = chain_template(policy, params)
    pi = template.evaluator(params).solve(method="auto")
    availability, _, _ = availability_from_up_mass(pi[i] for i in template.up_indices)
    result.analytical_reference = availability


def evaluate(
    params: AvailabilityParameters,
    policy: PolicyRef = "conventional",
    backend: str = "auto",
    *,
    method: str = "auto",
    n_iterations: int = DEFAULT_ITERATIONS,
    horizon_hours: float = DEFAULT_HORIZON_HOURS,
    seed: Optional[int] = 0,
    confidence: float = 0.99,
    workers: int = 1,
    shard_size: Optional[int] = None,
    target_half_width: Optional[float] = None,
    max_iterations: Optional[int] = None,
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
) -> AvailabilityEstimate:
    """Evaluate a (parameters, policy) pair on the requested backend.

    Parameters
    ----------
    params:
        Rates, probabilities and RAID geometry of the scenario.
    policy:
        Registry name, legacy enum member or policy instance.
    backend:
        ``"analytical"`` (steady state of the policy's CTMC face),
        ``"monte_carlo"`` (simulation face), or ``"auto"``: analytical when
        the policy has a chain face, Monte Carlo otherwise.
    method:
        Steady-state solver for the analytical backend (``"auto"`` selects
        dense/sparse by state count).
    n_iterations, horizon_hours, seed, confidence, workers, shard_size,
    target_half_width, max_iterations, biasing, allocator:
        Monte Carlo configuration, matching
        :class:`~repro.core.montecarlo.config.MonteCarloConfig`.  A set
        ``biasing`` runs the importance-sampled kernels and, for dual-face
        policies, attaches the analytical availability as
        ``analytical_reference``.
    pool_kind:
        Which executor the sharded path fans shards out over
        (``MonteCarloConfig.pool``): ``"process"``, ``"thread"`` or
        ``"serial"``.  Named ``pool_kind`` here because ``pool`` is the
        long-standing shared-executor argument below.
    pool:
        Optional externally owned worker pool shared across sharded runs
        (see :func:`repro.core.montecarlo.parallel.worker_pool`).
    shard_timeout, max_shard_retries, retry_backoff:
        Fault tolerance of the sharded executor: timed-out, crashed or
        worker-lost shards are resubmitted (bit-identically) up to
        ``max_shard_retries`` times.  See
        :class:`~repro.core.montecarlo.config.MonteCarloConfig`.
    checkpoint, resume:
        Durable shard-journal path: completed shards are recorded as they
        finish and skipped on restart (``resume`` requires the journal to
        exist).  Every Monte Carlo run but one on the scalar loop (a policy
        without a batch kernel at one worker, unpinned and non-adaptive).
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    resolved = resolve_policy(policy)
    if backend == "auto":
        backend = "analytical" if resolved.has_analytical_model else "monte_carlo"
    if backend == "analytical":
        return _evaluate_analytical(params, resolved, method)
    config = MonteCarloConfig(
        params=params,
        policy=resolved,
        horizon_hours=horizon_hours,
        n_iterations=n_iterations,
        confidence=confidence,
        seed=seed,
        workers=workers,
        shard_size=shard_size,
        target_half_width=target_half_width,
        max_iterations=max_iterations,
        transport=transport,
        biasing=biasing,
        allocator=allocator,
        pool=pool_kind,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        retry_backoff=retry_backoff,
        checkpoint=checkpoint,
        resume=resume,
    )
    result = run_monte_carlo(config, pool=pool)
    if biasing is not None:
        _attach_analytical_reference(result, resolved, params)
    return _estimate_from_mc(
        result, resolved.name, f"executor={_executor_provenance(config)}"
    )


def evaluate_stacked(
    points: Sequence[AvailabilityParameters],
    policy: PolicyRef = "conventional",
    *,
    n_iterations: int = DEFAULT_ITERATIONS,
    horizon_hours: float = DEFAULT_HORIZON_HOURS,
    seed: Optional[int] = 0,
    confidence: float = 0.99,
    workers: int = 1,
    shard_size: Optional[int] = None,
    target_half_width: Optional[float] = None,
    max_iterations: Optional[int] = None,
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
) -> List[AvailabilityEstimate]:
    """Monte Carlo evaluate many parameter points as one stacked grid.

    The whole ``points x n_iterations`` grid runs through the stacked
    executor (one kernel invocation per shard of the flattened axis)
    instead of one full study per point — the Monte Carlo counterpart of
    the analytical backend's batched ``solve_many``.  A policy whose kernel
    cannot take a stacked grid (``not policy.can_stack``) runs in the same
    shards, one kernel call per point segment, so every policy gets the
    same shard plan, pool, journal and allocator.

    ``crn=True`` makes every point consume identical base streams (common
    random numbers) for variance-reduced contrasts between neighbouring
    points; see :func:`repro.core.montecarlo.batch.run_stacked`.

    ``target_half_width`` turns the grid adaptive: shard rounds keep being
    dispatched — split across points by ``allocator`` — until every point's
    interval meets the target (or its ceiling).  ``biasing`` runs the grid
    on the importance-sampled kernels; dual-face policies additionally get
    the analytical availability attached to every estimate.
    """
    resolved = resolve_policy(policy)
    configs = [
        MonteCarloConfig(
            params=params,
            policy=resolved,
            horizon_hours=horizon_hours,
            n_iterations=n_iterations,
            confidence=confidence,
            seed=seed,
            workers=workers,
            shard_size=shard_size,
            target_half_width=target_half_width,
            max_iterations=max_iterations,
            transport=transport,
            biasing=biasing,
            allocator=allocator,
            pool=pool_kind,
            shard_timeout=shard_timeout,
            max_shard_retries=max_shard_retries,
            retry_backoff=retry_backoff,
            checkpoint=checkpoint,
            resume=resume,
        )
        for params in points
    ]
    workers = int(workers)
    pool_note = f", {pool_kind} pool" if workers > 1 else ""
    provenance = (
        f"executor=stacked({workers} worker{'s' if workers != 1 else ''}"
        f"{pool_note}{', crn' if crn else ''})"
    )
    results = run_stacked(configs, crn=crn, pool=pool)
    if biasing is not None:
        for result, params in zip(results, points):
            _attach_analytical_reference(result, resolved, params)
    return [
        _estimate_from_mc(result, resolved.name, provenance)
        for result in results
    ]
