"""Monte Carlo (simulation-based) availability model of the paper.

Policies are resolved by name through :mod:`repro.core.policies`; execution
happens either on the vectorised batch path (:mod:`.batch`) or the scalar
traced path (:mod:`.runner` / :mod:`.engine_bridge`).
"""

from repro.core.montecarlo.batch import (
    POINT_SUMMARY_DTYPE,
    run_batch,
    run_batch_lifetimes,
    run_stacked,
    segment_point_records,
    summarise_batch,
)
from repro.core.montecarlo.config import (
    ALLOCATORS,
    DEFAULT_ADAPTIVE_CEILING,
    DEFAULT_HORIZON_HOURS,
    DEFAULT_ITERATIONS,
    POOLS,
    TRANSPORTS,
    MonteCarloConfig,
)
from repro.core.montecarlo.engine_bridge import (
    replay_trace_on_engine,
    run_traced_on_engine,
)
from repro.core.montecarlo.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    ShardFault,
    fault_plan,
)
from repro.core.montecarlo.journal import (
    ShardJournal,
    journal_entropy,
    run_digest,
)
from repro.core.montecarlo.parallel import (
    DEFAULT_SHARD_CAP,
    DEFAULT_STACKED_SHARD_SIZE,
    ShardSummary,
    StackedShard,
    effective_shard_size,
    plan_shards,
    plan_stacked_shards,
    replay_stacked_point,
    run_shard,
    run_sharded,
    run_stacked_shard,
    run_stacked_shard_shm,
    worker_pool,
)
from repro.core.montecarlo.transport import (
    GridPlanesSpec,
    SharedGridPlanes,
    reap_stale_segments,
    resolve_stacked_transport,
    shared_memory_available,
)
from repro.core.montecarlo.results import (
    EpisodeTrace,
    IterationResult,
    MonteCarloResult,
    merge_iteration_counters,
    merge_totals,
)
from repro.core.montecarlo.runner import (
    estimate_availability,
    run_iterations,
    run_monte_carlo,
    run_monte_carlo_with_trace,
    summarise_iterations,
)
from repro.core.montecarlo.simulator import simulate_conventional
from repro.core.montecarlo.trace import (
    generate_example_trace,
    render_timeline,
    summarise_trace,
)

__all__ = [
    "ALLOCATORS",
    "DEFAULT_ADAPTIVE_CEILING",
    "DEFAULT_HORIZON_HOURS",
    "DEFAULT_SHARD_CAP",
    "DEFAULT_STACKED_SHARD_SIZE",
    "DEFAULT_ITERATIONS",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "POOLS",
    "TRANSPORTS",
    "EpisodeTrace",
    "FaultInjected",
    "FaultPlan",
    "GridPlanesSpec",
    "IterationResult",
    "MonteCarloConfig",
    "MonteCarloResult",
    "POINT_SUMMARY_DTYPE",
    "ShardFault",
    "ShardJournal",
    "ShardSummary",
    "SharedGridPlanes",
    "StackedShard",
    "effective_shard_size",
    "estimate_availability",
    "fault_plan",
    "generate_example_trace",
    "journal_entropy",
    "merge_iteration_counters",
    "merge_totals",
    "plan_shards",
    "plan_stacked_shards",
    "reap_stale_segments",
    "render_timeline",
    "run_digest",
    "replay_stacked_point",
    "replay_trace_on_engine",
    "resolve_stacked_transport",
    "run_batch",
    "run_batch_lifetimes",
    "run_iterations",
    "run_monte_carlo",
    "run_monte_carlo_with_trace",
    "run_shard",
    "run_sharded",
    "run_stacked",
    "run_stacked_shard",
    "run_stacked_shard_shm",
    "run_traced_on_engine",
    "segment_point_records",
    "shared_memory_available",
    "simulate_conventional",
    "summarise_batch",
    "summarise_iterations",
    "summarise_trace",
    "worker_pool",
]
