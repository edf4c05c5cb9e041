"""The paper's automatic fail-over policy, as a registered policy."""

from __future__ import annotations

import functools

from repro.core.models.raid5_failover import build_failover_chain
from repro.core.policies.base import RedundancyScheme, SimulationPolicy
from repro.core.policies.hotspare import simulate_hot_spare
from repro.core.policies.registry import register_policy
from repro.core.policies.vectorized import batch_spare_pool

#: Fig. 3 semantics: one hot spare absorbs the failure via an on-line
#: rebuild; the technician only touches the array afterwards, while it is
#: fully redundant.  Both simulation faces are the spare-pool model with a
#: pool of exactly one; the analytical face is the paper's Fig. 3 12-state
#: chain.
AUTOMATIC_FAILOVER_POLICY = register_policy(
    SimulationPolicy(
        name="automatic_failover",
        description=(
            "failed disk rebuilds onto a hot spare first; the technician only "
            "touches the fully redundant array afterwards (paper Fig. 3)"
        ),
        scalar=functools.partial(simulate_hot_spare, n_spares=1),
        batch=functools.partial(batch_spare_pool, n_spares=1),
        chain=build_failover_chain,
        n_spares=1,
        supports_stacked=True,
        # Continuous repair (the spare absorbs the failure immediately).
        scheme=RedundancyScheme(),
    )
)
