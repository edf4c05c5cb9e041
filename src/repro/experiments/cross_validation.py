"""Experiment EXP-XV — cross-backend validation of every dual-face policy.

The paper's central methodological claim is that its Markov chains and its
Monte Carlo simulator describe the *same* system: Fig. 4 demonstrates it for
the conventional policy only.  With every registered policy now carrying
both an analytical face and a simulation face behind one evaluation API,
this experiment generalises the check: **for each policy that has both
faces, the analytical steady-state availability must fall inside the Monte
Carlo confidence interval** at the evaluated operating point.

The Monte Carlo side runs on the sharded executor (so the experiment also
exercises the PR 2 merge path), and the experiment doubles as the CI smoke
job via ``python -m repro crossval --iterations <small>``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.availability.report import Table
from repro.core.evaluation import analytical_policies, evaluate
from repro.core.montecarlo.config import PolicyRef
from repro.core.montecarlo.parallel import worker_pool
from repro.core.parameters import AvailabilityParameters, paper_parameters
from repro.core.policies.registry import resolve_policy
from repro.experiments.config import DEFAULTS
from repro.storage.raid import RaidGeometry


@dataclass(frozen=True)
class CrossValidationRow:
    """Analytical-vs-Monte-Carlo agreement for one policy."""

    policy: str
    analytical_availability: float
    analytical_nines: float
    mc_availability: float
    mc_ci_low: float
    mc_ci_high: float
    mc_half_width: float
    n_iterations: int
    within_ci: bool

    def as_dict(self) -> Dict[str, object]:
        """Return a serialisable row."""
        return {
            "policy": self.policy,
            "analytical_availability": self.analytical_availability,
            "analytical_nines": self.analytical_nines,
            "mc_availability": self.mc_availability,
            "mc_ci_low": self.mc_ci_low,
            "mc_ci_high": self.mc_ci_high,
            "mc_half_width": self.mc_half_width,
            "n_iterations": self.n_iterations,
            "within_ci": self.within_ci,
        }


def run_cross_validation(
    params: Optional[AvailabilityParameters] = None,
    policies: Optional[Sequence[PolicyRef]] = None,
    mc_iterations: int = DEFAULTS.mc_iterations,
    mc_horizon_hours: float = DEFAULTS.mc_horizon_hours,
    confidence: float = DEFAULTS.mc_confidence,
    seed: Optional[int] = DEFAULTS.seed,
    workers: int = 1,
    pool_kind: str = "process",
    pool=None,
) -> List[CrossValidationRow]:
    """Validate analytical against Monte Carlo for every dual-face policy.

    Parameters
    ----------
    params:
        Operating point; defaults to the paper's Section V-B rates at an
        elevated failure rate (1e-4/h) and ``hep = 0.01`` so the Monte Carlo
        interval is informative at moderate iteration counts.
    policies:
        Policies to validate; defaults to every registered policy with an
        analytical face *except* periodic-scheme (checker-cycle) policies,
        whose sparse repair events would make the default smoke job flaky.
    mc_iterations, mc_horizon_hours, confidence, seed:
        Monte Carlo configuration shared by all policies (``seed=None``
        draws fresh entropy per policy).
    workers / pool:
        Sharded-executor fan-out; a single pool is shared across policies.
    pool_kind:
        Shard-executor pool of the Monte Carlo face
        (``MonteCarloConfig.pool``); so named because ``pool`` is the
        shared-executor argument above.
    """
    if params is None:
        params = paper_parameters(
            geometry=RaidGeometry.raid5(3), disk_failure_rate=1e-4, hep=0.01
        )
    if policies is None:
        # Periodic-scheme policies (the erasure family) are excluded from the
        # default set: at sparse operating points the monthly checker sees so
        # few repair events that the Monte Carlo interval degenerates to
        # [1, 1] for a large fraction of seeds, making the smoke job flaky.
        # Validate them explicitly — ``policies=["erasure"]`` or the CLI's
        # ``crossval --policy erasure`` — at an event-rich operating point.
        chosen = [
            p
            for p in (resolve_policy(name) for name in analytical_policies())
            if not p.has_periodic_checks
        ]
    else:
        chosen = [resolve_policy(p) for p in policies]
    rows: List[CrossValidationRow] = []
    context = nullcontext(pool) if pool is not None else worker_pool(workers, pool_kind)
    with context as shared_pool:
        for policy in chosen:
            analytical = evaluate(params, policy=policy, backend="analytical")
            mc = evaluate(
                params,
                policy=policy,
                backend="monte_carlo",
                n_iterations=mc_iterations,
                horizon_hours=mc_horizon_hours,
                confidence=confidence,
                seed=seed,
                workers=workers,
                # Pinning the shard size keeps the drawn lifetimes identical
                # across --workers values, so the smoke job is reproducible
                # on any machine.
                shard_size=max(1, mc_iterations // 4),
                pool_kind=pool_kind,
                pool=shared_pool,
            )
            rows.append(
                CrossValidationRow(
                    policy=policy.name,
                    analytical_availability=analytical.availability,
                    analytical_nines=analytical.nines,
                    mc_availability=mc.availability,
                    mc_ci_low=mc.ci_lower,
                    mc_ci_high=mc.ci_upper,
                    mc_half_width=mc.half_width,
                    n_iterations=mc.n_iterations,
                    within_ci=mc.contains(analytical.availability),
                )
            )
    return rows


def cross_validation_table(rows: Sequence[CrossValidationRow]) -> Table:
    """Render the cross-backend validation as a report table."""
    table = Table(
        title="EXP-XV — analytical vs Monte Carlo, every dual-face policy",
        columns=[
            "policy",
            "analytical_nines",
            "mc_availability",
            "mc_ci_low",
            "mc_ci_high",
            "within_ci",
        ],
    )
    for row in rows:
        table.add_row(
            policy=row.policy,
            analytical_nines=row.analytical_nines,
            mc_availability=row.mc_availability,
            mc_ci_low=row.mc_ci_low,
            mc_ci_high=row.mc_ci_high,
            within_ci=str(row.within_ci),
        )
    table.add_note(
        "acceptance: the analytical steady-state availability lies inside the "
        "sharded Monte Carlo confidence interval for every policy"
    )
    return table


def all_within_ci(rows: Sequence[CrossValidationRow]) -> bool:
    """Return whether every policy's analytical value fell inside its CI."""
    return bool(rows) and all(row.within_ci for row in rows)
