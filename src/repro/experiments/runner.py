"""Run every experiment of the paper and print its tables.

This is the "regenerate the evaluation section" entry point used by
``examples/reproduce_paper.py`` and by EXPERIMENTS.md.  Each experiment can
also be run individually through its own module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.availability.report import Table
from repro.core.montecarlo.parallel import worker_pool
from repro.experiments import cross_validation, fig4_validation, fig5_hep_sweep
from repro.experiments import fig6_raid_comparison, fig7_failover, hot_spare
from repro.experiments import scrub_interval, underestimation
from repro.experiments.config import DEFAULTS
from repro.experiments.fig5_hep_sweep import _series_from_surface


@dataclass
class ExperimentReport:
    """Tables and headline numbers produced by a full reproduction run."""

    tables: List[Table] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Return all tables and headlines as one text report."""
        sections = [table.render() for table in self.tables]
        if self.headline:
            lines = ["Headline numbers", "================"]
            for key in sorted(self.headline):
                lines.append(f"{key}: {self.headline[key]:.6g}")
            sections.append("\n".join(lines))
        return "\n\n".join(sections)


def run_all_experiments(
    mc_iterations: Optional[int] = None,
    include_monte_carlo: bool = True,
    seed: int = DEFAULTS.seed,
    workers: int = 1,
) -> ExperimentReport:
    """Run EXP-F4 ... EXP-F7 and EXP-T1 and collect their tables.

    Parameters
    ----------
    mc_iterations:
        Monte Carlo iteration count for the validation experiment; ``None``
        uses the experiment default.  Pass a smaller number for a quick
        smoke run.
    include_monte_carlo:
        When ``False`` the Fig. 4 validation is skipped entirely (the other
        experiments are purely analytical and fast).
    seed:
        Master seed forwarded to the Monte Carlo runs.
    workers:
        Worker processes for the Monte Carlo studies; ``> 1`` runs them on
        the sharded parallel executor.
    """
    report = ExperimentReport()
    iterations = mc_iterations if mc_iterations is not None else DEFAULTS.mc_iterations

    if include_monte_carlo:
        # One pool shared across every Monte Carlo study of the run, so
        # worker startup is paid once, not per experiment.
        with worker_pool(workers) as pool:
            points = fig4_validation.run_fig4_validation(
                mc_iterations=iterations, seed=seed, workers=workers, pool=pool
            )
            crossval_rows = cross_validation.run_cross_validation(
                mc_iterations=iterations, seed=seed, workers=workers, pool=pool
            )
            spare_points = hot_spare.run_hot_spare_study(
                mc_iterations=iterations, seed=seed, workers=workers, pool=pool
            )
        report.tables.append(fig4_validation.fig4_table(points))
        report.headline["fig4_agreement_fraction"] = fig4_validation.agreement_fraction(points)
        report.tables.append(cross_validation.cross_validation_table(crossval_rows))
        report.headline["crossval_policies_within_ci"] = float(
            sum(1 for row in crossval_rows if row.within_ci)
        )
        report.tables.append(hot_spare.hot_spare_table(spare_points))
        report.headline["hot_spare_best_pool_size"] = float(
            hot_spare.best_pool_size(spare_points)
        )
        # Single-process by design: all scrub periods ride one stacked
        # kernel invocation, so there is nothing to shard.
        scrub_points = scrub_interval.run_scrub_interval_study(
            mc_iterations=iterations, seed=seed
        )
        report.tables.append(scrub_interval.scrub_interval_table(scrub_points))
        report.headline["scrub_degradation_factor"] = scrub_interval.degradation_factor(
            scrub_points
        )

    # One solve of the Fig. 5 sheet: its rows are the Fig. 5 series.
    fig5_surface = fig5_hep_sweep.run_fig5_surface()
    report.tables.append(fig5_hep_sweep.fig5_table(_series_from_surface(fig5_surface)))
    report.tables.append(fig5_hep_sweep.fig5_surface_table(fig5_surface))

    fig6_cells = fig6_raid_comparison.run_fig6_comparison()
    report.tables.extend(fig6_raid_comparison.fig6_tables(fig6_cells))

    fig7_points = fig7_failover.run_fig7_comparison()
    report.tables.append(fig7_failover.fig7_table(fig7_points))
    report.headline["fig7_improvement_at_hep_0.01"] = fig7_failover.improvement_by_hep(
        fig7_points
    ).get(0.01, float("nan"))

    study = underestimation.run_underestimation_study()
    report.tables.append(underestimation.underestimation_table(study))
    headline_point = underestimation.headline_factor()
    report.headline["max_underestimation_factor"] = headline_point.factor
    report.headline["max_underestimation_failure_rate"] = headline_point.disk_failure_rate

    return report
