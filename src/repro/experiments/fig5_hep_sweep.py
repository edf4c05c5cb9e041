"""Experiment EXP-F5 — Fig. 5: RAID5(3+1) availability versus human error probability.

Fig. 5 plots availability (nines) of a RAID5(3+1) array against
``hep ∈ {0, 0.001, 0.01}`` for four disk failure rates taken from field
studies, each quoted with its Weibull shape.  The analytical series uses the
conventional-replacement Markov model at the matching exponential rate; an
optional Monte Carlo series uses the true Weibull shape, which is how the
paper handles the non-exponential case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.availability.report import Table, table_from_series
from repro.core.evaluation import evaluate
from repro.core.sweep import SweepGrid, sweep_grid
from repro.experiments.config import DEFAULTS, FIG5_FIELD_RATES, HEP_SWEEP
from repro.core.parameters import paper_parameters
from repro.storage.raid import RaidGeometry


@dataclass(frozen=True)
class HepSweepSeries:
    """One Fig. 5 curve: availability versus hep for a fixed failure rate."""

    disk_failure_rate: float
    weibull_shape: float
    hep_values: List[float]
    markov_nines: List[float]
    mc_nines: Optional[List[float]] = None

    @property
    def label(self) -> str:
        """Return the legend label used by the paper."""
        return f"lambda={self.disk_failure_rate:.3g}, beta={self.weibull_shape:g}"

    def drop_from_baseline(self) -> float:
        """Return the nines lost between hep = 0 and the largest hep."""
        return self.markov_nines[0] - self.markov_nines[-1]


def run_fig5_sweep(
    hep_values: Sequence[float] = HEP_SWEEP,
    field_rates: Sequence = FIG5_FIELD_RATES,
    include_monte_carlo: bool = False,
    mc_iterations: int = DEFAULTS.mc_iterations,
    mc_horizon_hours: float = DEFAULTS.mc_horizon_hours,
    seed: int = DEFAULTS.seed,
) -> List[HepSweepSeries]:
    """Run the Fig. 5 sweep and return one series per field failure rate.

    The analytical curves are the rows of one :func:`run_fig5_surface`
    grid over ``field_rates x hep_values``.
    """
    surface = run_fig5_surface(hep_values, [rate for rate, _ in field_rates])
    series: List[HepSweepSeries] = []
    for entry in _series_from_surface(surface, field_rates):
        if include_monte_carlo:
            mc_nines = []
            for hep in hep_values:
                params = paper_parameters(
                    geometry=RaidGeometry.raid5(3),
                    disk_failure_rate=entry.disk_failure_rate,
                    hep=hep,
                    failure_shape=entry.weibull_shape,
                )
                result = evaluate(
                    params,
                    policy="conventional",
                    backend="monte_carlo",
                    horizon_hours=mc_horizon_hours,
                    n_iterations=mc_iterations,
                    confidence=DEFAULTS.mc_confidence,
                    seed=seed,
                )
                mc_nines.append(result.nines)
            entry = replace(entry, mc_nines=mc_nines)
        series.append(entry)
    return series


def _series_from_surface(
    grid: SweepGrid, field_rates: Sequence = FIG5_FIELD_RATES
) -> List[HepSweepSeries]:
    """Return the analytical Fig. 5 series: one per row of a surface grid.

    Row ``i`` of ``grid`` (a :func:`run_fig5_surface` result) belongs to
    ``field_rates[i]``, which supplies the series' Weibull shape.
    """
    return [
        HepSweepSeries(
            disk_failure_rate=float(rate),
            weibull_shape=float(shape),
            hep_values=[float(hep) for hep in grid.values2],
            markov_nines=row,
        )
        for rate, (_, shape), row in zip(grid.values1, field_rates, grid.nines_matrix())
    ]


def run_fig5_surface(
    hep_values: Sequence[float] = HEP_SWEEP,
    failure_rates: Optional[Sequence[float]] = None,
    backend: str = "analytical",
    mc_iterations: int = DEFAULTS.mc_iterations,
    mc_horizon_hours: float = DEFAULTS.mc_horizon_hours,
    seed: int = DEFAULTS.seed,
    workers: int = 1,
) -> SweepGrid:
    """Run the Fig. 5 hep-versus-lambda availability surface in one call.

    The whole ``failure_rates x hep_values`` sheet is evaluated as a single
    :func:`~repro.core.sweep.sweep_grid`: analytically one batched
    solve per chain structure, on the ``monte_carlo`` backend
    one stacked grid (a handful of kernel invocations for every point of
    the surface).  ``failure_rates`` defaults to the field rates the paper
    quotes in Fig. 5.
    """
    rates = (
        [rate for rate, _ in FIG5_FIELD_RATES]
        if failure_rates is None
        else list(failure_rates)
    )
    return sweep_grid(
        paper_parameters(geometry=RaidGeometry.raid5(3), hep=0.0),
        "failure_rate",
        rates,
        "hep",
        list(hep_values),
        policy="conventional",
        backend=backend,
        mc_iterations=mc_iterations,
        mc_horizon_hours=mc_horizon_hours,
        seed=seed,
        workers=workers,
    )


def fig5_surface_table(grid: SweepGrid) -> Table:
    """Render the Fig. 5 surface as a table (one column per failure rate)."""
    columns = {
        f"lambda={rate:.3g}": row
        for rate, row in zip(grid.values1, grid.nines_matrix())
    }
    return table_from_series(
        title="Fig. 5 surface — RAID5(3+1) nines over the hep x lambda grid",
        x_name="hep",
        x_values=list(grid.values2),
        series=columns,
        notes=[
            "whole surface evaluated in one sweep_grid call "
            f"({len(grid.values1)} x {len(grid.values2)} points)",
        ],
    )


def fig5_table(series: Sequence[HepSweepSeries]) -> Table:
    """Render the Fig. 5 sweep as a table (one column per failure rate)."""
    if not series:
        raise ValueError("at least one series is required")
    hep_values = series[0].hep_values
    columns = {entry.label: entry.markov_nines for entry in series}
    table = table_from_series(
        title="Fig. 5 — RAID5(3+1) availability (nines) vs human error probability",
        x_name="hep",
        x_values=hep_values,
        series=columns,
        notes=[
            "availability is inversely related to hep; the drop from hep=0 to hep=0.01 "
            "grows as the failure rate shrinks",
        ],
    )
    return table


def availability_drops(series: Sequence[HepSweepSeries]) -> Dict[str, float]:
    """Return the nines drop from hep = 0 to the largest hep for each series."""
    return {entry.label: entry.drop_from_baseline() for entry in series}
