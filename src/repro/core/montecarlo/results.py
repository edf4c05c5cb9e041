"""Result containers for the Monte Carlo availability model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.availability.metrics import availability_to_nines
from repro.simulation.confidence import ConfidenceInterval


@dataclass
class IterationResult:
    """Outcome of one simulated array lifetime.

    Attributes
    ----------
    horizon_hours:
        Simulated mission time.
    downtime_hours:
        Total time the array data was unavailable (DU episodes plus backup
        restores after data loss).
    du_events:
        Number of data-unavailability episodes caused by human error.
    dl_events:
        Number of data-loss episodes (double failures or crashed wrong pulls)
        requiring a backup restore.
    disk_failures:
        Number of hard disk failures observed.
    human_errors:
        Number of wrong disk replacements committed.
    """

    horizon_hours: float
    downtime_hours: float = 0.0
    du_events: int = 0
    dl_events: int = 0
    disk_failures: int = 0
    human_errors: int = 0

    @property
    def availability(self) -> float:
        """Return the availability of this single run."""
        if self.horizon_hours <= 0.0:
            return 1.0
        downtime = min(self.downtime_hours, self.horizon_hours)
        return 1.0 - downtime / self.horizon_hours

    @property
    def uptime_hours(self) -> float:
        """Return the uptime of this single run in hours."""
        return self.horizon_hours - min(self.downtime_hours, self.horizon_hours)


@dataclass
class MonteCarloResult:
    """Aggregated outcome of a Monte Carlo availability study.

    Attributes
    ----------
    availability:
        Point estimate of the long-run availability (mean over iterations,
        each iteration weighted equally as in the paper's estimator).
    interval:
        Student-t confidence interval of the availability at the configured
        confidence level.
    n_iterations:
        Number of simulated lifetimes.
    horizon_hours:
        Mission time of each lifetime.
    totals:
        Summed event counters across iterations (``disk_failures``,
        ``human_errors``, ``du_events``, ``dl_events``, ``downtime_hours``).
    label:
        Free-form description of the scenario (used by reports).
    seed_entropy:
        The resolved master entropy of the run's random streams.  For
        ``seed=None`` runs this is the freshly drawn OS entropy, so any run
        can be replayed exactly by passing it back as the seed.
    ess:
        Kish's effective sample size of an importance-sampled run
        (``None`` for unbiased runs, where it would equal ``n_iterations``).
    analytical_reference:
        Availability of the policy's analytical (CTMC) face at the same
        parameter point, populated when an importance-sampled evaluation has
        a dual-face policy available — the free control variate of the
        rare-event engine.
    retried_shards:
        How many shard attempts failed (crash, timeout, lost worker) and
        were resubmitted by the fault-tolerant executor.  Retried shards
        recompute bit-identical records, so a non-zero count is provenance,
        not a caveat.  On a stacked grid the counter describes the whole
        run and is carried by the first point's result (the other points
        report 0), so sums over a sweep total the run once.
    resumed_shards:
        How many shards were skipped because a checkpoint journal already
        held their (bit-identical) records.  Carried like
        ``retried_shards`` on stacked grids.
    interrupted:
        ``True`` when the run was cut short (``KeyboardInterrupt``/SIGTERM)
        and this is a *partial* result covering only the shards collected
        before the interrupt.  Interrupted runs with a checkpoint journal
        can be resumed to completion.
    """

    availability: float
    interval: ConfidenceInterval
    n_iterations: int
    horizon_hours: float
    totals: Dict[str, float] = field(default_factory=dict)
    label: str = ""
    seed_entropy: Optional[int] = None
    ess: Optional[float] = None
    analytical_reference: Optional[float] = None
    retried_shards: int = 0
    resumed_shards: int = 0
    interrupted: bool = False

    @property
    def unavailability(self) -> float:
        """Return ``1 - availability``."""
        return 1.0 - self.availability

    @property
    def nines(self) -> float:
        """Return the availability expressed as a number of nines.

        A point with no merged lifetimes, which only an interrupted run
        leaves, has no estimate: its nines are NaN.
        """
        if self.n_iterations == 0:
            return float("nan")
        return availability_to_nines(self.availability)

    @property
    def nines_interval(self) -> tuple:
        """Return (low, high) nines corresponding to the availability CI.

        The lower availability bound gives the lower nines bound.  Bounds are
        clipped into ``[0, 1]`` before conversion because a Student-t
        interval on a probability can numerically exceed 1.
        """
        low = min(max(self.interval.lower, 0.0), 1.0)
        high = min(max(self.interval.upper, 0.0), 1.0)
        return (availability_to_nines(low), availability_to_nines(high))

    def contains_availability(self, value: float) -> bool:
        """Return whether ``value`` lies inside the availability CI.

        This is the acceptance test the paper applies in Fig. 4: the Markov
        prediction must fall inside the Monte Carlo error interval.
        """
        return self.interval.contains(value)

    def mean_downtime_hours_per_run(self) -> float:
        """Return the average downtime per simulated lifetime."""
        if self.n_iterations == 0:
            return 0.0
        return self.totals.get("downtime_hours", 0.0) / self.n_iterations

    def as_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable summary."""
        return {
            "label": self.label,
            "availability": self.availability,
            "unavailability": self.unavailability,
            "nines": self.nines,
            "ci_low": self.interval.lower,
            "ci_high": self.interval.upper,
            "confidence": self.interval.confidence,
            "n_iterations": self.n_iterations,
            "horizon_hours": self.horizon_hours,
            "totals": dict(self.totals),
            "seed_entropy": self.seed_entropy,
            "ess": self.ess,
            "analytical_reference": self.analytical_reference,
            "retried_shards": self.retried_shards,
            "resumed_shards": self.resumed_shards,
            "interrupted": self.interrupted,
        }


#: Counter keys every totals mapping carries (the fields of
#: :class:`IterationResult` that sum across lifetimes).
TOTAL_KEYS = ("downtime_hours", "du_events", "dl_events", "disk_failures", "human_errors")


def empty_totals() -> Dict[str, float]:
    """Return a zeroed totals mapping."""
    return {key: 0.0 for key in TOTAL_KEYS}


def merge_totals(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum several totals mappings (e.g. per-shard summaries) into one."""
    totals = empty_totals()
    for part in parts:
        for key, value in part.items():
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def merge_iteration_counters(iterations: List[IterationResult]) -> Dict[str, float]:
    """Sum per-iteration counters into a totals mapping."""
    totals = empty_totals()
    for iteration in iterations:
        totals["downtime_hours"] += iteration.downtime_hours
        totals["du_events"] += iteration.du_events
        totals["dl_events"] += iteration.dl_events
        totals["disk_failures"] += iteration.disk_failures
        totals["human_errors"] += iteration.human_errors
    return totals


@dataclass
class EpisodeTrace:
    """Optional per-episode trace of a single run (the paper's Fig. 1 view)."""

    records: List = field(default_factory=list)

    def add(self, time: float, kind: str, **detail: object) -> None:
        """Append one trace record."""
        from repro.simulation.events import TraceRecord

        self.records.append(TraceRecord(time=float(time), kind=kind, detail=dict(detail)))

    def render(self) -> str:
        """Return the trace as readable text, one event per line."""
        return "\n".join(record.describe() for record in self.records)

    def kinds(self) -> List[str]:
        """Return the event kinds in order of occurrence."""
        return [record.kind for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


Trace = Optional[EpisodeTrace]
