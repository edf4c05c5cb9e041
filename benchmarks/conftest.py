"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's evaluation artefacts
(Figs. 4-7 plus the underestimation headline) and prints the same
rows/series the paper reports, so ``pytest benchmarks/ --benchmark-only -s``
doubles as the reproduction driver.  Monte Carlo iteration counts are kept
small here so the whole suite finishes in minutes; the experiment modules
accept the paper-scale counts.

Benchmarks that measure a headline speedup additionally push one record
into the session's ``bench_record`` fixture; at session end the records are
**appended** to ``BENCH_sweep.json`` at the repository root as one run
keyed by git commit and UTC timestamp (op name, problem size, wall-clock
seconds, speedup), so the performance trajectory accumulates across PRs
instead of each session overwriting the last.  ``python -m repro bench
history`` prints the per-op trend; ``python -m repro bench table`` renders
each op's newest record as the README's markdown performance table.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional

import pytest

# The harness writes through repro.bench; make src/ importable even when
# benchmarks run without an installed package or PYTHONPATH, and the
# repository root too, for benchmarks that time test-only references.
_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.bench import append_run  # noqa: E402

#: Where the machine-readable benchmark records land (repository root).
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

_BENCH_RECORDS: List[Dict[str, object]] = []

#: Monte Carlo iterations used inside benchmarks (paper: 1e6).
BENCH_MC_ITERATIONS = 4000

#: Mission time per simulated lifetime in benchmarks.
BENCH_MC_HORIZON_HOURS = 10 * 8760.0

#: Seed shared by all benchmarks for reproducibility.
BENCH_SEED = 2017


@pytest.fixture(scope="session")
def bench_mc_iterations() -> int:
    """Return the Monte Carlo iteration count used by benchmarks."""
    return BENCH_MC_ITERATIONS


@pytest.fixture(scope="session")
def bench_mc_horizon() -> float:
    """Return the per-lifetime horizon used by benchmarks."""
    return BENCH_MC_HORIZON_HOURS


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Return the master seed used by benchmarks."""
    return BENCH_SEED


@pytest.fixture(scope="session")
def bench_record():
    """Return a callable recording one machine-readable benchmark result.

    Usage inside a benchmark::

        bench_record("stacked_mc_sweep", points=32, seconds=0.41, speedup=6.2)

    Records are flushed to ``BENCH_sweep.json`` when the session ends.
    """

    def record(
        op: str,
        *,
        points: Optional[int] = None,
        seconds: Optional[float] = None,
        speedup: Optional[float] = None,
        **extra: object,
    ) -> None:
        entry: Dict[str, object] = {"op": str(op)}
        if points is not None:
            entry["points"] = int(points)
        if seconds is not None:
            entry["seconds"] = round(float(seconds), 6)
        if speedup is not None:
            entry["speedup"] = round(float(speedup), 3)
        entry.update(extra)
        _BENCH_RECORDS.append(entry)

    return record


def pytest_sessionfinish(session, exitstatus) -> None:
    """Append the collected benchmark records to ``BENCH_sweep.json``.

    Nothing is written when no benchmark recorded a result (e.g. a plain
    tier-1 run), so the file only changes when the perf harness ran.  A
    legacy overwrite-style file is migrated into the append-only history
    on first touch (its single run is preserved as the oldest entry).
    """
    if not _BENCH_RECORDS:
        return
    append_run(BENCH_RESULTS_PATH, _BENCH_RECORDS)
