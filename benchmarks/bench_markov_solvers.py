"""Engine benchmark: steady-state and transient solvers on the paper's chains.

Compares the dense GTH state reduction (default), least-squares, sparse LU
and power-iteration solvers on the Fig. 3 chain — the largest chain in the
package — both for timing and to confirm they agree to solver tolerance,
and measures the transient analysers' grid-reuse optimisations: one
``expm(Q * dt)`` propagated over a uniform grid versus one ``expm`` per
time, and the shared truncated DTMC power sequence in uniformization.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.models import build_failover_chain
from repro.core.parameters import paper_parameters
from repro.markov import solve_steady_state
from repro.markov.transient import (
    transient_distribution_expm,
    transient_distribution_uniformization,
)

CHAIN = build_failover_chain(paper_parameters(disk_failure_rate=1e-6, hep=0.01))
REFERENCE = solve_steady_state(CHAIN, method="dense")

#: Uniform ten-year grid of the transient benchmarks.
TRANSIENT_TIMES = np.linspace(0.0, 10 * 8760.0, 200)

#: Required advantage of the one-expm uniform-grid path over per-time expm.
REQUIRED_EXPM_SPEEDUP = 5.0


@pytest.mark.parametrize("method", ["dense", "lstsq", "sparse"])
def test_steady_state_solver_bench(benchmark, method):
    """Time one steady-state solve of the 12-state fail-over chain."""
    pi = benchmark(solve_steady_state, CHAIN, method=method)
    for name, value in REFERENCE.items():
        assert pi[name] == pytest.approx(value, rel=1e-6, abs=1e-15)


def test_transient_expm_grid_reuse_speedup(bench_record):
    """One expm + propagation must beat per-time expm by >= 5x at 200 times."""
    start = time.perf_counter()
    fast = transient_distribution_expm(CHAIN, TRANSIENT_TIMES)
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = transient_distribution_expm(CHAIN, TRANSIENT_TIMES, uniform_grid=False)
    slow_seconds = time.perf_counter() - start

    speedup = slow_seconds / max(fast_seconds, 1e-9)
    print(
        f"\ntransient expm: {TRANSIENT_TIMES.size} times — grid-reuse "
        f"{fast_seconds:.3f}s, per-time {slow_seconds:.3f}s (speedup {speedup:.1f}x)"
    )
    bench_record(
        "transient_expm_grid_reuse",
        points=int(TRANSIENT_TIMES.size),
        seconds=fast_seconds,
        speedup=speedup,
    )
    assert np.max(np.abs(fast.probabilities - slow.probabilities)) < 1e-9
    assert speedup >= REQUIRED_EXPM_SPEEDUP, (
        f"uniform-grid expm only {speedup:.1f}x faster than per-time expm "
        f"(required {REQUIRED_EXPM_SPEEDUP:g}x)"
    )


def test_transient_expm_bench(benchmark):
    """Timing record: the uniform-grid expm path over a ten-year grid."""
    result = benchmark(transient_distribution_expm, CHAIN, TRANSIENT_TIMES)
    assert result.probabilities.shape == (TRANSIENT_TIMES.size, CHAIN.n_states)


def test_transient_uniformization_bench(benchmark):
    """Timing record: uniformization with the shared DTMC power sequence.

    One year of grid (the truncation point grows with ``Lambda * t``, and a
    full ten-year horizon at the fail-over chain's uniformization rate
    needs more terms than the method's ceiling — a pre-existing envelope,
    not a property of the power-sequence reuse).
    """
    times = np.linspace(0.0, 8760.0, 100)[1:]
    result = benchmark(transient_distribution_uniformization, CHAIN, times)
    assert result.probabilities.shape == (times.size, CHAIN.n_states)
