"""Transient (time-dependent) analysis of continuous-time Markov chains.

Steady-state availability is the paper's headline metric, but transient
analysis answers the operational questions a storage administrator actually
asks: "what is the probability my array is down at the end of the first
year?", "what is the expected downtime accumulated over a five-year service
life?".  Two methods are provided:

* matrix exponential (``scipy.linalg.expm``) — exact up to floating point,
  fine for the small chains in this package;
* uniformization (Jensen's method) — numerically robust truncated Poisson
  mixture of DTMC powers, with an explicit error bound.

Both methods share their expensive pieces across the whole time grid
instead of recomputing them per point: a **uniform** grid computes
``expm(Q * dt)`` once and propagates by repeated vector-matrix products
(the semigroup property ``p(t + dt) = p(t) expm(Q dt)``), and
uniformization grows one truncated DTMC power sequence ``p0 @ P^k`` that
every grid time reuses — see ``benchmarks/bench_markov_solvers.py`` for the
resulting speedups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.markov.chain import MarkovChain

#: Trapezoidal integration helper; ``numpy.trapz`` was renamed in NumPy 2.0.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class TransientResult:
    """State probabilities over a time grid.

    Attributes
    ----------
    times:
        Time grid in hours.
    probabilities:
        Array of shape ``(len(times), n_states)``; row ``k`` is the state
        distribution at ``times[k]``.
    state_names:
        Column labels for ``probabilities``.
    """

    times: np.ndarray
    probabilities: np.ndarray
    state_names: tuple

    def probability_of(self, state: str) -> np.ndarray:
        """Return the probability trajectory of a single state."""
        try:
            idx = self.state_names.index(state)
        except ValueError:
            raise SolverError(f"unknown state {state!r}") from None
        return self.probabilities[:, idx]

    def availability(self, up_mask: Sequence[bool]) -> np.ndarray:
        """Return point availability over time given an up-state mask."""
        mask = np.asarray(list(up_mask), dtype=bool)
        if mask.size != self.probabilities.shape[1]:
            raise SolverError("up mask length does not match the number of states")
        return self.probabilities[:, mask].sum(axis=1)

    def expected_downtime_hours(self, up_mask: Sequence[bool]) -> float:
        """Return expected cumulative downtime over the grid (trapezoidal)."""
        avail = self.availability(up_mask)
        unavail = 1.0 - avail
        return float(_trapezoid(unavail, self.times))


def _initial_vector(chain: MarkovChain, initial_state: Optional[str]) -> np.ndarray:
    p0 = np.zeros(chain.n_states)
    start = initial_state or chain.state_names[0]
    p0[chain.index_of(start)] = 1.0
    return p0


def _is_uniform_grid(times_arr: np.ndarray) -> bool:
    """Return whether the grid has a constant positive spacing."""
    if times_arr.size < 2:
        return False
    steps = np.diff(times_arr)
    if steps[0] <= 0.0:
        return False
    return bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0))


def transient_distribution_expm(
    chain: MarkovChain,
    times: Sequence[float],
    initial_state: Optional[str] = None,
    uniform_grid: Optional[bool] = None,
) -> TransientResult:
    """Compute ``p(t) = p(0) expm(Q t)`` on a grid of times (hours).

    On a uniformly spaced grid the matrix exponential is computed **once**
    for the step ``dt`` and the distribution is propagated by repeated
    vector-matrix products (``p(t + dt) = p(t) expm(Q dt)``), instead of
    re-running ``scipy.linalg.expm`` per grid time.  ``uniform_grid=None``
    auto-detects the spacing; pass ``False`` to force the per-time
    reference path (used by the benchmarks and equivalence tests).
    """
    # Imported here, not at module level, so Monte Carlo runs start without scipy.
    from scipy import linalg

    times_arr = np.asarray(list(times), dtype=float)
    if times_arr.size == 0:
        raise SolverError("transient analysis requires at least one time point")
    if np.any(times_arr < 0.0):
        raise SolverError("transient analysis times must be non-negative")
    q = chain.generator_matrix()
    p0 = _initial_vector(chain, initial_state)
    rows = np.empty((times_arr.size, chain.n_states))
    if uniform_grid is None:
        uniform_grid = _is_uniform_grid(times_arr)
    if uniform_grid and not _is_uniform_grid(times_arr):
        raise SolverError("uniform_grid=True requires a uniformly spaced time grid")
    if uniform_grid:
        transfer = linalg.expm(q * float(times_arr[1] - times_arr[0]))
        vec = p0 if times_arr[0] == 0.0 else p0 @ linalg.expm(q * times_arr[0])
        rows[0] = vec
        for k in range(1, times_arr.size):
            vec = vec @ transfer
            rows[k] = vec
    else:
        for k, t in enumerate(times_arr):
            rows[k] = p0 @ linalg.expm(q * t)
    rows = np.clip(rows, 0.0, 1.0)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return TransientResult(times=times_arr, probabilities=rows, state_names=chain.state_names)


def transient_distribution_uniformization(
    chain: MarkovChain,
    times: Sequence[float],
    initial_state: Optional[str] = None,
    tolerance: float = 1e-12,
    max_terms: int = 100_000,
) -> TransientResult:
    """Jensen uniformization: ``p(t) = sum_k Pois(k; Lambda t) p(0) P^k``.

    The Poisson series is truncated once the accumulated mass exceeds
    ``1 - tolerance``, giving an explicit bound on the truncation error.
    The truncated DTMC power sequence ``p0 @ P^k`` is built once and shared
    by every grid time (the vectors do not depend on ``t``, only the
    Poisson weights do), so each power is one vector-matrix product for the
    whole grid instead of one per time.
    """
    times_arr = np.asarray(list(times), dtype=float)
    if times_arr.size == 0:
        raise SolverError("transient analysis requires at least one time point")
    if np.any(times_arr < 0.0):
        raise SolverError("transient analysis times must be non-negative")
    p_matrix, lam = chain.uniformized_dtmc()
    p0 = _initial_vector(chain, initial_state)
    rows = np.empty((times_arr.size, chain.n_states))
    # Shared power sequence: powers[k] is p0 @ P^k, grown on demand by the
    # largest truncation point any time in the grid needs.
    powers = [p0]

    def _power(k: int) -> np.ndarray:
        while len(powers) <= k:
            powers.append(powers[-1] @ p_matrix)
        return powers[k]

    for idx, t in enumerate(times_arr):
        if t == 0.0 or lam == 0.0:
            rows[idx] = p0
            continue
        rate = lam * t
        # Poisson weights computed iteratively in log space for stability.
        log_weight = -rate  # log P(N = 0)
        weight = math.exp(log_weight)
        acc = weight * p0
        cumulative = weight
        k = 0
        while cumulative < 1.0 - tolerance:
            k += 1
            if k > max_terms:
                raise SolverError(
                    f"uniformization did not converge within {max_terms} terms "
                    f"(Lambda*t = {rate:.3e})"
                )
            log_weight += math.log(rate) - math.log(k)
            weight = math.exp(log_weight)
            acc = acc + weight * _power(k)
            cumulative += weight
            # Right-truncation guard: past the Poisson mode the weights decay
            # at least geometrically with ratio rate / (k + 1), so the whole
            # remaining tail is bounded by weight * q / (1 - q).  Rounding in
            # the accumulated ``cumulative`` can leave it stranded a few ulps
            # below 1 - tolerance, which would otherwise loop to max_terms.
            if k + 1 > rate:
                ratio = rate / (k + 1)
                if weight * ratio / (1.0 - ratio) < tolerance:
                    break
        rows[idx] = acc / cumulative
    rows = np.clip(rows, 0.0, 1.0)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return TransientResult(times=times_arr, probabilities=rows, state_names=chain.state_names)


def point_availability(
    chain: MarkovChain,
    times: Sequence[float],
    initial_state: Optional[str] = None,
    method: str = "uniformization",
) -> Dict[str, np.ndarray]:
    """Return ``{"times", "availability"}`` for the chain's up states."""
    if method == "expm":
        result = transient_distribution_expm(chain, times, initial_state)
    elif method == "uniformization":
        result = transient_distribution_uniformization(chain, times, initial_state)
    else:
        raise SolverError(f"unknown transient method {method!r}")
    mask = chain.up_mask()
    return {"times": result.times, "availability": result.availability(mask)}


def interval_availability(
    chain: MarkovChain,
    horizon_hours: float,
    n_points: int = 200,
    initial_state: Optional[str] = None,
) -> float:
    """Return the expected fraction of ``[0, horizon]`` spent in up states."""
    if horizon_hours <= 0.0:
        raise SolverError("horizon must be positive")
    if n_points < 2:
        raise SolverError("interval availability requires at least two grid points")
    times = np.linspace(0.0, float(horizon_hours), int(n_points))
    result = transient_distribution_uniformization(chain, times, initial_state)
    avail = result.availability(chain.up_mask())
    return float(_trapezoid(avail, times) / horizon_hours)
