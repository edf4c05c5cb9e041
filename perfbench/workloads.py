"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every op calls only the public entry points users call
(``evaluation.evaluate``, ``evaluation.evaluate_stacked``,
``sweep.sweep`` and ``sweep.sweep_grid``), looked up on their modules at
call time so the traced run's wrappers see them.  Options a workload does
not name (kernel, transport, pool kind) keep the library defaults.

Inputs are a pure function of ``(workload, seed, op index)``: re-running an
op index regenerates the same hep draws, grid jitter and Monte Carlo master
seed, which is what the bit-for-bit reproduction check relies on.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Optional

from repro.core import evaluation
from repro.core.parameters import paper_parameters
from repro.core.policies.erasure import erasure_policy
from repro.storage.raid import RaidGeometry

# ``repro.core`` re-exports the ``sweep`` function under the module's name.
sweep = importlib.import_module("repro.core.sweep")

#: Monte Carlo estimates fail their check when the analytical value lies
#: further than this many standard errors away.  Not the nominal 99 %
#: interval: its 1 % misses would count as failures on a fresh seed.
BAND_STANDARD_ERRORS = 6.0

#: Critical value of the library's default 99 % intervals (Student-t with
#: at least 10k lifetimes is normal to four digits).
_Z99 = NormalDist().inv_cdf(0.995)

#: Tolerance of an analytical sweep point against a direct ``evaluate``.
ANALYTICAL_TOLERANCE = 1e-12

POINT_LIFETIMES = 2_000_000
POINT_POLICIES = ("conventional", "automatic_failover")

GRID_HEPS = 16
GRID_RATES = 8
GRID_LIFETIMES = 10_000
GRID_WORKERS = 2

RARE_RATES = (5e-8, 1e-7)
RARE_FIRST_ROUND = 200_000
RARE_CEILING = 2_000_000
RARE_BIASING = 50.0
RARE_TARGET = 5e-11

ANALYTICAL_GRID = 100
ERASURE_HEPS = 200


@dataclass
class Check:
    """Outcome of one op's output check."""

    ok: bool
    zero_event_points: int = 0
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what an op does and how its output is judged."""

    name: str
    workers: int
    cycle: int
    inputs: Callable[[random.Random, int], Dict]
    run: Callable[["Context", Dict], object]
    check: Callable[[Dict, object], Check]
    digest: Callable[[object], str]
    points: Callable[[object], int]
    lifetimes: Callable[[object], int]


@dataclass
class Context:
    """Per-process state the ops share: the reused pool and a journal dir."""

    pool: Optional[object] = None
    journal_path: Optional[Callable[[], str]] = None


def op_inputs(workload: Workload, seed: int, index: int) -> Dict:
    """Return the inputs of op ``index`` of a run seeded with ``seed``."""
    return workload.inputs(random.Random(f"{workload.name}:{seed}:{index}"), index)


def _hash(values) -> str:
    text = ",".join(float(v).hex() if v is not None else "none" for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _log_grid(rng: random.Random, low: float, high: float, n: int) -> List[float]:
    """``n`` log-spaced values in ``[low, high]``; interior ones jittered.

    The endpoints stay fixed so the cheapest and the most expensive corner
    of every surface is the same on every seed.
    """
    step = (high - low) / (n - 1)
    values = []
    for i in range(n):
        exponent = low + i * step
        if 0 < i < n - 1:
            exponent += rng.uniform(-0.25, 0.25) * step
        values.append(10.0**exponent)
    return values


def _band_check(items) -> Check:
    """Judge ``(unavailability, half_width, analytical unavailability)``.

    A degenerate zero-width interval (no event in any lifetime, the known
    ``[1, 1]`` interval) is counted, not failed.  Otherwise the analytical
    value must lie within several standard errors of the estimate; the band
    is never narrower than the analytical unavailability itself, because an
    importance-sampled interval built from a handful of weighted events can
    be far too narrow.
    """
    zero = 0
    for u_mc, half_width, u_an in items:
        if half_width == 0.0:
            zero += 1
            continue
        band = max(BAND_STANDARD_ERRORS * half_width / _Z99, u_an)
        if not abs(u_mc - u_an) <= band:
            return Check(
                False, zero, f"estimate {u_mc:.3e} vs analytical {u_an:.3e} (band {band:.2e})"
            )
    return Check(True, zero)


# ----------------------------------------------------------------------
# mc_point: one Monte Carlo evaluate at the paper's point
# ----------------------------------------------------------------------
def _point_inputs(rng: random.Random, index: int) -> Dict:
    return {
        "policy": POINT_POLICIES[index % len(POINT_POLICIES)],
        "hep": 10.0 ** rng.uniform(-4.0, -2.0),
        "seed": rng.getrandbits(32),
    }


def _point_params(inputs: Dict):
    return paper_parameters(disk_failure_rate=1e-6, hep=inputs["hep"])


def _point_run(ctx: Context, inputs: Dict):
    return evaluation.evaluate(
        _point_params(inputs),
        inputs["policy"],
        backend="monte_carlo",
        n_iterations=POINT_LIFETIMES,
        seed=inputs["seed"],
    )


def _point_check(inputs: Dict, estimate) -> Check:
    analytical = evaluation.evaluate(
        _point_params(inputs), inputs["policy"], backend="analytical"
    )
    return _band_check(
        [(estimate.unavailability, estimate.half_width, analytical.unavailability)]
    )


def _estimate_digest(estimates) -> str:
    return _hash(
        value
        for e in estimates
        for value in (e.availability, e.ci_lower, e.ci_upper, e.n_iterations)
    )


MC_POINT = Workload(
    name="mc_point",
    workers=1,
    cycle=len(POINT_POLICIES),
    inputs=_point_inputs,
    run=_point_run,
    check=_point_check,
    digest=lambda estimate: _estimate_digest([estimate]),
    points=lambda estimate: 1,
    lifetimes=lambda estimate: int(estimate.n_iterations),
)


# ----------------------------------------------------------------------
# mc_grid: a stacked Fig. 5 surface on the shared 2-worker pool
# ----------------------------------------------------------------------
def _grid_inputs(rng: random.Random, index: int) -> Dict:
    return {
        "heps": _log_grid(rng, -4.0, -2.0, GRID_HEPS),
        "rates": _log_grid(rng, -7.0, -4.0, GRID_RATES),
        "seed": rng.getrandbits(32),
    }


_GRID_BASE = paper_parameters()


def _grid_run(ctx: Context, inputs: Dict):
    return sweep.sweep_grid(
        _GRID_BASE,
        "hep",
        inputs["heps"],
        "failure_rate",
        inputs["rates"],
        policy="conventional",
        backend="monte_carlo",
        mc_iterations=GRID_LIFETIMES,
        seed=inputs["seed"],
        workers=GRID_WORKERS,
        pool=ctx.pool,
        checkpoint=ctx.journal_path(),
    )


def _grid_check(inputs: Dict, grid) -> Check:
    analytical = sweep.sweep_grid(
        _GRID_BASE,
        "hep",
        inputs["heps"],
        "failure_rate",
        inputs["rates"],
        policy="conventional",
        backend="analytical",
    )
    return _band_check(
        (point.unavailability, 0.5 * (point.ci_upper - point.ci_lower), truth.unavailability)
        for row, truth_row in zip(grid.points, analytical.points)
        for point, truth in zip(row, truth_row)
    )


MC_GRID = Workload(
    name="mc_grid",
    workers=GRID_WORKERS,
    cycle=1,
    inputs=_grid_inputs,
    run=_grid_run,
    check=_grid_check,
    digest=lambda grid: _hash(
        value
        for row in grid.points
        for point in row
        for value in (point.availability, point.ci_lower, point.ci_upper)
    ),
    points=lambda grid: GRID_HEPS * GRID_RATES,
    lifetimes=lambda grid: GRID_HEPS * GRID_RATES * GRID_LIFETIMES,
)


# ----------------------------------------------------------------------
# rare_event: importance-sampled, CI-width-allocated time to accuracy
# ----------------------------------------------------------------------
_RARE_POINTS = [paper_parameters(disk_failure_rate=rate, hep=0.0) for rate in RARE_RATES]


def _rare_inputs(rng: random.Random, index: int) -> Dict:
    return {"seed": rng.getrandbits(32)}


def _rare_run(ctx: Context, inputs: Dict):
    return evaluation.evaluate_stacked(
        _RARE_POINTS,
        "conventional",
        n_iterations=RARE_FIRST_ROUND,
        max_iterations=RARE_CEILING,
        biasing=RARE_BIASING,
        allocator="ci_width",
        target_half_width=RARE_TARGET,
        seed=inputs["seed"],
        workers=GRID_WORKERS,
        pool=ctx.pool,
    )


def _rare_check(inputs: Dict, estimates) -> Check:
    for estimate in estimates:
        if not estimate.half_width <= RARE_TARGET:
            return Check(False, 0, f"half-width {estimate.half_width:.2e} above target")
    return _band_check(
        (e.unavailability, e.half_width, 1.0 - e.analytical_reference) for e in estimates
    )


RARE_EVENT = Workload(
    name="rare_event",
    workers=GRID_WORKERS,
    cycle=1,
    inputs=_rare_inputs,
    run=_rare_run,
    check=_rare_check,
    digest=_estimate_digest,
    points=len,
    lifetimes=lambda estimates: sum(int(e.n_iterations) for e in estimates),
)


# ----------------------------------------------------------------------
# analytical: template-cache grids plus a checker-cycle sweep, no Monte Carlo
# ----------------------------------------------------------------------
_ERASURE = erasure_policy(3, 10, repair_threshold=8)
_ERASURE_BASE = paper_parameters(geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=1e-6)
_GRID_POLICIES = ("conventional", "automatic_failover")


def _analytical_inputs(rng: random.Random, index: int) -> Dict:
    return {
        "heps": _log_grid(rng, -4.0, -1.0, ANALYTICAL_GRID),
        "rates": _log_grid(rng, -7.0, -4.0, ANALYTICAL_GRID),
        "erasure_heps": _log_grid(rng, -4.0, -1.0, ERASURE_HEPS),
        "probes": [rng.randrange(ANALYTICAL_GRID) for _ in range(4)]
        + [rng.randrange(ERASURE_HEPS)],
    }


def _analytical_run(ctx: Context, inputs: Dict):
    grids = [
        sweep.sweep_grid(
            _GRID_BASE,
            "hep",
            inputs["heps"],
            "failure_rate",
            inputs["rates"],
            policy=policy,
            backend="analytical",
        )
        for policy in _GRID_POLICIES
    ]
    erasure = sweep.sweep(
        _ERASURE_BASE, "hep", inputs["erasure_heps"], policy=_ERASURE, backend="analytical"
    )
    return grids, erasure


def _analytical_check(inputs: Dict, output) -> Check:
    grids, erasure = output
    values = [p.availability for g in grids for row in g.points for p in row]
    values += [p.availability for p in erasure]
    if not all(0.0 <= v <= 1.0 for v in values):
        return Check(False, 0, "availability outside [0, 1]")
    i, j, k, m, e = inputs["probes"]
    probes = [
        (grids[0].points[i][j].availability, _GRID_POLICIES[0], inputs["heps"][i], inputs["rates"][j]),
        (grids[1].points[k][m].availability, _GRID_POLICIES[1], inputs["heps"][k], inputs["rates"][m]),
    ]
    for swept, policy, hep, rate in probes:
        params = paper_parameters(disk_failure_rate=rate, hep=hep)
        direct = evaluation.evaluate(params, policy, backend="analytical").availability
        if not abs(swept - direct) <= ANALYTICAL_TOLERANCE:
            return Check(False, 0, f"{policy} sweep point {swept!r} != evaluate {direct!r}")
    direct = evaluation.evaluate(
        _ERASURE_BASE.with_hep(inputs["erasure_heps"][e]), _ERASURE, backend="analytical"
    ).availability
    if not abs(erasure[e].availability - direct) <= ANALYTICAL_TOLERANCE:
        return Check(False, 0, f"erasure sweep point != evaluate {direct!r}")
    return Check(True)


ANALYTICAL = Workload(
    name="analytical",
    workers=1,
    cycle=1,
    inputs=_analytical_inputs,
    run=_analytical_run,
    check=_analytical_check,
    digest=lambda output: _hash(
        [p.availability for g in output[0] for row in g.points for p in row]
        + [p.availability for p in output[1]]
    ),
    points=lambda output: len(_GRID_POLICIES) * ANALYTICAL_GRID**2 + ERASURE_HEPS,
    lifetimes=lambda output: 0,
)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (MC_POINT, MC_GRID, RARE_EVENT, ANALYTICAL)
}
