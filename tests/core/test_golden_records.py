"""Golden records: fixed-seed Monte Carlo outputs pinned to a stored fixture.

Every case below runs a batch kernel or a shard executor at a fixed seed and
summarises what came out; ``golden_records.json`` next to this file holds
those summaries as captured.  The records pin the random experiment itself
— which draws are made, in which order, and what they decide — so a change
to the kernels, the executors or the journal must leave every case as it
is.  Kernel cases call ``policy.batch`` directly and summarise with
``segment_point_records``; executor cases run ``run_sharded`` and
``run_stacked`` end to end; the digest cases pin the journal's run digest,
which must change together with the fixture, so that a journal written by
a build that drew differently is refused instead of resumed.

How cases are compared: the ``point``/``n`` counts, the final generator
state and the seed entropy must match exactly (the same draws were made);
float fields must match to ``rtol=1e-12``.  Raw bytes are not compared:
numpy may use SIMD ``exp``/``log``/``power`` whose last bit differs between
CPUs, and the biased kernels use all three for the likelihood-ratio
weights.  No branch reads those weights, so the last bit never changes the
event sequence.

Regenerate the fixture only for a change that is meant to alter results::

    PYTHONPATH=src python tests/core/test_golden_records.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    run_sharded,
    run_stacked,
    segment_point_records,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import stack_parameter_points
from repro.core.policies.erasure import erasure_policy
from repro.core.policies.hotspare import hot_spare_policy
from repro.core.policies.registry import resolve_policy
from repro.exceptions import ConfigurationError
from repro.simulation.rng import RandomStreams
from repro.storage.raid import RaidGeometry

FIXTURE = Path(__file__).with_name("golden_records.json")

#: Relative tolerance of every float field.
RTOL = 1e-12

HORIZON = 50_000.0

#: The stacked kernel grid: one geometry, hep and spare-pool size per point.
GEOMETRIES = (RaidGeometry.raid5(3), RaidGeometry.raid1(), RaidGeometry.raid6(4))
STACKED_HEPS = (0.02, 0.05, 0.1)
STACKED_COUNTS = (200, 150, 150)
STACKED_SPARES = (1, 2, 3)
POINT_LIFETIMES = 400

KERNEL_POLICIES = {
    "conventional": resolve_policy("conventional"),
    "baseline": resolve_policy("baseline"),
    "automatic_failover": resolve_policy("automatic_failover"),
    "hot_spare_pool_k3": hot_spare_policy(3),
}
FAILURE_SHAPES = {"exponential": 1.0, "weibull": 1.3}
BIASING = {"unbiased": None, "biased": 8.0}

#: Erasure 3-of-10 with a repair threshold of 8, at a point where shares
#: fail several times per check period.
ERASURE = erasure_policy(3, 10, repair_threshold=8)
ERASURE_BASE = dict(geometry=RaidGeometry.erasure(3, 10), disk_failure_rate=1e-3)

RECORD_FIELDS = (
    "mean", "m2", "w_sum", "w2_sum",
    "downtime_hours", "du_events", "dl_events", "disk_failures", "human_errors",
)


# ----------------------------------------------------------------------
# Kernel cases: policy.batch at a fixed stream, summarised per point
# ----------------------------------------------------------------------
def _kernel_params(grid: str, shape: float):
    """Return ``(params, counts)`` of the scalar point or the stacked grid."""
    if grid == "point":
        params = paper_parameters(disk_failure_rate=1e-4, hep=0.05, failure_shape=shape)
        return params, [POINT_LIFETIMES]
    points = [
        paper_parameters(
            geometry=geometry, disk_failure_rate=1e-4, hep=hep, failure_shape=shape
        )
        for geometry, hep in zip(GEOMETRIES, STACKED_HEPS)
    ]
    grid_params = stack_parameter_points(points, STACKED_COUNTS, n_spares=STACKED_SPARES)
    return grid_params, list(STACKED_COUNTS)


def _erasure_params(grid: str):
    if grid == "point":
        return paper_parameters(hep=0.1, **ERASURE_BASE), [POINT_LIFETIMES]
    counts = [300, 200]
    points = [paper_parameters(hep=hep, **ERASURE_BASE) for hep in (0.05, 0.2)]
    return stack_parameter_points(points, counts, schemes=[ERASURE.scheme] * 2), counts


def _run_kernel(policy, params, counts, biasing=None, seed=19):
    rng = RandomStreams(seed).stream("montecarlo")
    kwargs = {} if biasing is None else {"biasing": biasing}
    batch = policy.batch(params, HORIZON, sum(counts), rng, **kwargs)
    records = segment_point_records(batch, range(len(counts)), counts)
    return records, rng.bit_generator.state


def _kernel_cases() -> Dict[str, Callable[[], Tuple[np.ndarray, dict]]]:
    cases: Dict[str, Callable[[], Tuple[np.ndarray, dict]]] = {}
    for name, policy in KERNEL_POLICIES.items():
        for grid in ("point", "stacked"):
            for law, shape in FAILURE_SHAPES.items():
                for label, biasing in BIASING.items():
                    cases[f"{name}-{grid}-{law}-{label}"] = (
                        lambda p=policy, g=grid, s=shape, b=biasing: _run_kernel(
                            p, *_kernel_params(g, s), biasing=b
                        )
                    )
    for grid in ("point", "stacked"):
        cases[f"erasure_3of10-{grid}"] = lambda g=grid: _run_kernel(
            ERASURE, *_erasure_params(g)
        )
    return cases


KERNEL_CASES = _kernel_cases()


def _stacked_kernel_cases() -> Dict[str, tuple]:
    """Return ``(policy, grid builder, biasing)`` of every stacked kernel case."""
    cases: Dict[str, tuple] = {}
    for name, policy in KERNEL_POLICIES.items():
        for law, shape in FAILURE_SHAPES.items():
            for label, biasing in BIASING.items():
                cases[f"{name}-stacked-{law}-{label}"] = (
                    policy, lambda s=shape: _kernel_params("stacked", s), biasing
                )
    cases["erasure_3of10-stacked"] = (ERASURE, lambda: _erasure_params("stacked"), None)
    return cases


STACKED_KERNEL_CASES = _stacked_kernel_cases()


def _planes(grid) -> Dict[str, np.ndarray]:
    """Return the grid's planes by field name (the optional ones when set)."""
    planes = {field.name: getattr(grid, field.name) for field in dataclasses.fields(grid)}
    return {name: plane for name, plane in planes.items() if plane is not None}


def _materialised(grid):
    """Return ``grid`` with every plane copied into its own contiguous array."""
    return dataclasses.replace(
        grid,
        **{name: np.ascontiguousarray(plane) for name, plane in _planes(grid).items()},
    )


# ----------------------------------------------------------------------
# Executor cases: run_sharded / run_stacked end to end
# ----------------------------------------------------------------------
STRESS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)


def _config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        params=STRESS, policy="conventional", n_iterations=600,
        horizon_hours=HORIZON, seed=7,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


def _grid(heps=STACKED_HEPS, n=400, seed=11, **overrides) -> List[MonteCarloConfig]:
    overrides.setdefault("shard_size", 256)
    return [
        _config(
            params=paper_parameters(disk_failure_rate=1e-4, hep=hep),
            n_iterations=n, seed=seed, **overrides,
        )
        for hep in heps
    ]


def _adaptive_grid():
    # The allocator gives the two points different budgets: one runs to
    # the ceiling, the other stops at the target after a few rounds.
    return run_stacked(
        _grid(
            heps=(0.05, 0.1), n=300, workers=2, biasing=3.0,
            target_half_width=5e-9, max_iterations=2400, allocator="ci_width",
        )
    )


def _executor_cases() -> Dict[str, Callable[[], list]]:
    cases: Dict[str, Callable[[], list]] = {}
    for workers in (1, 2):
        cases[f"run_sharded-w{workers}"] = lambda w=workers: [
            run_sharded(_config(shard_size=200, workers=w))
        ]
        for pool in ("process", "thread"):
            for crn in (False, True):
                key = f"run_stacked-w{workers}-{pool}-{'crn' if crn else 'plain'}"
                cases[key] = lambda w=workers, p=pool, c=crn: run_stacked(
                    _grid(workers=w, pool=p), crn=c
                )
    cases["run_stacked-adaptive-biased-ci_width"] = _adaptive_grid
    return cases


EXECUTOR_CASES = _executor_cases()


# ----------------------------------------------------------------------
# Journal run digests
# ----------------------------------------------------------------------
SCALAR_DIGEST = "5ba4e8c5cfb9a9b31e0be24cf8dd4b739959783a0403e8d218630c914cb2d020"
STACKED_DIGEST = "554a76f112233393643d6ccef7900b81643d8438f58213b7bfa43a7190b5db78"

#: The scalar case's digest under journal version 1, whose unbiased
#: exponential conventional runs drew from the clock matrix.
VERSION_1_SCALAR_DIGEST = "b02c3f7ff5594450331c2e4c3b3e06716035decbac77e1381e1dbc9c48f3797d"

#: The scalar case's digest under journal version 2, whose unbiased
#: exponential fail-over and hot-spare-pool runs drew from the clock matrix.
VERSION_2_SCALAR_DIGEST = "076289e012b9c676aaf05eae8b82d380fd4b1211e94286bf5af73cc9660772f4"

#: The scalar case's digest under journal version 3, whose unbiased
#: exponential runs drew a repair window as two clocks and a Bernoulli.
VERSION_3_SCALAR_DIGEST = "ca030f001d0077e8aab0240829edf813f86e9f525e0def7691f0ffe3db20ca7f"

#: The scalar case's digest under journal version 4, whose unbiased
#: exponential runs drew every lifetime's first failure.
VERSION_4_SCALAR_DIGEST = "e2c542179bf08d0b527f18f3161d826c404f2955b734e6d44be9df34ad702149"


def _journal_digest(path: Path) -> str:
    with path.open("r", encoding="utf-8") as handle:
        return json.loads(handle.readline())["digest"]


def _scalar_digest(directory: Path) -> str:
    path = directory / "scalar.jsonl"
    run_sharded(_config(shard_size=200, checkpoint=str(path)))
    return _journal_digest(path)


def _stacked_digest(directory: Path) -> str:
    path = directory / "stacked.jsonl"
    run_stacked(_grid(checkpoint=str(path)))
    return _journal_digest(path)


# ----------------------------------------------------------------------
# Fixture encoding
# ----------------------------------------------------------------------
def _encode_records(records: np.ndarray) -> List[dict]:
    return [
        {
            "point": int(record["point"]),
            "n": int(record["n"]),
            **{name: float(record[name]) for name in RECORD_FIELDS},
        }
        for record in records
    ]


def _encode_result(result) -> dict:
    return {
        "availability": result.availability,
        "lower": result.interval.lower,
        "upper": result.interval.upper,
        "std_error": result.interval.std_error,
        "n_iterations": result.n_iterations,
        "seed_entropy": result.seed_entropy,
        "ess": result.ess,
        "totals": dict(sorted(result.totals.items())),
    }


def capture() -> dict:
    """Run every case and return the fixture contents."""
    kernel = {}
    for name, case in KERNEL_CASES.items():
        records, state = case()
        kernel[name] = {"records": _encode_records(records), "state": state}
    executor = {
        name: [_encode_result(result) for result in case()]
        for name, case in EXECUTOR_CASES.items()
    }
    return {"kernel": kernel, "executor": executor}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _assert_close(got, want, what: str) -> None:
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=what)


def test_fixture_covers_every_case(golden):
    assert set(golden["kernel"]) == set(KERNEL_CASES)
    assert set(golden["executor"]) == set(EXECUTOR_CASES)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_records_match_golden(golden, case):
    want = golden["kernel"][case]
    records, state = KERNEL_CASES[case]()
    assert records["point"].tolist() == [r["point"] for r in want["records"]]
    assert records["n"].tolist() == [r["n"] for r in want["records"]]
    assert state == want["state"], "the kernel consumed a different draw sequence"
    for name in RECORD_FIELDS:
        _assert_close(records[name], [r[name] for r in want["records"]], name)


@pytest.mark.parametrize("case", sorted(EXECUTOR_CASES))
def test_executor_results_match_golden(golden, case):
    want = golden["executor"][case]
    results = EXECUTOR_CASES[case]()
    assert len(results) == len(want)
    for result, expected in zip(results, want):
        got = _encode_result(result)
        assert got["n_iterations"] == expected["n_iterations"]
        assert got["seed_entropy"] == expected["seed_entropy"]
        assert (got["ess"] is None) == (expected["ess"] is None)
        for name in ("availability", "lower", "upper", "std_error", "ess"):
            if expected[name] is not None:
                _assert_close(got[name], expected[name], name)
        assert sorted(got["totals"]) == sorted(expected["totals"])
        for name, value in expected["totals"].items():
            _assert_close(got["totals"][name], value, name)


@pytest.mark.parametrize("case", sorted(STACKED_KERNEL_CASES))
def test_broadcast_planes_draw_exactly_like_materialised_planes(case):
    # Constant planes of a stacked grid are zero-stride broadcast views.
    # The kernels must make the same draws and decisions on them as on
    # contiguous copies: equal to the last bit, not only within RTOL.
    policy, build, biasing = STACKED_KERNEL_CASES[case]
    grid, counts = build()
    assert any(plane.strides == (0,) for plane in _planes(grid).values())
    copy = _materialised(grid)
    assert all(
        plane.strides == (plane.itemsize,) for plane in _planes(copy).values()
    )
    outcomes = []
    for params in (grid, copy):
        rng = RandomStreams(19).stream("montecarlo")
        kwargs = {} if biasing is None else {"biasing": biasing}
        batch = policy.batch(params, HORIZON, sum(counts), rng, **kwargs)
        outcomes.append((batch, rng.bit_generator.state))
    (broadcast, state), (materialised, materialised_state) = outcomes
    assert state == materialised_state
    for field in dataclasses.fields(broadcast):
        got = getattr(broadcast, field.name)
        want = getattr(materialised, field.name)
        if want is None:
            assert got is None, field.name
        else:
            assert np.array_equal(got, want), field.name
    assert (broadcast.log_weights is None) == (biasing is None)


def test_scalar_run_digest_is_stable(tmp_path):
    assert _scalar_digest(tmp_path) == SCALAR_DIGEST


def test_stacked_run_digest_is_stable(tmp_path):
    assert _stacked_digest(tmp_path) == STACKED_DIGEST


def _assert_refused(path: Path, version: int, digest: str) -> None:
    header = {"kind": "header", "version": version, "digest": digest}
    path.write_text(json.dumps(header) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="different run"):
        run_sharded(_config(shard_size=200, resume=str(path)))


def test_version_1_journal_is_refused(tmp_path):
    # The same run under journal version 1 made other draws; splicing its
    # shards into this build's run would mix two experiments.
    _assert_refused(tmp_path / "version1.jsonl", 1, VERSION_1_SCALAR_DIGEST)


def test_version_2_journal_is_refused(tmp_path):
    # Version 2 drew unbiased exponential spare-pool runs from the clock
    # matrix; the run digest carries the version, so its journal is refused.
    _assert_refused(tmp_path / "version2.jsonl", 2, VERSION_2_SCALAR_DIGEST)


def test_version_3_journal_is_refused(tmp_path):
    # Version 3 drew each unbiased exponential repair window from two
    # clocks and a Bernoulli, where version 4 draws one race.
    _assert_refused(tmp_path / "version3.jsonl", 3, VERSION_3_SCALAR_DIGEST)


def test_version_4_journal_is_refused(tmp_path):
    # Version 4 drew every unbiased exponential lifetime's first failure,
    # where version 5 draws one binomial per point segment and the first
    # failures of only the lifetimes it picks.
    _assert_refused(tmp_path / "version4.jsonl", 4, VERSION_4_SCALAR_DIGEST)


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as scratch:
        print("scalar digest: ", _scalar_digest(Path(scratch)))
        print("stacked digest:", _stacked_digest(Path(scratch)))
