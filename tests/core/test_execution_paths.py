"""Tests for how a single-process Monte Carlo run picks its simulator.

Every policy has one batch kernel and one scalar per-lifetime loop, and
no option chooses between them: the scalar loop runs for event traces and
for policies without a batch kernel, the batch kernel in every other case.
The two samplers draw differently, so across them the contract is
statistical — at a fixed operating point their intervals must agree.
"""

from __future__ import annotations

import pytest

from repro.core.montecarlo import (
    MonteCarloConfig,
    run_batch,
    run_monte_carlo,
    run_monte_carlo_with_trace,
)
from repro.core.montecarlo.runner import _executor_provenance
from repro.core.parameters import paper_parameters
from repro.core.policies import SimulationPolicy, available_policies, resolve_policy
from repro.storage.raid import RaidGeometry

#: Event-rich operating point: every registered policy sees downtime within
#: a few hundred lifetimes, so a path that ran the wrong simulator shows.
STRESS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 20_000.0

POLICIES = sorted(available_policies())


def _config(policy, n=300, seed=3, params=STRESS, **overrides) -> MonteCarloConfig:
    return MonteCarloConfig(
        params=params,
        policy=policy,
        n_iterations=n,
        horizon_hours=HORIZON,
        seed=seed,
        **overrides,
    )


def _scalar_only(name: str) -> SimulationPolicy:
    """The registered policy ``name`` stripped down to its scalar loop."""
    return SimulationPolicy(
        name=f"{name}_scalar_only",
        description="registered scalar loop without its batch kernel",
        scalar=resolve_policy(name).scalar,
    )


def _assert_same_numbers(a, b):
    assert a.availability == b.availability
    assert a.interval.lower == b.interval.lower
    assert a.interval.upper == b.interval.upper
    assert a.n_iterations == b.n_iterations
    assert a.totals == b.totals


class TestPathSelection:
    @pytest.mark.parametrize("name", POLICIES)
    def test_default_run_is_the_batch_kernel(self, name):
        config = _config(name)
        assert _executor_provenance(config) == "batch"
        result = run_monte_carlo(config)
        _assert_same_numbers(result, run_batch(config))
        # ...and not the scalar loop, which draws differently.
        assert result.availability != run_monte_carlo_with_trace(config)[0].availability

    @pytest.mark.parametrize("name", POLICIES)
    def test_trace_collection_runs_the_scalar_loop(self, name):
        config = _config(name, collect_trace=True)
        assert _executor_provenance(config) == "scalar"
        reference, trace = run_monte_carlo_with_trace(config)
        _assert_same_numbers(run_monte_carlo(config), reference)
        assert trace.records

    @pytest.mark.parametrize("name", POLICIES)
    def test_policy_without_batch_kernel_runs_the_scalar_loop(self, name):
        # A policy without a batch kernel falls back to its scalar loop —
        # the very loop that serves as the registered policy's reference.
        config = _config(_scalar_only(name))
        assert _executor_provenance(config) == "scalar"
        reference = run_monte_carlo_with_trace(_config(name))[0]
        _assert_same_numbers(run_monte_carlo(config), reference)


class TestSamplersAgree:
    """The batch kernel agrees with the scalar reference within joint CI width."""

    GEOMETRIES = {
        "raid5_3": RaidGeometry.raid5(3),
        "raid6_4": RaidGeometry.raid6(4),
        "raid5_7": RaidGeometry.raid5(7),
    }

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", POLICIES)
    def test_batch_interval_overlaps_scalar_reference(self, name, geometry):
        params = paper_parameters(
            geometry=self.GEOMETRIES[geometry], disk_failure_rate=1e-4, hep=0.05
        )
        batch = run_batch(_config(name, n=900, seed=5, params=params))
        reference = run_monte_carlo_with_trace(
            _config(name, n=900, seed=17, params=params)
        )[0]
        assert batch.unavailability > 0.0
        assert reference.unavailability > 0.0
        assert abs(batch.availability - reference.availability) <= (
            batch.interval.half_width + reference.interval.half_width
        )
