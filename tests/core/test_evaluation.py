"""Unit tests for the backend-agnostic evaluation API."""

from __future__ import annotations

import pytest

from repro.core.evaluation import (
    AvailabilityEstimate,
    analytical_policies,
    analytical_result,
    chain_template,
    clear_template_cache,
    evaluate,
)
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy, hot_spare_policy
from repro.exceptions import ConfigurationError
from repro.human.policy import PolicyKind
from repro.markov.metrics import steady_state_availability

FAST_PARAMS = paper_parameters(disk_failure_rate=1e-4, hep=0.05)


def _legacy_solve(params, policy_name):
    """Pre-refactor reference: build the chain fresh and solve dense."""
    return steady_state_availability(
        get_policy(policy_name).build_chain(params), method="dense"
    )


class TestAnalyticalBackend:
    @pytest.mark.parametrize("policy", ["baseline", "conventional", "automatic_failover"])
    @pytest.mark.parametrize("hep", [0.0, 0.001, 0.01])
    @pytest.mark.parametrize("rate", [1e-7, 1e-6, 1e-5])
    def test_matches_per_point_rebuild(self, policy, hep, rate):
        params = paper_parameters(disk_failure_rate=rate, hep=hep)
        legacy = _legacy_solve(params, policy)
        estimate = evaluate(params, policy=policy, backend="analytical")
        assert estimate.availability == pytest.approx(legacy.availability, abs=1e-12)
        assert estimate.nines == pytest.approx(legacy.nines, abs=1e-9)
        assert estimate.backend == "analytical"
        assert estimate.ci_lower is None and not estimate.has_interval

    def test_provenance_names_solver_and_states(self):
        estimate = evaluate(paper_parameters(hep=0.01), "automatic_failover", "analytical")
        assert estimate.provenance == "solver=dense states=12"

    def test_state_probabilities_attached(self):
        estimate = evaluate(paper_parameters(hep=0.01), "conventional", "analytical")
        assert set(estimate.state_probabilities) == {"OP", "EXP", "DU", "DL"}
        assert sum(estimate.state_probabilities.values()) == pytest.approx(1.0)

    def test_analytical_result_full_summary(self):
        params = paper_parameters(hep=0.01)
        result = analytical_result(params, "conventional")
        legacy = _legacy_solve(params, "conventional")
        assert result.availability == legacy.availability
        assert result.state_probabilities == legacy.state_probabilities
        assert result.up_states == legacy.up_states

    def test_policykind_accepted_as_policy(self):
        params = paper_parameters(hep=0.01)
        by_name = evaluate(params, "conventional", "analytical")
        by_policy_kind = evaluate(params, PolicyKind.CONVENTIONAL, "analytical")
        assert by_policy_kind.availability == by_name.availability

    def test_chainless_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate(FAST_PARAMS, hot_spare_policy(3), backend="analytical")

    def test_contains_requires_interval(self):
        estimate = evaluate(paper_parameters(hep=0.01), "conventional", "analytical")
        with pytest.raises(ConfigurationError):
            estimate.contains(0.5)

    def test_template_cache_shared_across_calls(self):
        clear_template_cache()
        params = paper_parameters(hep=0.01)
        first = chain_template("conventional", params)
        second = chain_template("conventional", params.with_hep(0.25))
        assert first is second
        # hep = 0 selects the structurally reduced template.
        reduced = chain_template("conventional", params.with_hep(0.0))
        assert reduced is not first
        assert "DU" not in reduced.state_names

    def test_analytical_policies_lists_dual_face_policies(self):
        names = analytical_policies()
        assert {"baseline", "conventional", "automatic_failover"} <= set(names)
        assert "hot_spare_pool" not in names


class TestTemplateCacheBound:
    """The process-wide template cache is LRU-bounded and observable."""

    def teardown_method(self):
        from repro.core.evaluation import (
            DEFAULT_TEMPLATE_CACHE_SIZE,
            set_template_cache_size,
        )

        set_template_cache_size(DEFAULT_TEMPLATE_CACHE_SIZE)
        clear_template_cache()

    def test_stats_track_hits_and_misses(self):
        from repro.core.evaluation import template_cache_stats

        clear_template_cache()
        params = paper_parameters(hep=0.01)
        chain_template("conventional", params)
        chain_template("conventional", params.with_hep(0.25))
        stats = template_cache_stats()
        assert stats["size"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["maxsize"] >= 1

    def test_lru_evicts_least_recently_used_geometry(self):
        from repro.core.evaluation import set_template_cache_size, template_cache_stats
        from repro.storage.raid import RaidGeometry

        clear_template_cache()
        set_template_cache_size(2)
        small = paper_parameters(geometry=RaidGeometry.raid5(3), hep=0.01)
        wide = paper_parameters(geometry=RaidGeometry.raid5(7), hep=0.01)
        mirror = paper_parameters(geometry=RaidGeometry.raid1(), hep=0.01)
        first = chain_template("conventional", small)
        chain_template("conventional", wide)
        chain_template("conventional", small)  # refresh: small is now MRU
        chain_template("conventional", mirror)  # evicts wide, not small
        assert template_cache_stats()["evictions"] == 1
        assert chain_template("conventional", small) is first
        # wide was evicted: asking again rebuilds (a fresh object).
        stats_before = template_cache_stats()["misses"]
        chain_template("conventional", wide)
        assert template_cache_stats()["misses"] == stats_before + 1

    def test_shrinking_the_bound_evicts_immediately(self):
        from repro.core.evaluation import set_template_cache_size, template_cache_stats
        from repro.storage.raid import RaidGeometry

        clear_template_cache()
        for data_disks in (2, 3, 4):
            chain_template(
                "conventional",
                paper_parameters(geometry=RaidGeometry.raid5(data_disks), hep=0.01),
            )
        assert template_cache_stats()["size"] == 3
        set_template_cache_size(1)
        assert template_cache_stats()["size"] == 1
        with pytest.raises(ConfigurationError):
            set_template_cache_size(0)

    def test_clear_resets_counters(self):
        from repro.core.evaluation import template_cache_stats

        chain_template("conventional", paper_parameters(hep=0.01))
        clear_template_cache()
        stats = template_cache_stats()
        assert stats["size"] == 0
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0


class TestMonteCarloBackend:
    def test_interval_and_provenance(self):
        estimate = evaluate(
            FAST_PARAMS, "conventional", backend="monte_carlo",
            n_iterations=800, seed=3,
        )
        assert estimate.backend == "monte_carlo"
        assert estimate.provenance == "executor=sharded(1 worker)"
        assert estimate.has_interval
        assert estimate.ci_lower <= estimate.availability <= estimate.ci_upper
        assert estimate.contains(estimate.availability)
        assert estimate.n_iterations == 800
        assert estimate.half_width > 0.0

    def test_sharded_provenance(self):
        estimate = evaluate(
            FAST_PARAMS, "conventional", backend="monte_carlo",
            n_iterations=600, seed=3, shard_size=200,
        )
        assert estimate.provenance == "executor=sharded(1 worker)"

    def test_auto_prefers_analytical_when_available(self):
        assert evaluate(FAST_PARAMS, "conventional", "auto").backend == "analytical"

    def test_auto_falls_back_to_monte_carlo(self):
        estimate = evaluate(
            FAST_PARAMS, hot_spare_policy(2), backend="auto",
            n_iterations=400, seed=5,
        )
        assert estimate.backend == "monte_carlo"
        assert estimate.has_interval

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate(FAST_PARAMS, "conventional", backend="quantum")

    def test_as_dict_round_trip(self):
        estimate = evaluate(
            FAST_PARAMS, "conventional", backend="monte_carlo",
            n_iterations=400, seed=5,
        )
        payload = estimate.as_dict()
        assert payload["backend"] == "monte_carlo"
        assert {"ci_lower", "ci_upper", "confidence", "n_iterations"} <= set(payload)
        analytical = evaluate(FAST_PARAMS, "conventional", "analytical").as_dict()
        assert "ci_lower" not in analytical


class TestCrossBackendConsistency:
    """Satellite: analytical availability within the sharded-MC 99% half-width."""

    @pytest.mark.parametrize("policy", ["baseline", "conventional", "automatic_failover"])
    def test_analytical_within_sharded_mc_interval(self, policy):
        analytical = evaluate(FAST_PARAMS, policy, backend="analytical")
        mc = evaluate(
            FAST_PARAMS, policy, backend="monte_carlo",
            n_iterations=6000, seed=0, confidence=0.99, shard_size=1500,
        )
        assert mc.provenance.startswith("executor=sharded")
        assert abs(mc.availability - analytical.availability) <= mc.half_width, (
            f"{policy}: analytical {analytical.availability} outside "
            f"[{mc.ci_lower}, {mc.ci_upper}]"
        )


class TestModelKindRetired:
    def test_shim_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.models.generic  # noqa: F401

    def test_shim_names_not_exported(self):
        import repro
        import repro.core
        import repro.core.models

        for module in (repro, repro.core, repro.core.models):
            for name in ("ModelKind", "solve_model", "build_chain", "ModelDescriptor"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_registry_route_replaces_solve_model(self):
        params = paper_parameters(hep=0.01)
        assert analytical_result(params, "conventional").availability == (
            _legacy_solve(params, "conventional").availability
        )
