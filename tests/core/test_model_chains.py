"""Uniformized chains and first-passage times of the registered Markov models.

The transient solver works on the uniformized DTMC ``P = I + Q / Lambda`` of
each policy's analytical chain, and the MTTDL of a model is the mean time to
absorption in its data-loss states.  These tests check both on the chains
the policy registry actually builds, against closed forms where one exists.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.models import build_baseline_chain, build_conventional_chain
from repro.core.parameters import paper_parameters
from repro.core.policies import resolve_policy
from repro.exceptions import TransitionError
from repro.markov import mean_time_to_failure, stationary_vector, transient_distribution_expm
from repro.storage.raid import RaidGeometry

#: (policy, geometry) pairs covering every analytical face and both fault tolerances.
MODEL_CASES = [
    ("baseline", RaidGeometry.raid5(3)),
    ("baseline", RaidGeometry.raid6(4)),
    ("conventional", RaidGeometry.raid1(2)),
    ("conventional", RaidGeometry.raid5(3)),
    ("automatic_failover", RaidGeometry.raid5(3)),
    ("erasure", RaidGeometry.raid6(4)),
]
MODEL_IDS = [f"{name}-{geometry.label}" for name, geometry in MODEL_CASES]

SINGLE_PARITY = [
    RaidGeometry.raid1(2),
    RaidGeometry.raid5(3),
    RaidGeometry.raid5(4),
    RaidGeometry.raid5(7),
]
DOUBLE_PARITY = [RaidGeometry.raid6(4), RaidGeometry.raid6(6)]
HEPS = [0.001, 0.01, 0.1]


def _label(geometry: RaidGeometry) -> str:
    return geometry.label


def _model_chain(name: str, geometry: RaidGeometry):
    params = paper_parameters(geometry=geometry, disk_failure_rate=1e-4, hep=0.05)
    return resolve_policy(name).build_chain(params)


def _birth_death_mttdl(n_disks: int, fault_tolerance: int, lam: float, mu: float) -> float:
    """Mean time from all-up to data loss of the repair-one-at-a-time chain.

    With ``k`` disks failed the chain moves to ``k + 1`` at ``(n - k) * lam``
    and back to ``k - 1`` at ``mu``, so the mean time to climb one level is
    ``tau_k = (1 + mu * tau_{k-1}) / ((n - k) * lam)``; the MTTDL is the sum
    of ``tau_0 .. tau_f``.
    """
    total, tau = 0.0, 0.0
    for k in range(fault_tolerance + 1):
        tau = (1.0 + (mu * tau if k > 0 else 0.0)) / ((n_disks - k) * lam)
        total += tau
    return total


class TestUniformizedModelChains:
    @pytest.mark.parametrize("name,geometry", MODEL_CASES, ids=MODEL_IDS)
    def test_uniformized_dtmc_is_stochastic(self, name, geometry):
        chain = _model_chain(name, geometry)
        p, lam = chain.uniformized_dtmc()
        assert lam >= max(chain.exit_rate(state) for state in chain.state_names)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name,geometry", MODEL_CASES, ids=MODEL_IDS)
    def test_uniformized_dtmc_keeps_the_ctmc_steady_state(self, name, geometry):
        chain = _model_chain(name, geometry)
        p, _ = chain.uniformized_dtmc()
        pi = stationary_vector(chain)
        np.testing.assert_allclose(pi @ p, pi, rtol=1e-9, atol=1e-15)
        eigenvalues, eigenvectors = np.linalg.eig(p.T)
        unit = np.real(eigenvectors[:, np.argmin(np.abs(eigenvalues - 1.0))])
        np.testing.assert_allclose(unit / unit.sum(), pi, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("name,geometry", MODEL_CASES, ids=MODEL_IDS)
    def test_absorbing_down_states_become_self_loops(self, name, geometry):
        chain = _model_chain(name, geometry)
        p, lam = chain.uniformized_dtmc()
        down = chain.down_states()
        absorbed, same_lam = chain.with_states_absorbing(down).uniformized_dtmc(lam)
        assert same_lam == lam
        for state in chain.state_names:
            i = chain.index_of(state)
            if state in down:
                np.testing.assert_array_equal(absorbed[i], np.eye(chain.n_states)[i])
            else:
                np.testing.assert_allclose(absorbed[i], p[i], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name,geometry", MODEL_CASES, ids=MODEL_IDS)
    def test_poisson_mixture_of_powers_is_the_transient_solution(self, name, geometry):
        chain = _model_chain(name, geometry)
        p, lam = chain.uniformized_dtmc()
        t = 50.0
        mean_jumps = lam * t
        row = np.eye(chain.n_states)[0]
        mixture = np.zeros(chain.n_states)
        for k in range(int(mean_jumps + 12.0 * math.sqrt(mean_jumps) + 30.0)):
            weight = math.exp(-mean_jumps + k * math.log(mean_jumps) - math.lgamma(k + 1.0))
            mixture += weight * row
            row = row @ p
        expected = transient_distribution_expm(chain, [t]).probabilities[0]
        np.testing.assert_allclose(mixture, expected, rtol=1e-8, atol=1e-13)

    def test_one_hour_step_self_loops(self):
        # A 1-hour step (Lambda = 1) turns each self-loop into 1 - exit rate,
        # e.g. OP's 1 - n*lambda.
        params = paper_parameters(hep=0.0)
        chain = build_baseline_chain(params)
        p, lam = chain.uniformized_dtmc(uniformization_rate=1.0)
        n, rate = params.n_disks, params.disk_failure_rate
        assert lam == 1.0
        assert p[chain.index_of("OP"), chain.index_of("OP")] == pytest.approx(1.0 - n * rate)
        assert p[chain.index_of("EXP"), chain.index_of("EXP")] == pytest.approx(
            1.0 - params.disk_repair_rate - (n - 1) * rate
        )
        assert p[chain.index_of("DL"), chain.index_of("DL")] == pytest.approx(
            1.0 - params.ddf_recovery_rate
        )

    def test_one_hour_step_too_coarse_for_the_du_state(self):
        # Undoing a wrong pull ((1 - hep) * mu_he) plus the crash race leaves
        # DU faster than once an hour, so Lambda = 1 is not a valid step.
        chain = build_conventional_chain(paper_parameters())
        assert chain.exit_rate("DU") > 1.0
        with pytest.raises(TransitionError):
            chain.uniformized_dtmc(uniformization_rate=1.0)


class TestMeanTimeToOutage:
    @pytest.mark.parametrize("geometry", SINGLE_PARITY, ids=_label)
    def test_single_parity_mttdl_closed_form(self, geometry):
        params = paper_parameters(geometry=geometry, hep=0.0)
        n, lam, mu = params.n_disks, params.disk_failure_rate, params.disk_repair_rate
        expected = ((2 * n - 1) * lam + mu) / (n * (n - 1) * lam ** 2)
        mttdl = mean_time_to_failure(build_baseline_chain(params), ["DL"], "OP")
        assert mttdl == pytest.approx(expected, rel=1e-9)
        assert mttdl == pytest.approx(_birth_death_mttdl(n, 1, lam, mu), rel=1e-9)

    @pytest.mark.parametrize("geometry", DOUBLE_PARITY, ids=_label)
    def test_double_parity_mttdl_closed_form(self, geometry):
        params = paper_parameters(geometry=geometry, hep=0.0)
        expected = _birth_death_mttdl(
            params.n_disks, 2, params.disk_failure_rate, params.disk_repair_rate
        )
        mttdl = mean_time_to_failure(build_baseline_chain(params), ["DL"], "OP")
        # The first-passage system has condition number ~ (mu / lambda)^2,
        # 1e10 at the paper's rates, so the solve keeps about 7 digits.
        assert mttdl == pytest.approx(expected, rel=1e-6)

    def test_double_parity_outlives_single_parity(self):
        for n_disks in (4, 6, 8):
            raid5 = paper_parameters(geometry=RaidGeometry.raid5(n_disks - 1), hep=0.0)
            raid6 = paper_parameters(geometry=RaidGeometry.raid6(n_disks - 2), hep=0.0)
            single = mean_time_to_failure(build_baseline_chain(raid5), ["DL"], "OP")
            double = mean_time_to_failure(build_baseline_chain(raid6), ["DL"], "OP")
            assert double > 100.0 * single

    @pytest.mark.parametrize(
        "geometry", [RaidGeometry.raid1(2), RaidGeometry.raid5(3), RaidGeometry.raid6(4)], ids=_label
    )
    def test_faster_repair_lengthens_mttdl(self, geometry):
        base = paper_parameters(geometry=geometry, hep=0.0)
        mttdls = [
            mean_time_to_failure(
                build_baseline_chain(replace(base, disk_repair_rate=mu)), ["DL"], "OP"
            )
            for mu in (0.01, 0.1, 1.0)
        ]
        assert mttdls[0] < mttdls[1] < mttdls[2]

    @pytest.mark.parametrize("hep", HEPS)
    def test_conventional_time_to_first_outage_closed_form(self, hep):
        # From EXP the chain returns to OP at (1-hep)*mu, so the first outage
        # (DU or DL) comes after (mu + (2n-1)lam) / (n lam (hep mu + (n-1) lam)).
        params = paper_parameters(hep=hep)
        n, lam, mu = params.n_disks, params.disk_failure_rate, params.disk_repair_rate
        expected = (mu + (2 * n - 1) * lam) / (n * lam * (hep * mu + (n - 1) * lam))
        chain = build_conventional_chain(params)
        assert mean_time_to_failure(chain, None, "OP") == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("hep", HEPS)
    def test_failover_postpones_the_first_outage(self, hep):
        params = paper_parameters(hep=hep)
        first_outage = {
            name: mean_time_to_failure(resolve_policy(name).build_chain(params), None, "OP")
            for name in ("baseline", "conventional", "automatic_failover")
        }
        assert first_outage["conventional"] < first_outage["automatic_failover"]
        assert first_outage["automatic_failover"] < first_outage["baseline"]

    @pytest.mark.parametrize("name", ["conventional", "automatic_failover"])
    def test_without_human_error_first_outage_is_data_loss(self, name):
        for geometry in SINGLE_PARITY:
            params = paper_parameters(geometry=geometry, hep=0.0)
            baseline = mean_time_to_failure(build_baseline_chain(params), ["DL"], "OP")
            chain = resolve_policy(name).build_chain(params)
            assert mean_time_to_failure(chain, None, "OP") == pytest.approx(baseline, rel=1e-8)
