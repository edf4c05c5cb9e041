"""Unit tests for the replacement-policy identifiers."""

from __future__ import annotations

import pytest

from repro.core.models import CONVENTIONAL_STATES, FAILOVER_STATES
from repro.core.parameters import paper_parameters
from repro.core.policies import get_policy, resolve_policy
from repro.human import PolicyKind


@pytest.mark.parametrize(
    "kind,n_spares,states",
    [
        (PolicyKind.CONVENTIONAL, 0, CONVENTIONAL_STATES),
        (PolicyKind.AUTOMATIC_FAILOVER, 1, FAILOVER_STATES),
    ],
    ids=["CONVENTIONAL", "AUTOMATIC_FAILOVER"],
)
def test_kind_resolves_to_its_paper_model(kind, n_spares, states):
    # Conventional replacement works without a spare (Fig. 2); automatic
    # fail-over rebuilds onto one hot spare first (Fig. 3).
    policy = resolve_policy(kind)
    assert policy is get_policy(kind.value)
    assert policy.name == kind.value
    assert policy.n_spares == n_spares
    assert policy.has_batch_kernel
    assert policy.build_chain(paper_parameters()).state_names == states


def test_kinds_name_the_two_paper_policies():
    assert [kind.value for kind in PolicyKind] == ["conventional", "automatic_failover"]
    assert PolicyKind("automatic_failover") is PolicyKind.AUTOMATIC_FAILOVER
    with pytest.raises(ValueError):
        PolicyKind("hot_spare_pool")
