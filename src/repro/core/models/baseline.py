"""Traditional (human-error-free) RAID availability Markov model.

This is the model that the paper argues underestimates downtime: a RAID
group that only fails when redundancy is exhausted by disk failures, with
perfect repair service.  For single-fault-tolerant geometries (RAID1 two-way
mirrors and RAID5) the chain is the classic three-state birth-death model::

    OP --n*lambda--> EXP --(n-1)*lambda--> DL
    EXP --mu_DF--> OP            DL --mu_DDF--> OP

For double-fault-tolerant RAID6 an extra exposed state is inserted.  The
builder is shared with the human-error models so the comparison in
:mod:`repro.core.underestimation` is apples to apples.
"""

from __future__ import annotations

from repro.core.parameters import AvailabilityParameters
from repro.exceptions import RaidConfigurationError
from repro.markov.builder import ChainBuilder
from repro.markov.chain import MarkovChain
from repro.markov.metrics import AvailabilityResult, steady_state_availability


def build_baseline_chain(params: AvailabilityParameters) -> MarkovChain:
    """Return the hep-free availability chain for the configured geometry.

    Supports fault tolerance 1 (RAID1 mirrors, RAID5) and 2 (RAID6).  RAID0
    is rejected: with no redundancy the first failure is already a data-loss
    event and the model degenerates to two states, whose availability is
    :func:`repro.availability.metrics.availability_from_mttf_mttr`.
    """
    geometry = params.geometry
    n = geometry.n_disks
    lam = params.disk_failure_rate
    mu_df = params.disk_repair_rate
    mu_ddf = params.ddf_recovery_rate

    if geometry.fault_tolerance == 1:
        builder = ChainBuilder(name=f"baseline-{geometry.label}")
        builder.add_up_state("OP", description="all disks operational")
        builder.add_up_state("EXP", description="one disk failed, array degraded", tags=("exposed",))
        builder.add_down_state("DL", description="double disk failure; restoring from backup", tags=("data-loss",))
        builder.add_transition("OP", "EXP", n * lam, label="n*lambda")
        builder.add_transition("EXP", "OP", mu_df, label="mu_DF")
        builder.add_transition("EXP", "DL", (n - 1) * lam, label="(n-1)*lambda")
        builder.add_transition("DL", "OP", mu_ddf, label="mu_DDF")
        return builder.build()

    if geometry.fault_tolerance == 2:
        builder = ChainBuilder(name=f"baseline-{geometry.label}")
        builder.add_up_state("OP", description="all disks operational")
        builder.add_up_state("EXP1", description="one disk failed", tags=("exposed",))
        builder.add_up_state("EXP2", description="two disks failed", tags=("exposed",))
        builder.add_down_state("DL", description="triple disk failure; restoring from backup", tags=("data-loss",))
        builder.add_transition("OP", "EXP1", n * lam, label="n*lambda")
        builder.add_transition("EXP1", "OP", mu_df, label="mu_DF")
        builder.add_transition("EXP1", "EXP2", (n - 1) * lam, label="(n-1)*lambda")
        builder.add_transition("EXP2", "EXP1", mu_df, label="mu_DF")
        builder.add_transition("EXP2", "DL", (n - 2) * lam, label="(n-2)*lambda")
        builder.add_transition("DL", "OP", mu_ddf, label="mu_DDF")
        return builder.build()

    raise RaidConfigurationError(
        f"baseline model supports fault tolerance 1 or 2, got {geometry.fault_tolerance} "
        f"for {geometry.label}"
    )


def baseline_availability(params: AvailabilityParameters, method: str = "dense") -> AvailabilityResult:
    """Return the steady-state availability of the hep-free model."""
    return steady_state_availability(build_baseline_chain(params), method=method)
