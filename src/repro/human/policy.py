"""Disk replacement policy identifiers.

The paper contrasts two service policies for a RAID group:

* **Conventional replacement** — as soon as a disk fails, a technician swaps
  it for a new disk and starts the rebuild.  The operator touches the array
  while it is *degraded*, so a wrong-disk error immediately takes the data
  offline.
* **Automatic fail-over (delayed replacement)** — the failed disk's contents
  are first rebuilt onto a hot spare with no human involvement; only after
  the on-line rebuild completes does a technician replace the dead hardware
  (to restore the spare).  The operator now touches the array while it is
  *fully redundant*, so a wrong-disk error only degrades it.

:class:`PolicyKind` names the two; the policy registry
(:mod:`repro.core.policies`) resolves each member to the registered
simulation policy of that name, whose Monte Carlo kernels and Markov chain
implement it.
"""

from __future__ import annotations

import enum


class PolicyKind(enum.Enum):
    """Identifier of the replacement policy variants."""

    CONVENTIONAL = "conventional"
    AUTOMATIC_FAILOVER = "automatic_failover"
