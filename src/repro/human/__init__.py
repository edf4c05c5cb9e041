"""Human-error substrate: policy identifiers, expected errors, error recovery."""

from repro.human.hep import expected_errors_per_year
from repro.human.policy import PolicyKind
from repro.human.recovery import HumanErrorRecoveryModel, RecoveryAttemptResult

__all__ = [
    "HumanErrorRecoveryModel",
    "PolicyKind",
    "RecoveryAttemptResult",
    "expected_errors_per_year",
]
