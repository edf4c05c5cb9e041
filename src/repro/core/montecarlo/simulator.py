"""Event-driven Monte Carlo simulation of one RAID group's lifetime.

This is the paper's reference model (Section III): disk failure events are
drawn from the configured time-to-failure distribution (exponential or
Weibull), repair and recovery durations from their distributions, and human
error events are attached to each replacement with probability ``hep``.  The
simulator walks the events in time order and accumulates downtime from

* **DU episodes** — a wrong disk replacement takes the data offline until
  the error is detected and undone, and
* **DL episodes** — a double disk failure (or a wrongly pulled disk crashing
  while out of the array) destroys the array contents, which are then
  restored from the backup.

``simulate_conventional`` follows the paper's Fig. 2 semantics exactly.  The
spare-pool policies (the paper's Fig. 3 automatic fail-over is a pool of
one) run :func:`repro.core.policies.hotspare.simulate_hot_spare`, which
shares this module's clocks and the no-spare service
``_exposed_without_spare``; its rare-corner handling (multiple concurrent
human errors) is slightly simplified relative to the full Markov model, as
documented in DESIGN.md — the dominant availability paths are identical.

These scalar simulators are the readable reference semantics and the
traced/debug path.  They are registered in :mod:`repro.core.policies`,
whose vectorised kernels in :mod:`repro.core.policies.vectorized` mirror
them struct-of-arrays style for the fast batch execution path.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.montecarlo.results import EpisodeTrace, IterationResult
from repro.core.parameters import AvailabilityParameters
from repro.exceptions import SimulationError
from repro.human.recovery import HumanErrorRecoveryModel


def _sample(dist, rng: np.random.Generator) -> float:
    return float(dist.sample(1, rng)[0])


def _clip_downtime(start: float, end: float, horizon: float) -> float:
    """Return the portion of ``[start, end]`` that falls inside the horizon."""
    return max(0.0, min(end, horizon) - min(start, horizon))


class _ArrayClocks:
    """Per-slot absolute failure times for one RAID group."""

    def __init__(self, n_disks: int, failure_dist, rng: np.random.Generator) -> None:
        self._dist = failure_dist
        self._rng = rng
        self.times = np.asarray(failure_dist.sample(n_disks, rng), dtype=float)

    def next_failure(self, exclude: Optional[int] = None) -> tuple:
        """Return ``(slot, time)`` of the earliest pending failure."""
        times = self.times
        if exclude is None:
            slot = int(np.argmin(times))
            return slot, float(times[slot])
        masked = times.copy()
        masked[exclude] = math.inf
        slot = int(np.argmin(masked))
        return slot, float(masked[slot])

    def renew(self, slot: int, at_time: float) -> None:
        """Install a fresh disk in ``slot`` at ``at_time``."""
        self.times[slot] = at_time + _sample(self._dist, self._rng)

    def renew_failed_before(self, time: float) -> int:
        """Renew every slot whose failure time is before ``time``.

        Used after a backup restore: every disk that failed during the
        outage has been replaced by the time the restore completes.  Returns
        the number of slots renewed.
        """
        renewed = 0
        for slot in range(self.times.size):
            if self.times[slot] <= time:
                self.renew(slot, time)
                renewed += 1
        return renewed


def simulate_conventional(
    params: AvailabilityParameters,
    horizon_hours: float,
    rng: np.random.Generator,
    trace: Optional[EpisodeTrace] = None,
) -> IterationResult:
    """Simulate one lifetime under the conventional replacement policy."""
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    n = params.n_disks
    failure_dist = params.failure_distribution()
    repair_dist = params.repair_distribution()
    ddf_dist = params.ddf_recovery_distribution()
    recovery = HumanErrorRecoveryModel(
        hep=params.hep,
        recovery_time=params.human_error_recovery_distribution(),
        crash_rate_per_hour=params.crash_rate,
    )
    clocks = _ArrayClocks(n, failure_dist, rng)
    result = IterationResult(horizon_hours=float(horizon_hours))
    now = 0.0

    while True:
        slot, fail_time = clocks.next_failure()
        # A failure "scheduled" inside a previous episode manifests as soon
        # as the episode is over.
        fail_time = max(fail_time, now)
        if fail_time >= horizon_hours:
            break
        result.disk_failures += 1
        if trace is not None:
            trace.add(fail_time, "disk_failure", slot=slot)

        repair_duration = _sample(repair_dist, rng)
        repair_done = fail_time + repair_duration
        other_slot, second_fail = clocks.next_failure(exclude=slot)
        second_fail = max(second_fail, fail_time)

        if second_fail < repair_done:
            # Double disk failure: data loss, restore from backup.
            result.disk_failures += 1
            result.dl_events += 1
            restore = _sample(ddf_dist, rng)
            outage_end = second_fail + restore
            result.downtime_hours += _clip_downtime(second_fail, outage_end, horizon_hours)
            if trace is not None:
                trace.add(second_fail, "disk_failure", slot=other_slot)
                trace.add(second_fail, "data_loss", cause="double_disk_failure")
                trace.add(outage_end, "backup_restore_complete", duration=restore)
            clocks.renew_failed_before(outage_end)
            now = outage_end
            continue

        if params.hep > 0.0 and rng.random() < params.hep:
            # Wrong disk replacement at the end of the service action.
            result.human_errors += 1
            result.du_events += 1
            wrong_slot = _pick_other_slot(rng, n, slot)
            attempt = recovery.sample_until_recovered(rng)
            outage_end = repair_done + attempt.duration_hours
            if trace is not None:
                trace.add(repair_done, "human_error", error="wrong_disk_replacement",
                          wrong_slot=wrong_slot)
            if attempt.disk_crashed:
                # The wrongly pulled disk died while out of the array: the
                # unavailability escalates to a data loss.
                result.dl_events += 1
                restore = _sample(ddf_dist, rng)
                outage_end += restore
                if trace is not None:
                    trace.add(outage_end - restore, "data_loss", cause="wrong_pull_crashed")
                    trace.add(outage_end, "backup_restore_complete", duration=restore)
                clocks.renew(wrong_slot, outage_end)
            else:
                if trace is not None:
                    trace.add(outage_end, "human_error_recovered")
            result.downtime_hours += _clip_downtime(repair_done, outage_end, horizon_hours)
            clocks.renew(slot, outage_end)
            clocks.renew_failed_before(outage_end)
            now = outage_end
            continue

        # Successful replacement and rebuild.
        clocks.renew(slot, repair_done)
        if trace is not None:
            trace.add(repair_done, "rebuild_complete", slot=slot, duration=repair_duration)
        now = repair_done

    return result


def _exposed_without_spare(
    params: AvailabilityParameters,
    clocks: _ArrayClocks,
    result: IterationResult,
    recovery: HumanErrorRecoveryModel,
    ddf_dist,
    slot: int,
    start: float,
    horizon: float,
    rng: np.random.Generator,
    trace: Optional[EpisodeTrace],
    already_counted: bool = False,
    crashed_slot: bool = False,
) -> tuple:
    """Resolve a failed disk when no spare is available (the ``EXPns1`` state).

    The technician both rebuilds and replaces hardware; the combined service
    completes at rate ``mu_DF + mu_ch`` and can suffer a human error that
    takes the data down.  Returns ``(time, spare_available)``.
    """
    combined_rate = params.disk_repair_rate + params.spare_replacement_rate
    service_done = start + float(rng.exponential(1.0 / combined_rate))
    other_slot, second_fail = clocks.next_failure(exclude=slot)
    second_fail = max(second_fail, start)

    if second_fail < service_done and second_fail < horizon:
        # Double failure with no spare: data loss.
        result.disk_failures += 1
        result.dl_events += 1
        restore = _sample(ddf_dist, rng)
        outage_end = second_fail + restore
        result.downtime_hours += _clip_downtime(second_fail, outage_end, horizon)
        if trace is not None:
            trace.add(second_fail, "data_loss", cause="double_disk_failure_no_spare")
            trace.add(outage_end, "backup_restore_complete", duration=restore)
        clocks.renew(slot, outage_end)
        clocks.renew_failed_before(outage_end)
        return outage_end, False

    if params.hep > 0.0 and rng.random() < params.hep:
        # Wrong pull while the array is degraded: data unavailable.
        result.human_errors += 1
        result.du_events += 1
        attempt = recovery.sample_until_recovered(rng)
        outage_end = service_done + attempt.duration_hours
        if trace is not None:
            trace.add(service_done, "human_error", error="wrong_disk_replacement",
                      array_state="degraded_no_spare")
        if attempt.disk_crashed:
            result.dl_events += 1
            restore = _sample(ddf_dist, rng)
            outage_end += restore
            if trace is not None:
                trace.add(outage_end - restore, "data_loss", cause="wrong_pull_crashed")
                trace.add(outage_end, "backup_restore_complete", duration=restore)
        else:
            if trace is not None:
                trace.add(outage_end, "human_error_recovered")
        result.downtime_hours += _clip_downtime(service_done, outage_end, horizon)
        clocks.renew(slot, outage_end)
        clocks.renew_failed_before(outage_end)
        return outage_end, False

    # Successful service: the failed disk is back, the spare is restored too
    # (the technician replaced the dead hardware in the same visit).
    clocks.renew(slot, service_done)
    if trace is not None:
        trace.add(service_done, "rebuild_complete", slot=slot)
    return service_done, True


def _pick_other_slot(rng: np.random.Generator, n_disks: int, failed_slot: int) -> int:
    """Pick a uniformly random operational slot different from ``failed_slot``."""
    if n_disks <= 1:
        return failed_slot
    choice = int(rng.integers(n_disks - 1))
    return choice if choice < failed_slot else choice + 1
