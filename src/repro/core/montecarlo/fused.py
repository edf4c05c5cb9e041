"""Whole-event-loop fused Monte Carlo kernels (``kernel="fused"``).

The numpy batch kernels in :mod:`repro.core.policies.vectorized` simulate a
shard breadth-first: every event round sweeps the full clock matrix, and the
per-round numpy overhead (fancy indexing, boolean compaction, per-branch
gather/scatter) dominates once the per-row arithmetic is this small.

**Fused** kernels run each lifetime's entire event loop — draws included —
inside one nopython function, depth-first over the shard.  The discipline
changes:

* **RNG.**  Draws move inside the compiled loop.  Each shard consumes a
  dedicated ``"fused"`` named stream derived from the same spawn-indexed
  entropy lineage as the numpy kernels' ``"montecarlo"`` stream (see
  :mod:`repro.core.montecarlo.rng`), so shard decomposition stays
  worker-count-independent: fused ``workers=N`` is bit-identical to fused
  ``workers=1`` and ``replay_stacked_point`` replays fused grids exactly.
  Only the numpy-vs-fused draw *order* differs, which is why the
  cross-backend bit-identity oracle cannot apply.

* **Draw primitives.**  The kernels consume the stream exclusively through
  ``rng.random()`` (one double per draw) and build every law by inverse
  transform: a standard exponential is ``-log1p(-u)``, an ``Exp(rate)`` is
  the standard draw over the rate, a Weibull(k, scale) is
  ``scale * e**(1/k)``, a uniform slot is ``floor(u * n)``, a Bernoulli is
  ``u < p``.  numba compiles ``Generator.random()`` natively (no object-mode
  bounce), and the pure-Python fallback consumes the identical stream.

* **Validation.**  Cross-backend equality is statistical, not bitwise: the
  fused estimates are pinned by the analytical faces (CI coverage) and by
  fused-vs-numpy confidence-interval overlap per policy x geometry x
  biasing (``tests/core/test_fused.py``), with the exact PR 6 censored
  likelihood-ratio discipline reimplemented in-loop (see
  ``_draw_failure``) and the weighted moments accumulated per lifetime.

When numba is not importable the kernels run as plain Python — identical
semantics, identical stream — which keeps the fused path testable in
numba-free environments.  Because the pure-Python event loop is slower than
the numpy batch kernels, ``fused_available()`` only reports the backend
usable when numba is present or the ``REPRO_FUSED_PUREPY`` environment
variable opts into the fallback explicitly (tests set it; production
configs get a clear error instead of a silent 100x slowdown).

This module also owns the kernel names (:data:`KERNELS`) and
:func:`resolve_kernel`, the check parents run before dispatching any shard.
"""
from __future__ import annotations

import functools
import math
import os
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.policies.base import BatchLifetimes
from repro.core.policies.vectorized import (
    _check_lifetimes,
    _erasure_scheme_planes,
    _failure_shape_scale,
    _per_row_or,
)
from repro.exceptions import ConfigurationError, HumanErrorModelError, SimulationError

try:  # pragma: no cover - exercised in the fused CI job
    import numba as _numba
except ImportError:  # pragma: no cover - the numba-free default environment
    _numba = None

#: Environment opt-in running the fused loops as plain Python when numba is
#: missing (same semantics, same stream, interpreter speed).
FUSED_PUREPY_ENV = "REPRO_FUSED_PUREPY"

if _numba is not None:
    #: ``cache=True`` persists the compiled loops to the on-disk numba cache
    #: (CI keys it on the kernel source hash); ``nogil=True`` releases the
    #: GIL so ``pool="thread"`` runs fused shards truly in parallel.
    _jit = _numba.njit(cache=True, nogil=True)
else:

    def _jit(func):
        return func


def jit_enabled() -> bool:
    """Return whether the fused loops are numba-compiled in this process."""
    return _numba is not None


#: Accepted kernel backends: ``"numpy"`` (the default batch kernels) and
#: ``"fused"`` (the whole-event-loop kernels below).
KERNELS = ("numpy", "fused")


def fused_available() -> bool:
    """Return whether ``kernel="fused"`` may be selected.

    True when numba is importable (the loops compile) or when
    ``REPRO_FUSED_PUREPY`` opts into the pure-Python fallback.
    """
    return _numba is not None or bool(os.environ.get(FUSED_PUREPY_ENV))


def resolve_kernel(kernel: str) -> str:
    """Check that ``kernel`` names a backend this process can run; return it.

    Parents call this before dispatching any shard, so a missing fused
    backend fails once, up front, instead of once per shard or worker.
    """
    if kernel not in KERNELS:
        raise ConfigurationError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel == "fused" and not fused_available():
        raise ConfigurationError(
            "kernel='fused' requires numba, which is not importable; "
            "install the optional extra (pip install '.[compiled]'), "
            f"set {FUSED_PUREPY_ENV}=1 to accept the pure-Python "
            "fallback, or use kernel='numpy'"
        )
    return kernel


# ----------------------------------------------------------------------
# nopython draw primitives
# ----------------------------------------------------------------------
@_jit
def _std_exp(rng) -> float:
    """One standard-exponential draw by inverse transform."""
    return -math.log1p(-rng.random())


@_jit
def _clip(start: float, end: float, horizon: float) -> float:
    """Downtime of ``[start, end)`` clipped to the mission horizon."""
    lo = start if start < horizon else horizon
    hi = end if end < horizon else horizon
    d = hi - lo
    return d if d > 0.0 else 0.0


@_jit
def _draw_failure(
    rng, k: float, s: float, b: float, use_bias: bool, horizon: float, born: float
) -> Tuple[float, float]:
    """Draw one (possibly biased) failure clock born at hour ``born``.

    Returns ``(delta_hours, log_weight_contrib)``.  ``k``/``s`` are the
    *unbiased* Weibull shape/scale (shape 1 = exponential) and ``b`` the
    biasing factor; the contribution follows the PR 6 censoring discipline:
    a draw that fires before the horizon contributes the density ratio, a
    draw censored at the horizon contributes the survival ratio at its
    censor point, and a draw born at or past the horizon contributes
    nothing.
    """
    e = _std_exp(rng)
    if k == 1.0:
        t = e * s
    else:
        t = s * e ** (1.0 / k)
    if not use_bias:
        return t, 0.0
    t = t / b
    remaining = horizon - born
    if remaining <= 0.0:
        return t, 0.0
    bk = b**k
    if t < remaining:
        return t, (bk - 1.0) * (t / s) ** k - k * math.log(b)
    return t, (bk - 1.0) * (remaining / s) ** k


@_jit
def _argmin_clock(clocks, n: int) -> Tuple[int, float]:
    """Return ``(slot, time)`` of the earliest clock (ties to lowest slot)."""
    slot = 0
    best = clocks[0]
    for j in range(1, n):
        if clocks[j] < best:
            best = clocks[j]
            slot = j
    return slot, best


@_jit
def _argmin_excluding(clocks, n: int, exclude: int) -> Tuple[int, float]:
    """Return ``(slot, time)`` of the earliest clock outside ``exclude``."""
    slot = -1
    best = np.inf
    for j in range(n):
        if j == exclude:
            continue
        if clocks[j] < best:
            best = clocks[j]
            slot = j
    return slot, best


@_jit
def _uniform_slot(rng, n: int) -> int:
    """One uniform slot index in ``[0, n)``."""
    j = int(rng.random() * n)
    return j if j < n else n - 1


@_jit
def _other_slot(rng, n: int, slot: int) -> int:
    """One uniform slot other than ``slot`` (``slot`` itself when n <= 1)."""
    if n <= 1:
        return slot
    choice = _uniform_slot(rng, n - 1)
    return choice if choice < slot else choice + 1


@_jit
def _race(rng, recovery_rate: float, hep: float, crash_rate: float) -> Tuple[float, bool]:
    """Scalar twin of the vectorized ``_recovery_race``.

    Races each recovery attempt against a crash of the wrongly pulled disk
    and repeats the attempt with probability ``hep``; returns
    ``(total_duration_hours, disk_crashed)``.
    """
    total = 0.0
    for _ in range(1000):
        attempt = _std_exp(rng) / recovery_rate
        if crash_rate > 0.0:
            crash = _std_exp(rng) / crash_rate
        else:
            crash = np.inf
        if crash < attempt:
            return total + crash, True
        total += attempt
        if not (rng.random() < hep):
            return total, False
    raise HumanErrorModelError("error recovery did not terminate within 1000 attempts")


@_jit
def _renew_before(
    rng, clocks, n: int, at: float, horizon: float, k: float, s: float, b: float, use_bias: bool
) -> float:
    """Renew every slot whose clock is at or before ``at``; return the LR sum."""
    w = 0.0
    for j in range(n):
        if clocks[j] <= at:
            t, c = _draw_failure(rng, k, s, b, use_bias, horizon, at)
            clocks[j] = at + t
            w += c
    return w


@_jit
def _renew_slot(
    rng, clocks, slot: int, at: float, horizon: float, k: float, s: float, b: float, use_bias: bool
) -> float:
    """Install a fresh disk in ``slot`` at hour ``at``; return the LR contrib."""
    t, c = _draw_failure(rng, k, s, b, use_bias, horizon, at)
    clocks[slot] = at + t
    return c


# ----------------------------------------------------------------------
# Fused family kernels (one lifetime's whole event loop per iteration)
# ----------------------------------------------------------------------
@_jit
def _fused_conventional(
    rng,
    horizon: float,
    n_cols: int,
    shape_arr,
    scale_arr,
    bias,
    use_bias: bool,
    repair_rate,
    ddf_rate,
    recovery_rate,
    hep_arr,
    crash_arr,
    n_disks_arr,
    downtime,
    du,
    dl,
    df,
    he,
    logw,
):
    """Depth-first conventional-policy loop (semantics of ``batch_conventional``)."""
    m = downtime.shape[0]
    clocks = np.empty(n_cols)
    for i in range(m):
        n = int(n_disks_arr[i])
        k = shape_arr[i]
        s = scale_arr[i]
        b = bias[i]
        mu_rep = repair_rate[i]
        mu_ddf = ddf_rate[i]
        mu_rec = recovery_rate[i]
        h = hep_arr[i]
        cr = crash_arr[i]
        w = 0.0
        for j in range(n):
            t, c = _draw_failure(rng, k, s, b, use_bias, horizon, 0.0)
            clocks[j] = t
            w += c
        now = 0.0
        while True:
            slot, fail = _argmin_clock(clocks, n)
            if fail < now:
                fail = now
            if fail >= horizon:
                break
            df[i] += 1
            repair_done = fail + _std_exp(rng) / mu_rep
            _, second = _argmin_excluding(clocks, n, slot)
            if second < fail:
                second = fail
            if second < repair_done:
                # Double disk failure during the repair: data loss, restore.
                df[i] += 1
                dl[i] += 1
                outage_end = second + _std_exp(rng) / mu_ddf
                downtime[i] += _clip(second, outage_end, horizon)
                w += _renew_before(rng, clocks, n, outage_end, horizon, k, s, b, use_bias)
                now = outage_end
            elif h > 0.0 and rng.random() < h:
                # Wrong disk replacement: unavailable until the error is
                # undone (data loss when the pulled disk crashes first).
                he[i] += 1
                du[i] += 1
                wrong = _other_slot(rng, n, slot)
                duration, crashed = _race(rng, mu_rec, h, cr)
                outage_end = repair_done + duration
                if crashed:
                    dl[i] += 1
                    outage_end += _std_exp(rng) / mu_ddf
                    w += _renew_slot(rng, clocks, wrong, outage_end, horizon, k, s, b, use_bias)
                downtime[i] += _clip(repair_done, outage_end, horizon)
                w += _renew_slot(rng, clocks, slot, outage_end, horizon, k, s, b, use_bias)
                w += _renew_before(rng, clocks, n, outage_end, horizon, k, s, b, use_bias)
                now = outage_end
            else:
                # Successful replacement and rebuild.
                w += _renew_slot(rng, clocks, slot, repair_done, horizon, k, s, b, use_bias)
                now = repair_done
        if use_bias:
            logw[i] += w


@_jit
def _fused_spare_pool(
    rng,
    horizon: float,
    n_cols: int,
    shape_arr,
    scale_arr,
    bias,
    use_bias: bool,
    repair_rate,
    replace_rate,
    ddf_rate,
    recovery_rate,
    hep_arr,
    crash_arr,
    n_disks_arr,
    pool_arr,
    downtime,
    du,
    dl,
    df,
    he,
    logw,
):
    """Depth-first spare-pool loop (semantics of ``batch_spare_pool``)."""
    m = downtime.shape[0]
    clocks = np.empty(n_cols)
    for i in range(m):
        n = int(n_disks_arr[i])
        pool0 = int(pool_arr[i])
        k = shape_arr[i]
        s = scale_arr[i]
        b = bias[i]
        mu_rep = repair_rate[i]
        mu_rpl = replace_rate[i]
        mu_ddf = ddf_rate[i]
        mu_rec = recovery_rate[i]
        h = hep_arr[i]
        cr = crash_arr[i]
        w = 0.0
        for j in range(n):
            t, c = _draw_failure(rng, k, s, b, use_bias, horizon, 0.0)
            clocks[j] = t
            w += c
        now = 0.0
        spares = pool0
        while True:
            slot, fail = _argmin_clock(clocks, n)
            if fail < now:
                fail = now
            if fail >= horizon:
                break
            df[i] += 1

            # One failure event may fall through to the exposed no-spare
            # service from three branches; ``exposed`` carries the handoff.
            exposed = False
            ex_slot = slot
            ex_start = fail

            if spares > 0:
                # On-line rebuild onto a hot spare.
                rebuild_done = fail + _std_exp(rng) / mu_rep
                _, second = _argmin_excluding(clocks, n, slot)
                if second < fail:
                    second = fail
                if second < rebuild_done:
                    # Double failure during the rebuild: data loss; the
                    # restore window lets the technician restock the pool.
                    df[i] += 1
                    dl[i] += 1
                    outage_end = second + _std_exp(rng) / mu_ddf
                    downtime[i] += _clip(second, outage_end, horizon)
                    w += _renew_before(rng, clocks, n, outage_end, horizon, k, s, b, use_bias)
                    spares = pool0
                    now = outage_end
                else:
                    # Rebuild finished; technician visit replaces hardware.
                    w += _renew_slot(rng, clocks, slot, rebuild_done, horizon, k, s, b, use_bias)
                    spares -= 1
                    replace_done = rebuild_done + _std_exp(rng) / mu_rpl
                    _, next_fail = _argmin_clock(clocks, n)
                    if next_fail < rebuild_done:
                        next_fail = rebuild_done
                    if next_fail < replace_done and next_fail < horizon:
                        # A further failure preempts the visit: no restock,
                        # the failure is handled from scratch next round.
                        now = next_fail
                    elif h > 0.0 and rng.random() < h:
                        # Wrong pull during the visit: fully redundant, so
                        # the array only degrades — unless a real failure or
                        # a crash of the pulled disk lands meanwhile.
                        he[i] += 1
                        wrong = _uniform_slot(rng, n)
                        duration, crashed = _race(rng, mu_rec, h, cr)
                        recovery_end = replace_done + duration
                        other, second2 = _argmin_excluding(clocks, n, wrong)
                        if second2 < replace_done:
                            second2 = replace_done
                        fail_during = second2 < recovery_end and second2 < horizon
                        if fail_during and crashed:
                            df[i] += 1
                            du[i] += 1
                            dl[i] += 1
                            outage_end = recovery_end + _std_exp(rng) / mu_ddf
                            downtime[i] += _clip(second2, outage_end, horizon)
                            w += _renew_before(
                                rng, clocks, n, outage_end, horizon, k, s, b, use_bias
                            )
                            spares = pool0
                            now = outage_end
                        elif fail_during:
                            df[i] += 1
                            du[i] += 1
                            downtime[i] += _clip(second2, recovery_end, horizon)
                            exposed = True
                            ex_slot = other
                            ex_start = recovery_end
                        elif crashed:
                            # The pulled disk is now a genuine failed disk.
                            exposed = True
                            ex_slot = wrong
                            ex_start = recovery_end
                        else:
                            spares = pool0
                            now = recovery_end
                    else:
                        spares = pool0
                        now = replace_done
            else:
                exposed = True

            if exposed:
                # Exposed no-spare service: combined rebuild + replacement
                # visit; success restocks the whole pool.
                service_done = ex_start + _std_exp(rng) / (mu_rep + mu_rpl)
                _, second3 = _argmin_excluding(clocks, n, ex_slot)
                if second3 < ex_start:
                    second3 = ex_start
                if second3 < service_done and second3 < horizon:
                    df[i] += 1
                    dl[i] += 1
                    outage_end = second3 + _std_exp(rng) / mu_ddf
                    downtime[i] += _clip(second3, outage_end, horizon)
                    w += _renew_slot(rng, clocks, ex_slot, outage_end, horizon, k, s, b, use_bias)
                    w += _renew_before(rng, clocks, n, outage_end, horizon, k, s, b, use_bias)
                    spares = 0
                    now = outage_end
                elif h > 0.0 and rng.random() < h:
                    he[i] += 1
                    du[i] += 1
                    duration, crashed = _race(rng, mu_rec, h, cr)
                    outage_end = service_done + duration
                    if crashed:
                        dl[i] += 1
                        outage_end += _std_exp(rng) / mu_ddf
                    downtime[i] += _clip(service_done, outage_end, horizon)
                    w += _renew_slot(rng, clocks, ex_slot, outage_end, horizon, k, s, b, use_bias)
                    w += _renew_before(rng, clocks, n, outage_end, horizon, k, s, b, use_bias)
                    spares = 0
                    now = outage_end
                else:
                    w += _renew_slot(rng, clocks, ex_slot, service_done, horizon, k, s, b, use_bias)
                    spares = pool0
                    now = service_done
        if use_bias:
            logw[i] += w


@_jit
def _fused_erasure(
    rng,
    horizon: float,
    lam,
    hep_arr,
    n_arr,
    k_arr,
    r_arr,
    period,
    downtime,
    du,
    dl,
    df,
    he,
):
    """Depth-first erasure checker/repair loop (semantics of ``batch_erasure``)."""
    m = downtime.shape[0]
    for i in range(m):
        n = int(n_arr[i])
        kk = int(k_arr[i])
        r = int(r_arr[i])
        period_t = period[i]
        lam_i = lam[i]
        h = hep_arr[i]
        shares = n
        pending = _std_exp(rng) / (shares * lam_i)
        # Checks fire at T, 2T, ...; every check before the first failure is
        # a no-op, so jump straight to the first check at or after it.
        next_check = period_t * np.ceil(pending / period_t)
        down_since = np.inf
        while True:
            etime = pending if pending < next_check else next_check
            if etime >= horizon:
                if down_since < np.inf:
                    downtime[i] += horizon - down_since
                break
            if pending < next_check:
                # Share failure (strictly before a coincident check).
                df[i] += 1
                shares -= 1
                if shares < kk:
                    # Outage until the next check discovers it; surviving
                    # shares are not simulated while down.
                    dl[i] += 1
                    down_since = pending
                    pending = np.inf
                else:
                    pending = etime + _std_exp(rng) / (shares * lam_i)
            else:
                # Checker visit.
                at = next_check
                is_down = not (pending < np.inf)
                needs_repair = (not is_down) and shares < r
                if is_down or needs_repair:
                    botched = h > 0.0 and rng.random() < h
                    if needs_repair:
                        du[i] += 1
                    if is_down:
                        downtime[i] += at - down_since
                        down_since = np.inf
                    shares = n - 1 if botched else n
                    if botched:
                        he[i] += 1
                    if shares < kk:
                        # A botched restore of a k == N scheme stays down —
                        # a continuing outage, no second dl_event.
                        down_since = at
                    else:
                        pending = etime + _std_exp(rng) / (shares * lam_i)
                next_check = at + period_t
            # Check-skip: at or above the repair threshold every check is a
            # no-op until the next failure, so jump ahead (never backwards).
            if pending < np.inf and shares >= r:
                skip = period_t * np.ceil(pending / period_t)
                if skip > next_check:
                    next_check = skip


# ----------------------------------------------------------------------
# Policy face resolution
# ----------------------------------------------------------------------
_FUSED_FAMILIES = {
    "batch_conventional": "conventional",
    "batch_baseline": "baseline",
    "batch_spare_pool": "spare_pool",
    "batch_erasure": "erasure",
}


def fused_face(policy) -> Optional[Tuple[str, dict]]:
    """Return ``(family, bound_kwargs)`` when ``policy`` has a fused loop.

    Unwraps ``functools.partial`` layers (the spare-pool and erasure
    policies register partials), collecting bound keywords such as
    ``n_spares=`` or ``scheme=``.
    """
    batch = getattr(policy, "batch", None)
    kwargs: dict = {}
    while isinstance(batch, functools.partial):
        merged = dict(batch.keywords)
        merged.update(kwargs)
        kwargs = merged
        batch = batch.func
    if batch is None:
        return None
    family = _FUSED_FAMILIES.get(getattr(batch, "__name__", ""))
    if family is None:
        return None
    return family, kwargs


def has_fused_face(policy) -> bool:
    """Return whether the policy's batch kernel has a fused event loop."""
    return fused_face(policy) is not None


# ----------------------------------------------------------------------
# Batch wrapper
# ----------------------------------------------------------------------
def _plane(value, m: int, dtype=np.float64) -> np.ndarray:
    """Broadcast a scalar-or-per-row parameter to a contiguous row plane."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.full(m, arr[()], dtype=dtype)
    if arr.shape != (m,):
        raise ConfigurationError(
            f"parameter plane shape {arr.shape} does not match {m} lifetimes"
        )
    return np.ascontiguousarray(arr)


def run_fused_batch(
    policy,
    params,
    horizon_hours: float,
    n_lifetimes: int,
    streams,
    biasing: Optional[Union[float, np.ndarray]] = None,
) -> BatchLifetimes:
    """Run one shard through the policy's fused event loop.

    ``streams`` is the shard's :class:`~repro.core.montecarlo.rng.RandomStreams`
    handle (the same spawn-indexed lineage the numpy kernels draw their
    ``"montecarlo"`` stream from); the fused loop consumes its own
    ``"fused"`` named stream, so the two backends never share draws but
    both stay worker-count-independent.
    """
    face = fused_face(policy)
    if face is None:
        raise ConfigurationError(
            f"policy {getattr(policy, 'name', policy)!r} has no fused event "
            "loop; run it with kernel='numpy'"
        )
    resolve_kernel("fused")
    if horizon_hours <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_hours!r}")
    family, bound = face
    horizon = float(horizon_hours)
    m = _check_lifetimes(params, n_lifetimes)
    rng = streams.stream("fused")
    batch = BatchLifetimes.zeros(m, horizon)

    if family == "baseline":
        params = params.without_human_error()
        family = "conventional"

    if family == "erasure":
        if biasing is not None:
            raise ConfigurationError(
                "the erasure checker kernel does not support failure biasing; "
                "its aggregate share clocks have no per-draw likelihood ratio"
            )
        if np.any(np.asarray(getattr(params, "failure_shape", 1.0)) != 1.0):
            raise ConfigurationError(
                "the erasure kernel requires exponential share failures "
                "(failure_shape == 1); Weibull share decay is not memoryless"
            )
        n_arr, k_arr, r_arr, period = _erasure_scheme_planes(params, m, bound.get("scheme"))
        _fused_erasure(
            rng,
            horizon,
            _plane(params.disk_failure_rate, m),
            _plane(params.hep, m),
            np.ascontiguousarray(n_arr, dtype=np.int64),
            np.ascontiguousarray(k_arr, dtype=np.int64),
            np.ascontiguousarray(r_arr, dtype=np.int64),
            _plane(period, m),
            batch.downtime_hours,
            batch.du_events,
            batch.dl_events,
            batch.disk_failures,
            batch.human_errors,
        )
        return batch

    use_bias = biasing is not None
    if use_bias:
        bias_arr = np.asarray(biasing, dtype=float)
        if not np.all(np.isfinite(bias_arr)) or np.any(bias_arr <= 0.0):
            raise ConfigurationError(
                f"biasing factor must be positive and finite, got {biasing!r}"
            )
        bias = _plane(bias_arr, m)
        logw = np.zeros(m, dtype=float)
        batch.log_weights = logw
    else:
        bias = np.ones(m, dtype=float)
        logw = np.zeros(0, dtype=float)
    shape, scale = _failure_shape_scale(params.failure_distribution())
    shape_arr = _plane(shape, m)
    scale_arr = _plane(scale, m)
    n_disks_arr = np.ascontiguousarray(
        np.broadcast_to(
            np.asarray(_per_row_or(params, "n_disks_rows", params.n_disks)), (m,)
        ),
        dtype=np.int64,
    )
    n_cols = int(n_disks_arr.max())
    common = (
        _plane(params.disk_repair_rate, m),
        _plane(params.ddf_recovery_rate, m),
        _plane(params.human_error_rate, m),
        _plane(params.hep, m),
        _plane(params.crash_rate, m),
        n_disks_arr,
    )
    outputs = (
        batch.downtime_hours,
        batch.du_events,
        batch.dl_events,
        batch.disk_failures,
        batch.human_errors,
        logw,
    )
    if family == "conventional":
        _fused_conventional(
            rng, horizon, n_cols, shape_arr, scale_arr, bias, use_bias, *common, *outputs
        )
        return batch

    # Spare-pool family: per-row pool planes override the bound scalar.
    pool_rows = _per_row_or(params, "n_spares_rows", None)
    if pool_rows is None:
        n_spares = int(bound.get("n_spares", 1))
        if n_spares < 1:
            raise ConfigurationError(
                f"spare pool needs at least one spare, got {n_spares!r}"
            )
        pool_arr = np.full(m, n_spares, dtype=np.int64)
    else:
        if np.any(np.asarray(pool_rows) < 1):
            raise ConfigurationError("every stacked pool needs at least one spare")
        pool_arr = np.ascontiguousarray(pool_rows, dtype=np.int64)
    repair, ddf, recovery, hep, crash, n_disks_arr = common
    _fused_spare_pool(
        rng,
        horizon,
        n_cols,
        shape_arr,
        scale_arr,
        bias,
        use_bias,
        repair,
        _plane(params.spare_replacement_rate, m),
        ddf,
        recovery,
        hep,
        crash,
        n_disks_arr,
        pool_arr,
        *outputs,
    )
    return batch


def warmup_fused() -> None:
    """Compile (or, pure-Python, exercise) every fused loop on a tiny shard.

    Touches all three family kernels with biasing enabled so benchmark and
    sweep timings never include nopython compilation; with ``cache=True``
    the compiled loops land in the on-disk numba cache that CI restores.
    """
    rng = np.random.default_rng(0)
    m = 2
    f64 = lambda v: np.full(m, float(v))  # noqa: E731 - local literal helper
    i64 = lambda v: np.full(m, int(v), dtype=np.int64)  # noqa: E731
    out = lambda: (  # noqa: E731
        np.zeros(m),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros(m),
    )
    _fused_conventional(
        rng, 100.0, 2, f64(1.0), f64(50.0), f64(2.0), True,
        f64(0.1), f64(0.5), f64(1.0), f64(0.2), f64(0.01), i64(2), *out()
    )
    _fused_spare_pool(
        rng, 100.0, 2, f64(1.0), f64(50.0), f64(2.0), True,
        f64(0.1), f64(0.2), f64(0.5), f64(1.0), f64(0.2), f64(0.01), i64(2), i64(1), *out()
    )
    _fused_erasure(
        rng, 100.0, f64(0.01), f64(0.2), i64(4), i64(2), i64(3), f64(24.0), *out()[:5]
    )


__all__ = [
    "FUSED_PUREPY_ENV",
    "KERNELS",
    "fused_available",
    "fused_face",
    "has_fused_face",
    "jit_enabled",
    "resolve_kernel",
    "run_fused_batch",
    "warmup_fused",
]
