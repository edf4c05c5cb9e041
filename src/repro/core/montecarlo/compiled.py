"""Compiled kernel backend behind the bit-identity oracle pattern.

numba is an *optional* dependency (``pip install .[compiled]``); this module
is the import guard between it and the rest of the engine, mirroring how
``transport.py`` guards :mod:`multiprocessing.shared_memory`:

- :func:`compiled_available` probes ``import numba`` once and caches the
  verdict for the process.
- :func:`resolve_kernel` turns the configured ``kernel`` into a concrete
  backend: ``"compiled"`` without numba is a :class:`ConfigurationError`,
  ``"auto"`` falls back silently to the numpy kernels (identical results,
  only slower).
- :func:`kernel_context` activates the backend for the calling thread's
  kernel invocations via :func:`repro.core.policies.vectorized.kernel_ops`.

The RNG-discipline boundary (see DESIGN.md): on ``kernel="compiled"`` all
random draws stay on the spawn-indexed numpy ``Generator`` exactly as on the
numpy path — only the deterministic per-row clock-matrix searches
(``min_and_slot``, ``min_excluding``, ``second_smallest``) are compiled, as
``@njit(parallel=True)`` prange scans.  Those primitives are pure
*selections* (they return elements of the matrix, never recomputed values),
so the compiled backend is bit-identical to numpy by construction — asserted
per policy × geometry × biasing in ``tests/core/test_compiled.py``.

``kernel="fused"`` crosses that boundary: the whole event loop — draws
included — runs inside nopython code (:mod:`repro.core.montecarlo.fused`),
which drops cross-backend equality to the statistically-pinned protocol
(``tests/core/test_fused.py``) in exchange for removing the per-round numpy
overhead entirely.  Within the fused backend determinism is still exact:
``workers=N`` stays bit-identical to ``workers=1``.  This module stays the
single source of kernel-name truth; the fused module owns its loops.
"""

from __future__ import annotations

import contextlib
import functools
import types
from typing import Optional

from repro.core.policies import vectorized as _vectorized
from repro.exceptions import ConfigurationError

__all__ = [
    "KERNELS",
    "compiled_available",
    "compiled_ops",
    "fused_available",
    "has_compiled_face",
    "has_fused_face",
    "kernel_context",
    "reset_compiled_state",
    "resolve_kernel",
    "warmup_compiled",
]

#: Accepted kernel backends: "auto" prefers the compiled scans when numba is
#: importable and otherwise runs numpy (silently: numba is optional); "numpy",
#: "compiled" and "fused" force their backend ("compiled"/"fused" error
#: without numba).  "auto" never resolves to "fused" — the fused loops own
#: their draw discipline, so trading bit-identity for speed is explicit.
KERNELS = ("auto", "numpy", "compiled", "fused")

#: Cached verdict of the numba import probe (None = not probed yet).
_NUMBA_USABLE: Optional[bool] = None

#: Lazily built table of compiled primitives (shared process-wide; numba
#: dispatchers are thread-safe, so thread-pool shards reuse one table).
_OPS = None

#: Batch kernels whose hot loops route through the compiled row searches.
#: ``batch_erasure`` is deliberately absent: its flat aggregate-clock kernel
#: uses none of the clock-matrix search primitives, so ``kernel=compiled``
#: runs the identical numpy path for erasure policies (still bit-identical,
#: trivially) — erasure's compiled face is the fused event loop instead
#: (``has_compiled_face`` ORs in ``has_fused_face``).  ``batch_baseline``
#: wraps ``batch_conventional``.
_COMPILED_FACES = frozenset({"batch_conventional", "batch_spare_pool", "batch_baseline"})


def compiled_available() -> bool:
    """Return whether numba is importable, probing once per process."""
    global _NUMBA_USABLE
    if _NUMBA_USABLE is None:
        try:
            import numba  # noqa: F401
        except Exception:
            _NUMBA_USABLE = False
        else:
            _NUMBA_USABLE = True
    return _NUMBA_USABLE


def reset_compiled_state() -> None:
    """Forget the cached probe and built ops (test hook)."""
    global _NUMBA_USABLE, _OPS
    _NUMBA_USABLE = None
    _OPS = None


def resolve_kernel(kernel: str) -> str:
    """Resolve a configured kernel to a concrete backend name.

    Returns ``"numpy"``, ``"compiled"`` or ``"fused"``.  Parents resolve
    before dispatching shards so workers receive a concrete value.
    ``auto`` without numba is the default path, not a misconfiguration, so
    it resolves to numpy without a warning.
    """
    if kernel not in KERNELS:
        raise ConfigurationError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel == "numpy":
        return "numpy"
    if kernel == "fused":
        from repro.core.montecarlo.fused import FUSED_PUREPY_ENV, fused_available

        if not fused_available():
            raise ConfigurationError(
                "kernel='fused' requires numba, which is not importable; "
                "install the optional extra (pip install '.[compiled]'), "
                f"set {FUSED_PUREPY_ENV}=1 to accept the pure-Python "
                "fallback, or use kernel='auto' / 'numpy'"
            )
        return "fused"
    if kernel == "compiled":
        if not compiled_available():
            raise ConfigurationError(
                "kernel='compiled' requires numba, which is not importable; "
                "install the optional extra (pip install '.[compiled]') or "
                "use kernel='auto' / 'numpy'"
            )
        return "compiled"
    # kernel == "auto"
    return "compiled" if compiled_available() else "numpy"


def compiled_ops():
    """Return the process-wide compiled-ops table, building it on first use."""
    global _OPS
    if _OPS is None:
        if not compiled_available():  # pragma: no cover - guarded by callers
            raise ConfigurationError("compiled ops requested but numba is not importable")
        _OPS = _build_ops()
    return _OPS


def warmup_compiled() -> None:
    """Trigger JIT compilation of every compiled primitive and fused loop.

    Benchmarks call this before timing so the one-time nopython compile is
    excluded from the measured window; with ``cache=True`` on every kernel
    the compiles also land in the on-disk numba cache CI restores.
    """
    import numpy as np

    from repro.core.montecarlo.fused import warmup_fused

    ops = compiled_ops()
    clocks = np.array([[2.0, 1.0, 3.0], [np.inf, 5.0, 4.0]])
    exclude = np.array([1, 2])
    ops.min_and_slot(clocks)
    ops.min_excluding(clocks, exclude)
    ops.second_smallest(clocks)
    warmup_fused()


def _build_ops():
    """Compile the three row-search primitives as parallel prange scans.

    Exactness contract with the numpy helpers in ``policies/vectorized.py``
    (asserted in tests, relied on for bit-identity):

    - ``min_and_slot``: ties resolve to the lowest column, matching
      ``np.argmin`` — the scan only moves on strict ``<``.
    - ``min_excluding``: replicates "mask one instance at column
      ``exclude[row]`` to inf, then argmin", including rows whose remaining
      clocks are all inf (slot 0 with value inf when column 0 is excluded
      and the rest are inf, exactly as argmin over an all-inf row gives 0).
    - ``second_smallest``: returns ``(slot, second)``, ``min_and_slot``'s
      slot beside a two-running-minima scan's second order statistic,
      duplicates included; clocks are sampled times or inf, never NaN.

    The numpy helpers run the same selections as column passes, so the two
    backends differ in loop order only.
    """
    import numba
    import numpy as np

    @numba.njit(parallel=True, cache=True)
    def min_and_slot(clocks):
        m, n = clocks.shape
        slot = np.empty(m, dtype=np.int64)
        best = np.empty(m, dtype=np.float64)
        for i in numba.prange(m):
            s = 0
            b = clocks[i, 0]
            for j in range(1, n):
                v = clocks[i, j]
                if v < b:
                    b = v
                    s = j
            slot[i] = s
            best[i] = b
        return slot, best

    @numba.njit(parallel=True, cache=True)
    def min_excluding(clocks, exclude):
        m, n = clocks.shape
        slot = np.empty(m, dtype=np.int64)
        best = np.empty(m, dtype=np.float64)
        for i in numba.prange(m):
            e = exclude[i]
            s = 0
            b = np.inf if e == 0 else clocks[i, 0]
            for j in range(1, n):
                v = np.inf if j == e else clocks[i, j]
                if v < b:
                    b = v
                    s = j
            slot[i] = s
            best[i] = b
        return slot, best

    @numba.njit(parallel=True, cache=True)
    def second_smallest(clocks):
        m, n = clocks.shape
        slot = np.empty(m, dtype=np.int64)
        second = np.empty(m, dtype=np.float64)
        for i in numba.prange(m):
            s = 0
            m1 = clocks[i, 0]
            m2 = np.inf
            for j in range(1, n):
                v = clocks[i, j]
                if v < m1:
                    m2 = m1
                    m1 = v
                    s = j
                elif v < m2:
                    m2 = v
            slot[i] = s
            second[i] = m2
        return slot, second

    # The ops table ``vectorized.kernel_ops`` expects.  (A class body cannot
    # rebind these names: it does not see this function's locals.)
    return types.SimpleNamespace(
        min_and_slot=min_and_slot,
        min_excluding=min_excluding,
        second_smallest=second_smallest,
    )


@contextlib.contextmanager
def kernel_context(kernel: str):
    """Activate the resolved backend for this thread's kernel invocations.

    Yields the concrete backend name.  ``"numpy"`` is a no-op (the
    primitives' default path); ``"compiled"`` routes the row searches
    through the njit scans for the duration of the block.  Safe to enter
    inside thread-pool workers — the routing is thread-local.  The fused
    backend replaces the whole batch kernel rather than its primitives, so
    it never flows through here — dispatchers branch to
    :func:`repro.core.montecarlo.fused.run_fused_batch` first.
    """
    resolved = resolve_kernel(kernel)
    if resolved == "fused":
        raise ConfigurationError(
            "kernel='fused' replaces the whole batch kernel; dispatch it "
            "via run_fused_batch, not kernel_context"
        )
    if resolved == "compiled":
        with _vectorized.kernel_ops(compiled_ops()):
            yield "compiled"
    else:
        yield "numpy"


def fused_available() -> bool:
    """Return whether ``kernel="fused"`` may be selected (see the fused module)."""
    from repro.core.montecarlo import fused as _fused

    return _fused.fused_available()


def has_fused_face(policy) -> bool:
    """Return whether a policy's batch kernel has a fused event loop."""
    from repro.core.montecarlo import fused as _fused

    return _fused.has_fused_face(policy)


def has_compiled_face(policy) -> bool:
    """Return whether compiled backends accelerate this policy's batch kernel.

    True when the kernel routes through the compiled row searches
    (``kernel="compiled"``) *or* has a fused event loop (``kernel="fused"``
    — how the erasure family gets its compiled face).  Unwraps
    ``functools.partial`` layers (the spare-pool and erasure policies
    register partials) before matching.
    """
    batch = getattr(policy, "batch", None)
    while isinstance(batch, functools.partial):
        batch = batch.func
    if batch is None:
        return False
    if getattr(batch, "__name__", None) in _COMPILED_FACES:
        return True
    return has_fused_face(policy)
