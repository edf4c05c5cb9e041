"""Zero-copy shared-memory transport of stacked parameter planes.

The stacked sweep engine used to re-pickle every shard's parameter points
into the worker processes, where each worker rebuilt its
:class:`~repro.core.policies.stacked.StackedParams` slice from scalars —
per shard, per round.  This module moves a sweep's parameter planes across
the process boundary **once**:

* :class:`SharedGridPlanes` materialises the whole grid's broadcast arrays
  (rates, hep, geometry, spare counts) into one
  :mod:`multiprocessing.shared_memory` segment, laid out field after field
  in :data:`repro.core.policies.stacked.STACKED_PLANE_FIELDS` order;
* workers attach by segment name and address their shard as a **row-range
  view** — no copy, no pickling of grid-sized arrays
  (:func:`attach_grid_slice`);
* the parent unlinks the segment when the sweep leaves the context
  (exception paths included), so no ``/dev/shm`` entries outlive a run.

The segment layout is deliberately trivial — every plane is a contiguous
1-d array of ``n_rows`` items at a deterministic offset — so a spec of
``(segment name, n_rows, has_spares)`` fully describes the attach protocol;
that spec is the only thing pickled per shard.

Transport selection lives in :func:`resolve_stacked_transport`: ``"auto"``
resolves to the pickle path on process pools, and shared memory runs only
when ``transport="shm"`` asks for it (and is usable here: probed once, not
assumed from the platform).  Both transports feed the kernels
value-identical parameter rows, so results are byte-identical.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies.stacked import (
    OPTIONAL_PLANE_FIELD,
    SCHEME_PLANE_FIELDS,
    STACKED_PLANE_FIELDS,
    StackedParams,
    stacked_from_planes,
)
from repro.exceptions import ConfigurationError

__all__ = [
    "SHM_SEGMENT_PREFIX",
    "TRANSPORTS",
    "GridPlanesSpec",
    "SharedGridPlanes",
    "active_segments",
    "attach_grid_slice",
    "attach_segment",
    "attach_segment_cached",
    "reap_stale_segments",
    "resolve_stacked_transport",
    "shared_memory_available",
]

#: Accepted ``MonteCarloConfig.transport`` values.
TRANSPORTS = ("auto", "shm", "pickle")

#: Name prefix of every segment this module creates — the handle the leak
#: tests (and curious operators, via ``ls /dev/shm``) grep for.
SHM_SEGMENT_PREFIX = "repro-mc-"

#: Cached result of the one-time shared-memory probe.
_SHM_USABLE: Optional[bool] = None


def _segment_name() -> str:
    """Return a fresh collision-free segment name.

    The creator's pid is embedded (in hex) so a later process can tell a
    *stale* segment — creator no longer alive — from a live one without any
    registry file; see :func:`reap_stale_segments`.
    """
    return f"{SHM_SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}"


#: Per-process registry of live :class:`SharedGridPlanes`.  The atexit
#: sweep below disposes whatever is still registered when the interpreter
#: exits — the window this closes is the parent dying (unhandled exception,
#: ``sys.exit``) *between* segment creation and the executor's ``finally``
#: taking ownership.  SIGKILL skips atexit by definition; those segments
#: are recovered by :func:`reap_stale_segments` on the next run instead.
_LIVE_PLANES: "set" = set()
_ATEXIT_REGISTERED = False


def _register_live(planes: "SharedGridPlanes") -> None:
    global _ATEXIT_REGISTERED
    _LIVE_PLANES.add(planes)
    if not _ATEXIT_REGISTERED:
        atexit.register(_dispose_live_planes)
        _ATEXIT_REGISTERED = True


def _dispose_live_planes() -> None:
    """Atexit hook: unlink every segment this process still owns."""
    for planes in list(_LIVE_PLANES):
        planes.dispose()


def _segment_owner_pid(name: str) -> Optional[int]:
    """Parse the creator pid out of a segment name (``None`` if malformed)."""
    stem = name[len(SHM_SEGMENT_PREFIX):]
    head, _, _ = stem.partition("-")
    try:
        return int(head, 16)
    except ValueError:
        return None


def reap_stale_segments() -> List[str]:
    """Unlink repro segments whose creator process is gone; return names.

    A segment is stale when the pid embedded in its name no longer exists
    (``os.kill(pid, 0)`` raises ``ProcessLookupError``) — the SIGKILL'd
    parent that atexit could not cover.  Segments of live pids (including
    this process's own) are left alone: they may still be mid-sweep.  Runs
    automatically at the start of every shm-transport sweep and on demand
    via ``repro mc --reap-shm``.
    """
    reaped: List[str] = []
    for name in active_segments():
        pid = _segment_owner_pid(name)
        if pid is None or pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # creator still alive — not ours to reap
        except ProcessLookupError:
            pass
        except PermissionError:
            continue  # alive, owned by another user
        try:
            segment = attach_segment(name)
            segment.close()
            segment.unlink()
            reaped.append(name)
        except FileNotFoundError:  # pragma: no cover - raced another reaper
            continue
        except Exception:  # pragma: no cover - leave undeletable entries
            continue
    return reaped


def shared_memory_available() -> bool:
    """Return whether POSIX shared memory actually works here (probed once).

    Some minimal containers expose the API but no usable backing mount, so
    the ``auto`` transport trusts a live create/attach round-trip, not the
    platform name.
    """
    global _SHM_USABLE
    if _SHM_USABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(
                create=True, size=8, name=_segment_name()
            )
            try:
                probe.buf[0] = 1
            finally:
                probe.close()
                probe.unlink()
            _SHM_USABLE = True
        except Exception:
            _SHM_USABLE = False
    return _SHM_USABLE


def resolve_stacked_transport(transport: str, pooled: bool) -> str:
    """Resolve a config's transport to the concrete execution mode.

    Returns one of ``"pickle"`` (per-shard scalar rebuild in the worker),
    ``"view"`` (single process or thread pool: shards slice the
    materialised grid directly, with no segment at all), or ``"shm"``
    (planes in a shared segment, workers attach).

    ``pooled`` says whether shards will cross a process boundary.
    ``"auto"`` resolves to ``"pickle"`` there: shared memory never beat it
    on this model's ten-scalar points, and it maps a grid-sized segment
    besides.  Shared memory runs only on an explicit ``"shm"`` request,
    which is an error rather than a silent fallback on a host without
    usable shared memory.
    """
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == "pickle" or (transport == "auto" and pooled):
        return "pickle"
    if not pooled:
        return "view"
    if not shared_memory_available():
        raise ConfigurationError(
            "transport='shm' was requested but POSIX shared memory is not "
            "usable on this host; use transport='auto' or 'pickle'"
        )
    return "shm"


def _plane_layout(
    n_rows: int, has_spares: bool, has_schemes: bool = False
) -> Tuple[List[Tuple[str, np.dtype, int]], int]:
    """Return the ``(name, dtype, byte offset)`` of every plane + total size."""
    fields = list(STACKED_PLANE_FIELDS)
    if has_spares:
        fields.append(OPTIONAL_PLANE_FIELD)
    if has_schemes:
        fields.extend(SCHEME_PLANE_FIELDS)
    layout: List[Tuple[str, np.dtype, int]] = []
    offset = 0
    for name, dtype in fields:
        dt = np.dtype(dtype)
        layout.append((name, dt, offset))
        offset += int(n_rows) * dt.itemsize
    return layout, offset


@dataclass(frozen=True)
class GridPlanesSpec:
    """Picklable attach protocol of one sweep's shared parameter planes.

    A few values describe the whole segment: plane order and dtypes are
    fixed by :data:`~repro.core.policies.stacked.STACKED_PLANE_FIELDS` (plus
    the optional spare and scheme planes the two flags announce), so
    offsets are recomputed identically on both sides of the process
    boundary.  This spec — not the planes — is what each shard submission
    pickles.
    """

    name: str
    n_rows: int
    has_spares: bool
    has_schemes: bool = False


#: ``StackedParams`` plane name -> source attribute on a scalar
#: ``AvailabilityParameters`` point (identity unless listed).
_POINT_ATTRS = {"n_disks_rows": "n_disks"}


class SharedGridPlanes:
    """A sweep grid's parameter planes, materialised in shared memory once.

    Context-managed: entering returns the planes object, leaving closes
    *and unlinks* the segment on every exit path (normal completion,
    executor failure, adaptive early-stop), which is what keeps
    ``/dev/shm`` clean after crashed sweeps.  ``dispose`` is idempotent so
    belt-and-braces callers may also unlink from a ``finally``.

    Build with :meth:`from_points` when the grid exists as per-point
    scalars (the sweep case): the planes are then written **directly** into
    the segment, point range by point range — one pass over the grid bytes,
    no intermediate full-size arrays.  The plain constructor copies an
    already-materialised :class:`StackedParams` instead.
    """

    def __init__(self, grid: StackedParams) -> None:
        n_rows = len(grid)
        has_spares = grid.n_spares_rows is not None
        has_schemes = grid.has_schemes
        self._allocate(n_rows, has_spares, has_schemes)
        try:
            for name, dt, offset in _plane_layout(n_rows, has_spares, has_schemes)[0]:
                view = np.ndarray((n_rows,), dtype=dt, buffer=self._shm.buf, offset=offset)
                np.copyto(view, getattr(grid, name))
                del view  # release the buffer export so close() can succeed
        except BaseException:
            self.dispose()
            raise

    @classmethod
    def from_points(cls, points, counts, schemes=None) -> "SharedGridPlanes":
        """Materialise per-point scalars straight into a fresh segment.

        ``points[i]`` contributes ``counts[i]`` consecutive rows, exactly
        like :func:`repro.core.policies.stacked.stack_parameter_points` —
        each plane value is the same float64/int64 scalar either way, so
        the planes are bit-identical to the repack-then-copy construction
        while touching every grid byte exactly once.  ``schemes`` attaches
        one periodic redundancy scheme per point (resolved against that
        point's geometry), adding the three per-row scheme planes.
        """
        sizes = [int(c) for c in counts]
        if len(points) == 0 or len(sizes) != len(points):
            raise ConfigurationError("one lifetime count is required per parameter point")
        if any(size < 1 for size in sizes):
            raise ConfigurationError("every stacked point needs at least one lifetime")
        scheme_values: Dict[str, List[object]] = {}
        if schemes is not None:
            if len(schemes) != len(points):
                raise ConfigurationError("one scheme is required per parameter point")
            resolved = [
                scheme.resolve(point) if hasattr(scheme, "resolve") else scheme
                for scheme, point in zip(schemes, points)
            ]
            if any(not r.is_periodic for r in resolved):
                raise ConfigurationError(
                    "shared scheme planes need periodic schemes (a check period)"
                )
            scheme_values = {
                "k_rows": [r.k for r in resolved],
                "repair_threshold_rows": [r.repair_threshold for r in resolved],
                "check_period_rows": [r.check_period_hours for r in resolved],
            }
        n_rows = sum(sizes)
        planes = cls.__new__(cls)
        planes._allocate(n_rows, has_spares=False, has_schemes=schemes is not None)
        try:
            for name, dt, offset in _plane_layout(n_rows, False, schemes is not None)[0]:
                view = np.ndarray((n_rows,), dtype=dt, buffer=planes._shm.buf, offset=offset)
                if name in scheme_values:
                    values = scheme_values[name]
                    start = 0
                    for value, size in zip(values, sizes):
                        view[start : start + size] = value
                        start += size
                else:
                    attr = _POINT_ATTRS.get(name, name)
                    start = 0
                    for point, size in zip(points, sizes):
                        view[start : start + size] = getattr(point, attr)
                        start += size
                del view
        except BaseException:
            planes.dispose()
            raise
        return planes

    def _allocate(self, n_rows: int, has_spares: bool, has_schemes: bool = False) -> None:
        from multiprocessing import shared_memory

        _, size = _plane_layout(n_rows, has_spares, has_schemes)
        self._shm = shared_memory.SharedMemory(
            create=True, size=size, name=_segment_name()
        )
        self.spec = GridPlanesSpec(
            name=self._shm.name,
            n_rows=n_rows,
            has_spares=has_spares,
            has_schemes=has_schemes,
        )
        self._disposed = False
        # Registered the moment the segment exists: should this process die
        # before the executor's finally-block takes over, the atexit sweep
        # still unlinks it.
        _register_live(self)

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent, never raises)."""
        if getattr(self, "_disposed", False):
            return
        self._disposed = True
        try:
            _LIVE_PLANES.discard(self)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except Exception:
            pass

    def __enter__(self) -> "SharedGridPlanes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.dispose()


def attach_segment(name: str):
    """Attach an existing segment without taking cleanup ownership.

    On Python 3.13+ ``track=False`` skips resource-tracker registration
    outright.  Older interpreters register every attach — but pool workers
    (forked *and* spawned) share the parent's tracker process, where the
    registry is a per-name set: the worker's registration is an idempotent
    no-op and the parent's ``unlink`` performs the one unregister.  Nothing
    to undo worker-side, and explicitly unregistering there would instead
    strip the parent's entry (spurious tracker ``KeyError`` at unlink, and
    no crash cleanup should the whole tree die before unlinking).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name, create=False)


#: Single-slot per-process cache of the most recently attached segment.
_ATTACHED: Optional[Tuple[str, object]] = None


def attach_segment_cached(name: str):
    """Return this process's (cached) attachment of segment ``name``.

    A pool worker runs many shards of the same sweep; caching the one live
    segment avoids a ``shm_open``/``mmap`` round-trip per shard.  Attaching
    a *different* name (the next sweep) closes the previous mapping first,
    so a long-lived worker holds at most one segment mapped at any time —
    bounded memory even across many sweeps on a shared pool.
    """
    global _ATTACHED
    if _ATTACHED is not None:
        if _ATTACHED[0] == name:
            return _ATTACHED[1]
        try:
            _ATTACHED[1].close()
        except BufferError:  # pragma: no cover - lingering view; freed at exit
            pass
        _ATTACHED = None
    segment = attach_segment(name)
    _ATTACHED = (name, segment)
    return segment


def attach_grid_slice(
    spec: GridPlanesSpec,
    buf,
    start: int,
    stop: int,
    segments: Optional[Sequence[int]] = None,
) -> StackedParams:
    """Build a worker's grid slice as read-only views of an attached buffer.

    ``buf`` is the attached segment's buffer; the returned
    :class:`StackedParams` holds zero-copy row-range views ``[start, stop)``
    of every plane, marked non-writable so a kernel bug can never corrupt
    the planes other workers are reading.  ``segments`` are the slice's
    point segments (the shard's ``counts``).
    """
    if not 0 <= start < stop <= spec.n_rows:
        raise ConfigurationError(
            f"invalid plane slice [{start}, {stop}) of {spec.n_rows} rows"
        )
    layout, _ = _plane_layout(spec.n_rows, spec.has_spares, spec.has_schemes)
    planes: Dict[str, np.ndarray] = {}
    for name, dt, offset in layout:
        view = np.ndarray(
            (stop - start,),
            dtype=dt,
            buffer=buf,
            offset=offset + start * dt.itemsize,
        )
        view.flags.writeable = False
        planes[name] = view
    return stacked_from_planes(planes, segments=segments)


def active_segments() -> List[str]:
    """Return the names of live repro segments (Linux ``/dev/shm`` view).

    Used by the lifecycle tests to assert that no segment outlives its
    sweep; returns an empty list on hosts without a ``/dev/shm`` mount.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.glob(SHM_SEGMENT_PREFIX + "*"))
