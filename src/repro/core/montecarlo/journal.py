"""Durable shard journal: checkpoint/resume for sharded Monte Carlo runs.

A sharded run is a deterministic function of its master seed: the shard
decomposition, every shard's spawn-indexed stream family, and the plan-order
merge are all derived from configuration alone.  That makes completed shard
summaries *content-addressable* — a shard's record array is fully identified
by (run digest, stream index, flat row range) — which is what this journal
exploits: completed shards are appended to an on-disk JSONL file as they are
collected, and a later run with the same digest skips them, merging the
journaled records in plan order exactly where the live records would have
gone.  A killed 10^8-lifetime sweep therefore restarts where it died and
produces bit-identical final moments, because resumed records *are* the
records the uninterrupted run would have computed.

File format (JSONL, one object per line)
----------------------------------------
The first line is a header::

    {"kind": "header", "version": 4, "digest": "<sha256>",
     "master_entropy": 1234..., "key": {...}}

``digest`` is the SHA-256 of the canonical (sorted-key) JSON of everything
that determines the run's numbers: policy name and redundancy scheme,
parameter reprs, horizon, per-point lifetime counts, master entropy, shard
size, CRN mode, biasing, and the adaptive controls (target, ceilings,
allocator, confidence) and :data:`JOURNAL_VERSION`.  The key also carries
``"kernel": "numpy"``, a constant left from when the kernel was an option.
Execution knobs that provably do **not** change results
— worker count, pool kind, transport, retry settings — are excluded, so a
journal written by a 4-worker shm run resumes under a single serial worker
(and vice versa).  A single-point run with an unpinned ``shard_size``
records the default shard size it was cut into instead
(``"default_shard_size"``), so a journal from a build that derived that
decomposition from the worker count (and keyed ``"workers"``) is refused
rather than spliced into a different one.

Every other line is one completed shard::

    {"kind": "shard", "key": [stream_index, start, stop],
     "records": "<base64 of POINT_SUMMARY_DTYPE bytes>"}

``start``/``stop`` are ``-1`` for single-point (scalar-path) shards.  The
key needs all three fields because CRN mode restarts stream indices at
every point boundary — ``stream_index`` alone is not unique there.

Appends are flushed and fsynced per shard, so the journal survives
``SIGKILL`` with at worst one torn trailing line; loading tolerates (and
truncates) a torn tail.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.montecarlo.batch import (
    POINT_SUMMARY_DTYPE,
    POINT_SUMMARY_TOTAL_FIELDS,
    unpack_record,
)
from repro.core.montecarlo.config import DEFAULT_SHARD_CAP
from repro.exceptions import ConfigurationError
from repro.simulation.confidence import StreamingMoments

__all__ = [
    "JOURNAL_VERSION",
    "SCALAR_RANGE",
    "ShardJournal",
    "journal_entropy",
    "record_from_summary",
    "run_digest",
    "summary_parts_from_record",
]

#: Format version written to every journal header and carried in the run
#: digest.  Raised whenever the same configuration starts making different
#: draws, so that a journal written by an earlier build is refused instead
#: of spliced into a run whose live shards come out differently.  Version 2:
#: unbiased exponential ``conventional``/``baseline`` runs draw from one
#: aggregate failure clock per lifetime.  Version 3: so do unbiased
#: exponential ``automatic_failover``/``hot_spare_pool`` runs.  Version 4:
#: those four draw each repair or rebuild window as one race, an
#: exponential duration and one uniform, in place of two clocks and a
#: Bernoulli.  Version 5: they draw how many lifetimes of each point
#: segment fail before the horizon as one binomial, and only those
#: lifetimes' first failures, where version 4 drew every lifetime's.
JOURNAL_VERSION = 5

#: ``(start, stop)`` sentinel of single-point (scalar-path) shard keys.
SCALAR_RANGE = (-1, -1)

#: A shard's identity inside one run: ``(stream_index, start, stop)``.
ShardKey = Tuple[int, int, int]


def run_digest(
    configs: Sequence,
    policy,
    *,
    master_entropy: int,
    shard_size: Optional[int],
    crn: bool = False,
    scalar: bool = False,
) -> Tuple[str, Dict[str, object]]:
    """Return ``(digest, key)`` identifying a run's numerical content.

    ``configs`` is the stacked grid (or the one-element list of a scalar
    run) and ``policy`` the resolved policy object.  ``shard_size=None`` on
    the scalar path records the default shard size in the key (see the
    module docstring).
    """
    first = configs[0]
    key: Dict[str, object] = {
        "version": JOURNAL_VERSION,
        "policy": policy.name,
        "scheme": repr(getattr(policy, "scheme", None)),
        "params": [repr(config.params) for config in configs],
        "horizon_hours": float(first.horizon_hours),
        "counts": [int(config.n_iterations) for config in configs],
        "master_entropy": int(master_entropy),
        "shard_size": None if shard_size is None else int(shard_size),
        "crn": bool(crn),
        # Constant, left in the key from when the kernel was an option.
        "kernel": "numpy",
        "biasing": None if first.biasing is None else float(first.biasing),
        "confidence": float(first.confidence),
        "target_half_width": (
            None
            if first.target_half_width is None
            else float(first.target_half_width)
        ),
        "scalar": bool(scalar),
    }
    if first.target_half_width is not None:
        key["allocator"] = str(first.allocator)
        key["ceilings"] = [int(config.adaptive_ceiling) for config in configs]
    if scalar and shard_size is None:
        key["default_shard_size"] = DEFAULT_SHARD_CAP
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest, key


def record_from_summary(moments: StreamingMoments, totals: Dict[str, float]) -> np.ndarray:
    """Pack a scalar shard's summary into a one-row point record (point 0).

    The inverse of :func:`summary_parts_from_record`; together they let the
    journal (and the retry layer's bit-identity checks) speak one wire
    format — :data:`~repro.core.montecarlo.batch.POINT_SUMMARY_DTYPE` — for
    both the scalar and the stacked path.
    """
    record = np.zeros(1, dtype=POINT_SUMMARY_DTYPE)
    record["point"] = 0
    record["n"] = moments.n
    record["mean"] = moments.mean
    record["m2"] = moments.m2
    record["w_sum"] = moments.w_sum
    record["w2_sum"] = moments.w2_sum
    for field in POINT_SUMMARY_TOTAL_FIELDS:
        record[field] = float(totals.get(field, 0.0))
    return record


def summary_parts_from_record(
    records: np.ndarray,
) -> Tuple[StreamingMoments, Dict[str, float]]:
    """Unpack a one-row point record back into (moments, totals)."""
    if len(records) != 1:
        raise ConfigurationError(
            f"a scalar shard journals exactly one point record, got {len(records)}"
        )
    return unpack_record(records[0])


def journal_entropy(path: Union[str, Path]) -> Optional[int]:
    """Return the master entropy recorded in a journal header, if readable.

    Lets ``resume=`` runs omit the seed: the resumed run adopts the
    journaled run's entropy, which the digest check then verifies.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            line = handle.readline()
        header = json.loads(line)
        if header.get("kind") != "header":
            return None
        return int(header["master_entropy"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


class ShardJournal:
    """Append-only store of one run's completed shard records.

    Open with :meth:`open`: an existing journal is verified against the
    run digest and its completed shards become resumable; a fresh path
    starts a new journal.  :meth:`records` answers "was this shard already
    completed?", :meth:`append` durably adds a newly completed shard.
    """

    def __init__(
        self,
        path: Path,
        digest: str,
        entries: Dict[ShardKey, np.ndarray],
        handle,
    ) -> None:
        self.path = path
        self.digest = digest
        self._entries = entries
        self._handle = handle

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        digest: str,
        key: Dict[str, object],
        master_entropy: int,
        *,
        require_existing: bool = False,
    ) -> "ShardJournal":
        """Open (resuming) or create the journal at ``path``.

        A populated journal whose digest differs from ``digest`` is an
        error — resuming it would merge another run's numbers.  With
        ``require_existing`` (the ``resume=`` spelling) a missing journal
        is an error too; the ``checkpoint=`` spelling creates it.
        """
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            header, entries, good_size = cls._load(path)
            if header.get("digest") != digest:
                raise ConfigurationError(
                    f"journal {str(path)!r} records a different run "
                    f"(digest {header.get('digest')!r} != {digest!r}); "
                    "refusing to resume — pass a fresh checkpoint path or "
                    "match the original policy/params/seed/budget"
                )
            if good_size < path.stat().st_size:
                # Torn trailing line from a mid-write kill: drop it so the
                # next append starts on a clean line boundary.
                with path.open("r+b") as trunc:
                    trunc.truncate(good_size)
            handle = path.open("a", encoding="utf-8")
            return cls(path, digest, entries, handle)
        if require_existing:
            raise ConfigurationError(
                f"resume journal {str(path)!r} does not exist; "
                "use checkpoint= to start one"
            )
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("w", encoding="utf-8")
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "digest": digest,
            "master_entropy": int(master_entropy),
            "key": key,
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, digest, {}, handle)

    @staticmethod
    def _load(path: Path):
        """Parse the journal, tolerating a torn final line."""
        entries: Dict[ShardKey, np.ndarray] = {}
        header: Dict[str, object] = {}
        good_size = 0
        with path.open("rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # torn tail — everything before it is intact
                try:
                    payload = json.loads(raw)
                except ValueError:
                    break
                good_size += len(raw)
                if payload.get("kind") == "header":
                    header = payload
                elif payload.get("kind") == "shard":
                    key = tuple(int(part) for part in payload["key"])
                    data = base64.b64decode(payload["records"])
                    entries[key] = np.frombuffer(data, dtype=POINT_SUMMARY_DTYPE)
        if not header:
            raise ConfigurationError(
                f"journal {str(path)!r} has no readable header"
            )
        return header, entries, good_size

    def __len__(self) -> int:
        return len(self._entries)

    def records(self, key: ShardKey) -> Optional[np.ndarray]:
        """Return the journaled records of ``key``, or ``None``."""
        return self._entries.get((int(key[0]), int(key[1]), int(key[2])))

    def append(self, key: ShardKey, records: np.ndarray) -> None:
        """Durably record one completed shard (flush + fsync)."""
        key = (int(key[0]), int(key[1]), int(key[2]))
        if key in self._entries:
            return
        contiguous = np.ascontiguousarray(records)
        line = json.dumps(
            {
                "kind": "shard",
                "key": list(key),
                "records": base64.b64encode(contiguous.tobytes()).decode("ascii"),
            }
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[key] = contiguous

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.flush()
                self._handle.close()
            except ValueError:  # already closed
                pass
            self._handle = None

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
