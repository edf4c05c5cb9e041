"""Records of the uncompacted ("gathered") kernel loops, and their check.

The batch kernels once had a second, uncompacted copy of each event loop
that kept every lifetime's row until the end instead of dropping finished
rows.  ``gathered_records.json`` holds what those loops produced on the
compaction-equivalence and biased-kernel cases, recorded before they were
deleted; it cannot be regenerated.  The compacted loops must keep
reproducing it: the same draws in the same order, the same event counters
for every lifetime, and the same per-point summaries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.montecarlo import segment_point_records

RECORDS = json.loads(
    Path(__file__).with_name("gathered_records.json").read_text(encoding="utf-8")
)

#: Per-lifetime integer counters, compared exactly through one digest.
EVENT_FIELDS = ("du_events", "dl_events", "disk_failures", "human_errors")

#: Float fields of the per-point summaries; compared to ``rtol=1e-12``
#: because the biased weights go through SIMD ``exp``/``log``/``power``.
SUMMARY_FIELDS = ("mean", "m2", "w_sum", "w2_sum", "downtime_hours", *EVENT_FIELDS)


def event_digest(batch) -> str:
    """Return the sha256 of the per-lifetime event counters, in field order."""
    digest = hashlib.sha256()
    for name in EVENT_FIELDS:
        digest.update(np.ascontiguousarray(getattr(batch, name), dtype="<i8").tobytes())
    return digest.hexdigest()


def assert_matches_gathered(
    case: str, batch, counts: Sequence[int], rng: np.random.Generator
) -> None:
    """Assert that one kernel run reproduces the gathered loop's record."""
    want = RECORDS[case]
    assert rng.bit_generator.state == want["state"], "a different draw sequence"
    assert event_digest(batch) == want["events_sha256"], "different event counters"
    records = segment_point_records(batch, range(len(counts)), counts)
    assert records["n"].tolist() == [record["n"] for record in want["records"]]
    for name in SUMMARY_FIELDS:
        np.testing.assert_allclose(
            records[name],
            [record[name] for record in want["records"]],
            rtol=1e-12,
            atol=0.0,
            err_msg=name,
        )
