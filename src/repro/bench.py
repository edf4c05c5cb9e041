"""Machine-readable benchmark trajectory handling (``BENCH_sweep.json``).

The benchmark harness (``benchmarks/conftest.py``) records one entry per
headline measurement — op name, problem size, wall-clock seconds, speedup.
Historically each session *overwrote* ``BENCH_sweep.json``, so the file
only ever showed the latest run and the performance trajectory across PRs
lived nowhere.  This module makes the file an append-only history:

* every session appends one **run** keyed by git commit and UTC timestamp
  (schema v2, :data:`BENCH_SCHEMA_VERSION`);
* legacy single-run files are migrated transparently on load;
* ``python -m repro bench history`` prints the per-op speedup trend, and
  ``python -m repro bench table`` renders each op's newest record as the
  markdown performance table embedded in the README.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.exceptions import ConfigurationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "append_run",
    "git_commit",
    "load_history",
    "render_history",
    "render_latest_table",
]

#: Version tag of the append-only history schema.
BENCH_SCHEMA_VERSION = 2


def git_commit(repo_root: Optional[Path] = None) -> Optional[str]:
    """Return the short commit hash of ``repo_root`` (``None`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_root) if repo_root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _migrate(payload: Dict) -> Dict:
    """Normalise any historical file layout to the schema-v2 shape."""
    if "runs" in payload:
        return {"schema": BENCH_SCHEMA_VERSION, "runs": list(payload["runs"])}
    if "results" in payload:
        # Legacy overwrite-style file: one anonymous run.
        run = {
            "generated_at": payload.get("generated_at"),
            "commit": payload.get("commit"),
            "python": payload.get("python"),
            "machine": payload.get("machine"),
            "results": list(payload["results"]),
        }
        return {"schema": BENCH_SCHEMA_VERSION, "runs": [run]}
    return {"schema": BENCH_SCHEMA_VERSION, "runs": []}


def load_history(path: Path) -> Dict:
    """Load (and migrate) the benchmark history at ``path``."""
    path = Path(path)
    if not path.exists():
        return {"schema": BENCH_SCHEMA_VERSION, "runs": []}
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read benchmark history {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(f"benchmark history {path} is not a JSON object")
    return _migrate(payload)


def append_run(
    path: Path,
    results: List[Dict[str, object]],
    *,
    commit: Optional[str] = None,
    generated_at: Optional[str] = None,
) -> Dict:
    """Append one run to the history file and return the updated payload.

    ``commit`` defaults to the current git head of the file's directory;
    ``generated_at`` defaults to now (UTC).  Existing runs — including runs
    recorded by the legacy overwrite schema — are preserved, so the perf
    trajectory accumulates across PRs instead of resetting.
    """
    path = Path(path)
    history = load_history(path)
    run = {
        "generated_at": generated_at
        or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit if commit is not None else git_commit(path.parent),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": list(results),
    }
    history["runs"].append(run)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return history


def _format_entry(run: Dict, entry: Dict) -> str:
    commit = run.get("commit") or "-"
    when = run.get("generated_at") or "-"
    points = entry.get("points", "-")
    seconds = entry.get("seconds")
    speedup = entry.get("speedup")
    seconds_text = f"{seconds:.3f}" if isinstance(seconds, (int, float)) else "-"
    speedup_text = f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-"
    line = f"  {str(commit):<10}{when:<22}{str(points):>8}{seconds_text:>10}{speedup_text:>10}"
    # Fault-tolerance counters recorded by chaos/recovery measurements.
    extras = [
        f"{key.replace('_shards', '')}={entry[key]}"
        for key in ("retried_shards", "resumed_shards")
        if entry.get(key)
    ]
    # Spread of a median-of-repeats speedup.
    if "speedup_min" in entry and "speedup_max" in entry:
        extras.append(f"range={entry['speedup_min']:.2f}-{entry['speedup_max']:.2f}x")
    if extras:
        line += "  " + " ".join(extras)
    return line


def render_history(history: Dict, op: Optional[str] = None) -> str:
    """Render the speedup trend per op, one chronological line per run."""
    by_op: Dict[str, List[str]] = {}
    for run in history.get("runs", []):
        for entry in run.get("results", []):
            name = str(entry.get("op", "?"))
            if op is not None and name != op:
                continue
            by_op.setdefault(name, []).append(_format_entry(run, entry))
    if not by_op:
        scope = f" for op {op!r}" if op is not None else ""
        return f"no benchmark records{scope}; run 'pytest benchmarks/ -s' first"
    lines: List[str] = []
    header = f"  {'commit':<10}{'generated_at':<22}{'points':>8}{'seconds':>10}{'speedup':>10}"
    for name in sorted(by_op):
        lines.append(f"{name}:")
        lines.append(header)
        lines.extend(by_op[name])
        lines.append("")
    return "\n".join(lines).rstrip()


def render_latest_table(history: Dict) -> str:
    """Render each op's newest record as the README's markdown table.

    A session may run only some of the benches, so the newest run alone
    is not the current table.  Every op takes its record from the newest
    run that holds it, rows keep the order in which the ops first
    appeared, and a ``commit`` column names each row's run.  The header
    comment names the newest run.
    """
    runs = history.get("runs", [])
    if not runs:
        return "no benchmark records; run 'pytest benchmarks/ -s' first"
    newest: Dict[str, tuple] = {}
    for run in runs:
        for entry in run.get("results", []):
            # Re-assigning a key keeps its first position in the dict.
            newest[str(entry.get("op", "?"))] = (run, entry)
    lines = [
        "| op | commit | points | seconds | speedup | variance efficiency |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for op, (run, entry) in newest.items():
        points = entry.get("points", "")
        seconds = entry.get("seconds")
        speedup = entry.get("speedup")
        efficiency = entry.get("variance_efficiency")
        seconds_text = f"{seconds:.3f}" if isinstance(seconds, (int, float)) else ""
        speedup_text = f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else ""
        efficiency_text = (
            f"{efficiency:.0f}x" if isinstance(efficiency, (int, float)) else ""
        )
        lines.append(
            f"| {op} | {run.get('commit') or '-'} | {points} | {seconds_text} | "
            f"{speedup_text} | {efficiency_text} |"
        )
    latest = runs[-1]
    meta = (
        f"<!-- generated from BENCH_sweep.json @ {latest.get('commit') or 'unknown'} "
        f"({latest.get('generated_at') or 'unknown'}) — regenerate with: "
        "python -m repro bench table -->"
    )
    return "\n".join([meta] + lines)
