"""Steadiness report: run one workload N times and judge each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload mc_grid --runs 10 [--first-seed 1]

Each run is ``run.py`` with its own seed and the ``run_seconds`` of
BENCHMARK.json, one after another.  For every end-to-end metric the report
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median, against that metric's bound.
A spread above its bound is flagged ``UNRESOLVED``: a change that moves the
metric by less than the spread cannot be told from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """Return ``(median, q1, q3, (q3 - q1) / median)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"run failed for {workload} seed {seed}:\n{completed.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"])
        failed += result["failed"]
        attempted += result["attempted"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    unresolved = []
    print(f"\n{args.workload}: {args.runs} runs, ops failed {failed}/{attempted}")
    print(f"{'metric':>14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        median, q1, q3, share = spread(values[name])
        flag = ""
        if share > bound:
            flag = "  UNRESOLVED"
            unresolved.append(name)
        elif share > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"{name:>14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.3f} {bound:>6.2f}{flag}")
    return 1 if unresolved or failed else 0


if __name__ == "__main__":
    sys.exit(main())
