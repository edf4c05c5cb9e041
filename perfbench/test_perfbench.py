"""Tests of the benchmark itself: exact counts, the result contract, spans.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

WORKLOADS = ("mc_point", "mc_grid", "rare_event", "analytical")

#: Per-layer values the program counts; a fixed seed and op count must
#: reproduce every one of them exactly.
EXACT_COUNTS = (
    "parallel.shards",
    "parallel.retries",
    "kernel.calls",
    "kernel.lifetimes",
    "kernel.events",
    "stacked.plane_bytes",
    "journal.appends",
    "journal.bytes",
    "allocator.rounds",
    "allocator.lifetimes",
    "allocator.ess_frac",
    "confidence.calls",
    "markov.template_builds",
    "markov.template_hits",
    "result.lifetimes",
    "result.disk_failures",
    "result.human_errors",
    "result.du_events",
)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "11", "--seconds", "1", "--ops", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {entry["name"] for entry in spec["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_result_has_every_end_to_end_metric():
    result = _result(_bench("--workload", "rare_event", "--seed", "3", "--seconds", "1", "--ops", "3"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {entry["name"] for entry in spec["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["correct"] and result["attempted"] == 3


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        completed = _bench("--workload", "mc_point", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())


def test_inputs_are_a_function_of_seed_and_index():
    import workloads

    grid = workloads.WORKLOADS["mc_grid"]
    assert workloads.op_inputs(grid, 5, 2) == workloads.op_inputs(grid, 5, 2)
    assert workloads.op_inputs(grid, 5, 2) != workloads.op_inputs(grid, 6, 2)
    assert workloads.op_inputs(grid, 5, 2) != workloads.op_inputs(grid, 5, 3)


def test_self_times_partition_the_span():
    import spans

    frames = spans._Frames()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        frames.call("inner", inner, None, (), {})

    frames.stack.append(["op", 0])
    frames.call("outer", outer, None, (), {})
    root = frames.stack.pop()
    assert frames.self_ns["outer"] + frames.self_ns["inner"] == frames.total_ns["outer"]
    assert root[1] == frames.total_ns["outer"]
    assert frames.self_ns["inner"] >= 10_000_000 and frames.self_ns["outer"] >= 10_000_000


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    assert run.tail(list(range(1, 16))) == (8, 50.0)
    assert run.tail(list(range(1, 21))) == (10.5, 50.0)
