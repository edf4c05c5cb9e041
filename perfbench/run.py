"""Benchmark entry point: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` starts the workload in fresh interpreters ``SETUP_SAMPLES``
times; each is timed from launch to ready (``setup_s`` is their median) and
the last one then runs the closed loop for ``--seconds``.  It prints every
end-to-end metric by name and unit.  ``--trace 1`` runs one process with
the layer spans of ``spans.py`` installed: half the time untraced, half
traced, and prints the per-layer metrics, the self-time breakdown and the
tracing overhead.  The last line of stdout is always the JSON result.

Uses only the standard library; ``repro`` is imported by the child
processes from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def _child(args, mode: str):
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _speed() -> float:
    return statistics.median(calibrate() for _ in range(3))


def _run_child(args, mode: str):
    """Start one child; return (scaled seconds to ready, ready msg, result msg).

    A watchdog kills a child that outlives ``CHILD_TIMEOUT_S``; the run
    then fails instead of hanging.
    """
    speed = _speed()
    start = time.perf_counter()
    process = _child(args, mode)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in process.stdout:
            if not line.startswith("{"):
                continue
            message = json.loads(line)
            if message["msg"] == "ready":
                ready_s = time.perf_counter() - start
                ready = message
            elif message["msg"] == "result":
                result = message
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or ready is None or (mode == "measure" and result is None):
        raise BenchmarkError(f"{mode} process failed (exit code {code})")
    # The measuring child calibrates right after ready; a set-up child has
    # exited, so calibrate here.
    speed_after = result["first_speed"] if result is not None else _speed()
    return ready_s * REFERENCE_S / ((speed + speed_after) / 2), ready, result


def tail(values):
    """Return ``(value, percentile)``: the highest percentile with ten ops
    beyond it, never below the median (with 20 ops or fewer it is the
    median)."""
    ordered = sorted(values)
    n = len(ordered)
    below = n - 10
    if 2 * below <= n:
        return statistics.median(ordered), 50.0
    return ordered[below - 1], 100.0 * below / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_untraced(args, setups, digests, result):
    op_s = [ns / 1e9 for ns in result["scaled_ns"]]
    wall_s = [ns / 1e9 for ns in result["op_ns"]]
    failed = result["failed"]
    notes = list(result["notes"])
    if len(set(digests)) != 1:
        # Op 0 ran once in every fresh process: all must agree bit for bit.
        failed += 1
        notes.append("op 0 differs between fresh processes")
    attempted = len(op_s)
    tail_s, tail_pct = tail(op_s)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_s_p50": _metric(statistics.median(op_s), "s"),
        "op_s_tail": _metric(tail_s, "s"),
        "points_per_s": _metric(result["points"] / sum(op_s), "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  closed loop, 1 caller")
    print(f"times below are at the reference host speed (calibrate.py); raw op wall p50 "
          f"{statistics.median(wall_s):.6g} s")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, metric in metrics.items():
        print(f"{name:>14} = {metric['value']:.6g} {metric['unit']}")
    print(f"{'':>14}   (op_s_tail is p{tail_pct:.1f} of {attempted} ops)")
    if result["lifetimes"]:
        print(f"{'lifetimes_per_s':>14} = {result['lifetimes'] / sum(op_s):.6g} 1/s")
    print(f"{'ops_failed_frac':>14} = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{'zero-event pts':>14} = {result['zero_event_points']} (degenerate [1, 1] intervals, counted, not failed)")
    for note in notes[:5]:
        print(f"failure: {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _report_traced(args, result):
    layers = result["layers"]
    failed = result["failed"]
    attempted = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  traced ops {len(result['op_ns'])}  transport {layers['transport']}")
    print("parent self time per op (s), the layers that block the op:")
    accounted = 0.0
    for layer, seconds in layers["breakdown"].items():
        accounted += seconds
        if seconds:
            print(f"  {layer:>16} {seconds:.6f}")
    values = layers["values"]
    print(f"  {'sum':>16} {accounted:.6f}  of traced op p50 {values['trace.op_s_p50']:.6f}"
          f" (mean {layers['op_mean_s']:.6f}); residual {values['trace.residual_s']:.6f}")
    print(f"tracing overhead: traced p50 {values['trace.op_s_p50']:.6f} - untraced p50 "
          f"{layers['untraced_p50_s']:.6f} = {values['trace.overhead_s']:.6f} s")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = _metric(values[entry["name"]], entry["unit"])
        print(f"{entry['name']:>28} = {values[entry['name']]:.6g} {entry['unit']}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for note in result["notes"][:5]:
        print(f"failure: {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops (per phase when traced) instead of --seconds",
    )
    args = parser.parse_args(argv)
    try:
        if args.trace:
            _, _, result = _run_child(args, "measure")
            report = _report_traced(args, result)
        else:
            setups, digests = [], []
            for sample in range(SETUP_SAMPLES):
                mode = "measure" if sample == SETUP_SAMPLES - 1 else "setup"
                setup_s, ready, result = _run_child(args, mode)
                setups.append(setup_s)
                digests.append(ready["digest"])
            report = _report_untraced(args, setups, digests, result)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
