"""One benchmark process: set up, warm up, then run a workload's closed loop.

``run.py`` starts this script in a fresh interpreter and times it from
launch to its ``ready`` message, which it sends once ``repro`` is imported,
the pool (if the workload has one) is started and one untimed warm-up op
has run.  In ``setup`` mode the process then exits; in ``measure`` mode it
runs ops back to back, one caller and no think time, and reports them.

Messages go to stdout, one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack
from multiprocessing import resource_tracker
from pathlib import Path

from calibrate import REFERENCE_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent


def _send(kind: str, **payload) -> None:
    print(json.dumps({"msg": kind, **payload}), flush=True)


def _stop_helpers() -> None:
    """Stop and reap the helper processes this run left, then its scratch dir.

    The shared-memory transport starts multiprocessing's resource tracker
    (a private singleton with no public stop); waiting for it here means a
    run leaves no process behind.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None:
        tracker._stop()
    try:
        (ROOT / ".perfbench").rmdir()
    except OSError:
        pass  # another run's scratch is still there


def _import_repro() -> float:
    """Import the checkout's own ``repro`` and return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    return elapsed


def _peak_rss_mb(worker_pids) -> float:
    """Peak resident memory of this process plus its pool workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        status = Path(f"/proc/{pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


class _Stopwatch:
    """Times an untraced op; the traced twin is ``spans.Tracer.op``."""

    def __enter__(self) -> "_Stopwatch":
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.ns = time.perf_counter_ns() - self.start


class Session:
    """Set-up state and the op loop of one workload in this process."""

    def __init__(self, args, import_s: float, stack: ExitStack) -> None:
        from repro.core import evaluation
        from repro.core.montecarlo import parallel

        import workloads

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self._op_inputs = workloads.op_inputs
        self.evaluation = evaluation
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        stack.callback(shutil.rmtree, self.scratch, True)
        self.tracer = None
        if args.trace:
            import spans

            self.tracer = spans.Tracer(self.scratch / "spans")
            self.tracer.install()
            stack.callback(self.tracer.uninstall)
        self.import_s = import_s
        self.context = workloads.Context(journal_path=self._journal_path)
        self.worker_pids = []
        self.pool_start_s = 0.0
        if self.workload.workers > 1:
            start = time.perf_counter()
            pool = stack.enter_context(parallel.worker_pool(self.workload.workers))
            probes = [pool.submit(parallel.worker_probe) for _ in range(self.workload.workers)]
            for probe in probes:
                probe.result()
            # Every forked worker, not only the ones that happened to probe.
            self.worker_pids = [child.pid for child in multiprocessing.active_children()]
            self.pool_start_s = time.perf_counter() - start
            self.context.pool = pool
        self._journals = 0
        self.journal_bytes = 0

    def _journal_path(self) -> str:
        self._journals += 1
        return str(self.scratch / f"journal-{self._journals}.jsonl")

    def _collect_journals(self) -> None:
        for path in self.scratch.glob("journal-*.jsonl"):
            self.journal_bytes += path.stat().st_size
            path.unlink()

    def inputs(self, index: int):
        return self._op_inputs(self.workload, self.args.seed, index)

    def run_untimed(self, index: int):
        output = self.workload.run(self.context, self.inputs(index))
        self._collect_journals()
        return output

    def loop(self, first: int, seconds: float, ops, traced: bool, reference=None):
        """Run ops from index ``first`` for ``seconds`` (or exactly ``ops``).

        ``reference`` is the warm-up digest of op ``first``; a timed op
        that does not reproduce it fails.  Returns the phase's tally.
        """
        tally = {
            "op_ns": [], "scaled_ns": [], "failed": 0, "zero_event_points": 0, "points": 0,
            "lifetimes": 0, "templates": [0, 0], "notes": [],
        }
        cycle = self.workload.cycle
        deadline = time.perf_counter() + seconds
        index = first
        speed = tally["first_speed"] = self.calibrate()
        while True:
            inputs = self.inputs(index)
            before = self.evaluation.template_cache_stats()
            ok = True
            output = None
            timer = self.tracer.op() if traced else _Stopwatch()
            with timer:
                try:
                    output = self.workload.run(self.context, inputs)
                except Exception as error:  # an op that raises is a failed op
                    ok, note = False, f"op {index} raised {error!r}"
            elapsed = timer.ns
            speed_after = self.calibrate()
            tally["scaled_ns"].append(elapsed * REFERENCE_S / ((speed + speed_after) / 2))
            speed = speed_after
            after = self.evaluation.template_cache_stats()
            tally["templates"][0] += after["misses"] - before["misses"]
            tally["templates"][1] += after["hits"] - before["hits"]
            self._collect_journals()
            tally["op_ns"].append(elapsed)
            if ok:
                check = self.workload.check(inputs, output)
                ok, note = check.ok, f"op {index}: {check.detail}"
                tally["zero_event_points"] += check.zero_event_points
                if ok and index == first and reference is not None:
                    if self.workload.digest(output) != reference:
                        ok, note = False, f"op {index} did not reproduce its warm-up"
                tally["points"] += self.workload.points(output)
                tally["lifetimes"] += self.workload.lifetimes(output)
            if not ok:
                tally["failed"] += 1
                tally["notes"].append(note)
            index += 1
            done = index - first
            if ops is not None:
                if done >= ops:
                    break
            elif time.perf_counter() >= deadline and done % cycle == 0:
                break
        tally["last"] = index - 1
        tally["last_digest"] = self.workload.digest(output) if output is not None else None
        return tally


def _layer_metrics(session: Session, untraced, traced) -> dict:
    """Per-op layer metrics of the traced phase (see BENCHMARK.json)."""
    import spans

    tracer = session.tracer
    parent = tracer.parent
    workers = tracer.worker_totals()
    n = len(traced["op_ns"])
    wall_s = sum(traced["op_ns"]) / 1e9
    per_op = lambda value: value / n
    seconds = lambda frames, layer: frames.self_ns.get(layer, 0) / 1e9
    total = lambda layer: (parent.total_ns.get(layer, 0) + workers.total_ns.get(layer, 0)) / 1e9
    calls = lambda layer: parent.calls.get(layer, 0) + workers.calls.get(layer, 0)
    count = lambda key: parent.counts.get(key, 0.0) + workers.counts.get(key, 0.0)
    worker_busy = workers.total_ns.get("shard", 0) / 1e9
    kernel_busy = total("kernel")
    pool_size = session.workload.workers if session.workload.workers > 1 else 0
    untraced_p50 = statistics.median(untraced["op_ns"]) / 1e9
    traced_p50 = statistics.median(traced["op_ns"]) / 1e9
    accounted = sum(seconds(parent, layer) for layer in spans.PARENT_LAYERS) / n
    untraced_wall = sum(untraced["op_ns"]) / 1e9
    values = {
        "import.s": session.import_s,
        "parallel.pool_start_s": session.pool_start_s,
        "parallel.shards": per_op(calls("shard")),
        "parallel.self_s": per_op(seconds(parent, "parallel")),
        "parallel.wait_s": per_op(seconds(parent, "parallel.wait")),
        "parallel.worker_busy_s": per_op(worker_busy),
        "parallel.worker_util": worker_busy / (wall_s * pool_size) if pool_size else 0.0,
        "parallel.retries": per_op(count("parallel.retries")),
        "kernel.calls": per_op(calls("kernel")),
        "kernel.lifetimes": per_op(count("kernel.lifetimes")),
        "kernel.busy_s": per_op(kernel_busy),
        "kernel.lifetimes_per_busy_s": count("kernel.lifetimes") / kernel_busy if kernel_busy else 0.0,
        "kernel.events": per_op(count("kernel.events")),
        "batch.summarise_s": per_op(total("batch.summarise")),
        "stacked.build_s": per_op(total("stacked.build")),
        "stacked.plane_bytes": per_op(count("stacked.plane_bytes")),
        "transport.prepare_s": per_op(total("transport")),
        "journal.appends": per_op(calls("journal")),
        "journal.append_s": per_op(total("journal")),
        "journal.bytes": per_op(traced["journal_bytes"]),
        "allocator.rounds": per_op(count("allocator.rounds")),
        "allocator.lifetimes": per_op(count("allocator.lifetimes")),
        "allocator.ess_frac": (
            count("allocator.ess") / count("allocator.ess_lifetimes")
            if count("allocator.ess_lifetimes") else 0.0
        ),
        "allocator.self_s": per_op(seconds(parent, "allocator")),
        "confidence.calls": per_op(calls("confidence")),
        "confidence.s": per_op(total("confidence")),
        "markov.template_builds": per_op(traced["templates"][0]),
        "markov.template_hits": per_op(traced["templates"][1]),
        "markov.solve_s": per_op(total("markov.solve")),
        "markov.checker_s": per_op(total("markov.checker")),
        "sweep.self_s": per_op(seconds(parent, "sweep")),
        "evaluation.self_s": per_op(seconds(parent, "evaluation")),
        "result.lifetimes": per_op(count("result.lifetimes")),
        "result.disk_failures": per_op(count("result.disk_failures")),
        "result.human_errors": per_op(count("result.human_errors")),
        "result.du_events": per_op(count("result.du_events")),
        "lifetimes_per_s": untraced["lifetimes"] / untraced_wall,
        "trace.op_s_p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.self_s": per_op(seconds(parent, "trace")),
        "trace.residual_s": traced_p50 - accounted,
    }
    breakdown = {layer: per_op(seconds(parent, layer)) for layer in spans.PARENT_LAYERS}
    transports = sorted(
        key.rsplit(".", 1)[1] for key in parent.counts if key.startswith("transport.resolved.")
    )
    return {
        "values": values,
        "breakdown": breakdown,
        "op_mean_s": wall_s / n,
        "untraced_p50_s": untraced_p50,
        "transport": "+".join(transports) or "none",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    import_s = _import_repro()
    with ExitStack() as stack:
        session = Session(args, import_s, stack)
        reference = session.workload.digest(session.run_untimed(0))
        _send("ready", digest=reference, import_s=import_s, pool_start_s=session.pool_start_s)
        tally = _measure(session, args, reference) if args.mode == "measure" else None
    _stop_helpers()
    if tally is not None:
        _send("result", **tally)
    return 0


def _measure(session: Session, args, reference: str) -> dict:
    """Run the timed loop (both phases when traced) and its checks."""
    with Calibrator() as session.calibrate:
        if not args.trace:
            tally = session.loop(0, args.seconds, args.ops, traced=False, reference=reference)
        else:
            untraced = session.loop(0, args.seconds / 2, args.ops, traced=False, reference=reference)
            session.journal_bytes = 0
            session.tracer.enable(True)
            try:
                tally = session.loop(untraced["last"] + 1, args.seconds / 2, args.ops, traced=True)
            finally:
                session.tracer.enable(False)
            tally["journal_bytes"] = session.journal_bytes
            tally["layers"] = _layer_metrics(session, untraced, tally)
            tally["attempted"] = len(untraced["op_ns"]) + len(tally["op_ns"])
            tally["failed"] += untraced["failed"]
            tally["notes"] += untraced["notes"]

    # Re-run the last op's inputs: it must reproduce bit for bit.
    rerun = session.workload.digest(session.run_untimed(tally["last"]))
    if tally["last_digest"] is not None and rerun != tally["last_digest"]:
        tally["failed"] += 1
        tally["notes"].append(f"op {tally['last']} did not reproduce on re-run")
    tally["peak_rss_mb"] = _peak_rss_mb(session.worker_pids)
    return tally


if __name__ == "__main__":
    sys.exit(main())
