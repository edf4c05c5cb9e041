"""Host-speed calibration for timings taken on a shared, drifting CPU.

On a shared virtual machine the CPU's speed can drift by more than half
over tens of seconds, in both pure-Python and numpy code, while the
guest's own CPU time tracks wall time (so the slowdown is not
descheduling).  A run-level median cannot absorb drift that lasts longer
than the run.  The benchmark therefore times a fixed loop right next to
every op and set-up and reports each wall time scaled to
:data:`REFERENCE_S`: ``wall * REFERENCE_S / calibration``, in seconds at
the reference host speed.  Raw wall times are printed alongside.

The loop mixes interpreter arithmetic, a list sort and memory copies,
because the workloads mix Python overhead with numpy kernels that stream
large arrays.  Ops are calibrated in a separate :class:`Calibrator`
process: inside the benchmarked process the copies would run at the speed
of whatever heap the last op left behind.

Run as a script, this module is that helper: it answers each line on
stdin with one calibration time.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time

#: Seconds :func:`calibrate` takes on a 2-vCPU x86-64 cloud VM (Python
#: 3.11) in its quiet phase.  Only the scale of the reported numbers
#: depends on it; comparisons between commits on one host do not.
REFERENCE_S = 0.0110


@functools.lru_cache(maxsize=None)
def _buffers():
    """Copy source and target, allocated on first use (never by importers)."""
    return bytearray(8 * 1024 * 1024), bytearray(8 * 1024 * 1024)


def calibrate() -> float:
    """Time a fixed mix of interpreter arithmetic, a sort and memory copies."""
    source, target = _buffers()
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    sorted([((i * 7919) % 10007) / 10007.0 for i in range(20_000)])
    for _ in range(4):
        target[:] = source
    return time.perf_counter() - start


class Calibrator:
    """A helper process with a clean heap that calibrates on request."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(calibrate(), flush=True)
