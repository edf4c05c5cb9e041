"""Import-cost guards: ``import repro`` must not load heavy optional modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_does_not_load_scipy_stats():
    # scipy.stats alone costs about half a second to import; the package
    # needs only scipy.special quantiles, and gamma percentiles import
    # scipy.stats on first use.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, sys; assert 'scipy.stats' not in sys.modules",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
