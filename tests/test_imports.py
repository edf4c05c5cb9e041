"""Import guards: ``import repro`` must not load heavy or undeclared modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module",
    [
        # scipy.stats alone costs about half a second to import; the package
        # needs only scipy.special quantiles, and gamma percentiles import
        # scipy.stats on first use.
        "scipy.stats",
        # Not a declared dependency: chain validation uses scipy's csgraph.
        "networkx",
    ],
)
def test_import_repro_does_not_load(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import repro, sys; assert {module!r} not in sys.modules",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
