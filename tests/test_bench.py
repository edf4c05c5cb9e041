"""Tests for the benchmark history file and its renderings (``repro.bench``)."""

from __future__ import annotations

import json

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    append_run,
    load_history,
    render_history,
    render_latest_table,
)
from repro.cli import main


def _history(tmp_path):
    """A two-run history whose second run benched a subset of the ops."""
    path = tmp_path / "BENCH_sweep.json"
    append_run(
        path,
        [
            {"op": "stacked_mc_sweep", "points": 32, "seconds": 0.5, "speedup": 20.0},
            {"op": "rare_event_budget", "points": 2, "seconds": 0.2,
             "variance_efficiency": 500.0},
            {"op": "fault_recovery", "points": 8, "seconds": 0.01, "speedup": 0.9},
        ],
        commit="aaaaaaa",
        generated_at="2026-01-01T00:00:00Z",
    )
    append_run(
        path,
        [
            {"op": "rare_event_budget", "points": 2, "seconds": 0.1,
             "variance_efficiency": 400.0},
            {"op": "point_decomposition", "points": 1, "seconds": 0.25, "speedup": 1.3},
        ],
        commit="bbbbbbb",
        generated_at="2026-02-01T00:00:00Z",
    )
    return path


def test_append_run_keeps_earlier_runs(tmp_path):
    history = load_history(_history(tmp_path))
    assert history["schema"] == BENCH_SCHEMA_VERSION
    assert [run["commit"] for run in history["runs"]] == ["aaaaaaa", "bbbbbbb"]


def test_legacy_single_run_file_migrates_to_one_run(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"commit": "c0ffee0", "results": [{"op": "x"}]}))
    history = load_history(path)
    assert [run["commit"] for run in history["runs"]] == ["c0ffee0"]
    assert history["runs"][0]["results"] == [{"op": "x"}]


def test_table_renders_every_op_from_its_newest_run(tmp_path):
    table = render_latest_table(load_history(_history(tmp_path))).splitlines()
    assert table[0].startswith("<!-- generated from BENCH_sweep.json @ bbbbbbb ")
    assert table[1] == "| op | commit | points | seconds | speedup | variance efficiency |"
    assert table[3:] == [
        "| stacked_mc_sweep | aaaaaaa | 32 | 0.500 | 20.00x |  |",
        "| rare_event_budget | bbbbbbb | 2 | 0.100 |  | 400x |",
        "| fault_recovery | aaaaaaa | 8 | 0.010 | 0.90x |  |",
        "| point_decomposition | bbbbbbb | 1 | 0.250 | 1.30x |  |",
    ]


def test_history_lists_each_op_once_per_run(tmp_path):
    text = render_history(load_history(_history(tmp_path)), op="rare_event_budget")
    assert text.splitlines()[0] == "rare_event_budget:"
    assert "aaaaaaa" in text and "bbbbbbb" in text
    assert "stacked_mc_sweep" not in text


def test_empty_history_renders_a_hint(tmp_path):
    history = load_history(tmp_path / "missing.json")
    assert render_latest_table(history).startswith("no benchmark records")


def test_cli_bench_table_reads_the_given_file(tmp_path, capsys):
    path = _history(tmp_path)
    assert main(["bench", "table", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "| stacked_mc_sweep | aaaaaaa |" in out
    assert "| point_decomposition | bbbbbbb |" in out
