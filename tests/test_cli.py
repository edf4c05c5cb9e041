"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.policies import (
    SimulationPolicy,
    available_policies,
    get_policy,
    register_policy,
    unregister_policy,
)

#: The columns of ``repro policies``, in order.
POLICY_COLUMNS = ["name", "faces", "kernels", "stacked", "scheme"]


def _policy_rows(out: str) -> dict:
    """Parse ``repro policies`` output into ``{name: {column: cell}}``."""
    lines = out.splitlines()
    header = next(line for line in lines if line.lstrip().startswith("name "))
    assert header.split() == POLICY_COLUMNS
    starts = [header.index(column) for column in POLICY_COLUMNS]
    rows = {}
    for line in lines:
        if not line.startswith("  ") or line == header or not line[2:3].strip():
            continue
        cells = [
            line[start:end].strip()
            for start, end in zip(starts, starts[1:] + [len(line)])
        ]
        rows[cells[0]] = dict(zip(POLICY_COLUMNS, cells))
    return rows


class TestSolveCommand:
    def test_default_solve(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "nines:" in out and "RAID5(3+1)" in out

    def test_solve_raid1_failover(self, capsys):
        assert main([
            "solve", "--raid", "RAID1(1+1)", "--hep", "0.01",
            "--model", "automatic_failover", "--failure-rate", "1e-5",
        ]) == 0
        out = capsys.readouterr().out
        assert "automatic_failover" in out and "RAID1(1+1)" in out

    def test_solve_baseline_matches_library(self, capsys):
        from repro import analytical_result, paper_parameters

        main(["solve", "--model", "baseline", "--hep", "0"])
        out = capsys.readouterr().out
        expected = analytical_result(paper_parameters(hep=0.0), "baseline").nines
        assert f"{expected:.3f}" in out


class TestCompareCommand:
    def test_compare_prints_ranking(self, capsys):
        assert main(["compare", "--hep", "0.01", "--failure-rate", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "ranking (best first):" in out
        assert "RAID5(7+1)" in out

    def test_compare_hep_zero_prefers_raid1(self, capsys):
        main(["compare", "--hep", "0", "--failure-rate", "1e-6"])
        out = capsys.readouterr().out
        ranking_line = [line for line in out.splitlines() if line.startswith("ranking")][0]
        assert ranking_line.split(": ")[1].split(" > ")[0] == "RAID1(1+1)"


class TestMcCommand:
    def test_mc_batch_run(self, capsys):
        assert main([
            "mc", "--policy", "conventional", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "500", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy:             conventional" in out
        assert "executor:           batch\n" in out
        assert "availability:" in out and "interval:" in out

    def test_mc_hot_spare_pool_end_to_end(self, capsys):
        assert main([
            "mc", "--policy", "hot_spare_pool", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "500", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hot_spare_pool" in out and "disk failures" in out

    def test_mc_custom_spares(self, capsys):
        assert main([
            "mc", "--spares", "3", "--failure-rate", "1e-4",
            "--hep", "0.05", "--iterations", "300", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hot_spare_pool_k3" in out

    def test_mc_seed_entropy_printed(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "200", "--seed", "17",
        ]) == 0
        assert "seed entropy:       17" in capsys.readouterr().out

    def test_mc_random_seed_resolves_entropy(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "200", "--seed", "random",
        ]) == 0
        out = capsys.readouterr().out
        entropy_line = next(line for line in out.splitlines() if "seed entropy:" in line)
        assert int(entropy_line.split(":")[1]) >= 0

    def test_mc_sharded_workers(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "600", "--seed", "1", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "executor:           sharded(2 workers, process pool)\n" in out
        assert "iterations:         600" in out

    def test_mc_adaptive_target_half_width(self, capsys):
        assert main([
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "300", "--seed", "1",
            "--target-half-width", "2e-4", "--max-iterations", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "executor:           sharded(1 worker)\n" in out

    def test_mc_pinned_shard_size_worker_invariant(self, capsys):
        args = [
            "mc", "--failure-rate", "1e-4", "--hep", "0.05",
            "--iterations", "600", "--seed", "1", "--shard-size", "200",
        ]
        assert main(args + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        two = capsys.readouterr().out
        line = next(l for l in one.splitlines() if "availability:" in l)
        assert line in two  # same decomposition -> bit-identical estimate

    def test_mc_negative_seed_is_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mc", "--iterations", "200", "--seed", "-5"])
        assert excinfo.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_mc_max_iterations_requires_target(self, capsys):
        assert main([
            "mc", "--iterations", "200", "--max-iterations", "5000",
        ]) == 2
        assert "--target-half-width" in capsys.readouterr().err

    def test_mc_policy_and_spares_conflict(self, capsys):
        assert main([
            "mc", "--policy", "conventional", "--spares", "2", "--iterations", "100",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_mc_unknown_policy_is_clean_error(self, capsys):
        assert main(["mc", "--policy", "bogus", "--iterations", "100"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        assert "conventional" in err  # the error lists the alternatives


class TestSweepCommand:
    def test_analytical_hep_sweep(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0,0.001,0.01",
            "--backend", "auto",
        ]) == 0
        out = capsys.readouterr().out
        assert "axis:     hep (3 points)" in out
        assert "backend:  auto" in out
        assert out.count("0.9999") >= 3

    def test_sweep_matches_solve(self, capsys):
        assert main(["sweep", "--axis", "hep", "--values", "0.01"]) == 0
        sweep_out = capsys.readouterr().out
        assert main(["solve", "--hep", "0.01"]) == 0
        solve_out = capsys.readouterr().out
        availability = next(
            line.split(":")[1].strip()
            for line in solve_out.splitlines() if line.startswith("availability")
        )
        assert availability in sweep_out

    def test_grid_spacing(self, capsys):
        assert main([
            "sweep", "--axis", "failure_rate", "--grid", "5e-7:5.5e-6:6",
            "--policy", "automatic_failover",
        ]) == 0
        out = capsys.readouterr().out
        assert "axis:     failure_rate (6 points)" in out

    def test_log_grid(self, capsys):
        assert main([
            "sweep", "--axis", "failure_rate", "--grid", "1e-7:1e-5:3:log",
        ]) == 0
        assert "(3 points)" in capsys.readouterr().out

    def test_monte_carlo_backend_prints_intervals(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.05", "--backend", "monte_carlo",
            "--failure-rate", "1e-4", "--iterations", "400", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "ci_low" in out and "ci_high" in out

    def test_two_axis_grid_monte_carlo(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0,0.05",
            "--axis2", "failure_rate", "--grid2", "1e-5:1e-4:2",
            "--backend", "monte_carlo", "--failure-rate", "1e-4",
            "--iterations", "400", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "hep x failure_rate" in out and "2 x 2 = 4 points" in out
        assert "ci_low" in out

    def test_two_axis_grid_analytical(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.001,0.01",
            "--axis2", "failure_rate", "--values2", "1e-6,1e-5",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 x 2 = 4 points" in out and "ci_low" not in out

    def test_crn_flag_runs_stacked_engine(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.01,0.05",
            "--backend", "monte_carlo", "--failure-rate", "1e-4",
            "--iterations", "400", "--seed", "1", "--crn",
        ]) == 0
        assert "ci_low" in capsys.readouterr().out

    def test_axis2_without_values2_is_clean_error(self, capsys):
        assert main([
            "sweep", "--axis", "hep", "--values", "0.01",
            "--axis2", "failure_rate",
        ]) == 2
        assert "--axis2 and --values2/--grid2" in capsys.readouterr().err

    def test_missing_values_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep"]) == 2
        assert "--values or --grid" in capsys.readouterr().err

    def test_bad_grid_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep", "--grid", "nonsense"]) == 2
        assert "START:STOP:POINTS" in capsys.readouterr().err

    def test_bad_values_is_clean_error(self, capsys):
        assert main(["sweep", "--axis", "hep", "--values", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err


class TestCrossvalCommand:
    def test_smoke_run_passes(self, capsys):
        assert main([
            "crossval", "--iterations", "1500", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-validation: PASS" in out
        assert "automatic_failover" in out and "baseline" in out


class TestPoliciesCommand:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "conventional" in out
        assert "automatic_failover" in out
        assert "hot_spare_pool" in out
        assert "erasure" in out
        assert "batch+scalar" in out
        # the erasure family advertises its periodic scheme; the legacy
        # policies advertise continuous repair
        assert "check every 730 h" in out
        assert "continuous repair" in out

    def test_every_registered_policy_has_a_row(self, capsys):
        assert main(["policies"]) == 0
        assert set(_policy_rows(capsys.readouterr().out)) == set(available_policies())

    @pytest.mark.parametrize("name", sorted(available_policies()))
    def test_row_reports_the_policy_faces(self, name, capsys):
        policy = get_policy(name)
        assert main(["policies"]) == 0
        row = _policy_rows(capsys.readouterr().out)[name]
        assert row["faces"] == ("both" if policy.has_analytical_model else "monte_carlo")
        assert row["kernels"] == ("batch+scalar" if policy.has_batch_kernel else "scalar")
        assert row["stacked"] == ("yes" if policy.supports_stacked else "no")

    def test_scalar_only_policy_row(self, capsys):
        custom = SimulationPolicy(
            name="scalar_only_cli_policy",
            description="registered by the test suite",
            scalar=get_policy("conventional").scalar,
        )
        register_policy(custom)
        try:
            assert main(["policies"]) == 0
        finally:
            unregister_policy(custom.name)
        row = _policy_rows(capsys.readouterr().out)[custom.name]
        assert row["faces"] == "monte_carlo"
        assert row["kernels"] == "scalar"
        assert row["stacked"] == "no"


class TestReproduceCommand:
    def test_reproduce_without_monte_carlo(self, capsys):
        assert main(["reproduce", "--no-mc"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Fig. 7" in out
        assert "max_underestimation_factor" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--model", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["mc", "--kernel", "numpy"],
        ["mc", "--executor", "scalar"],
        ["sweep", "--axis", "hep", "--values", "0.01", "--kernel", "numpy"],
        ["crossval", "--kernel", "numpy"],
    ], ids=["mc-kernel", "mc-executor", "sweep-kernel", "crossval-kernel"])
    def test_no_flag_selects_the_simulator(self, argv, capsys):
        # The input alone picks the simulator, so these flags do not exist.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
