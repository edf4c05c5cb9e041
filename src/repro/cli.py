"""Command-line interface: ``python -m repro <command>``.

Eight subcommands cover the common workflows without writing any code:

``solve``
    Evaluate one policy's analytical model and print availability, nines
    and downtime.
``compare``
    Equal-usable-capacity comparison of the paper's three RAID layouts.
``mc``
    Run a Monte Carlo availability study for any registered replacement
    policy (vectorised batch kernels in 50k-lifetime shards by default;
    the same numbers at any ``--workers``).  ``--scheme k:N[:R]``
    simulates a pinned k-of-N erasure scheme with periodic checker/repair
    cycles (``--check-period`` hours) instead of a named policy.
``sweep``
    Sweep one parameter axis — or a 2-axis grid via ``--axis2`` — for one
    policy on either evaluation backend
    (``--backend analytical|monte_carlo|auto``).  Analytical sweeps reuse a
    parameterized chain template instead of rebuilding per point; Monte
    Carlo sweeps run as one stacked grid (per-lifetime parameter arrays,
    one kernel invocation per shard).  ``--crn`` couples all points to
    common random numbers for variance-reduced contrasts.
``crossval``
    Cross-backend validation: assert the analytical availability of every
    dual-face policy falls inside its Monte Carlo confidence interval
    (non-zero exit code otherwise; used as the CI smoke job).  ``--policy``
    restricts the run to named policies — the way to cross-validate the
    periodic-scheme erasure family at an event-rich operating point.
``policies``
    List the replacement policies available in the registry: evaluation
    faces, kernels, stacked-grid support and redundancy scheme per policy.
``bench``
    Inspect the machine-readable benchmark trajectory (``BENCH_sweep.json``):
    ``bench history`` prints the per-op speedup trend across recorded runs,
    ``bench table`` renders each op's newest record as the README's
    markdown table.
``reproduce``
    Regenerate the paper's figures (optionally including the Monte Carlo
    validation) and print the tables.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.availability.metrics import downtime_minutes_per_year
from repro.bench import load_history, render_history, render_latest_table
from repro.core.comparison import compare_equal_capacity, ranking
from repro.core.evaluation import analytical_policies, evaluate
from repro.core.montecarlo import (
    ALLOCATORS,
    POOLS,
    TRANSPORTS,
    MonteCarloConfig,
    reap_stale_segments,
    run_monte_carlo,
)
from repro.core.montecarlo.runner import _executor_provenance
from repro.core.parameters import paper_parameters
from repro.core.policies import (
    MONTHLY_CHECK_HOURS,
    available_policies,
    erasure_policy,
    get_policy,
    hot_spare_policy,
    parse_scheme,
)
from repro.core.sweep import SWEEP_AXES, SWEEP_BACKENDS, sweep, sweep_grid
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.cross_validation import (
    all_within_ci,
    cross_validation_table,
    run_cross_validation,
)
from repro.experiments.runner import run_all_experiments
from repro.storage.raid import RaidGeometry


def _seed_argument(text: str) -> Optional[int]:
    """Parse ``--seed``: a non-negative integer, or ``random``/``none``."""
    if text.lower() in ("random", "none"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer or 'random', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _add_fault_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """Add the sharded executor's fault-tolerance flags (``mc`` and ``sweep``)."""
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard deadline in seconds; a shard that exceeds it is "
        "retried (hung process workers are terminated and the pool rebuilt)",
    )
    parser.add_argument(
        "--max-shard-retries",
        type=int,
        default=0,
        help="bounded retries per shard on crash/timeout/worker loss; "
        "retried shards recompute bit-identical summaries (default: 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        help="base seconds of the exponential retry backoff (default: 0.1)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append every completed shard summary to a durable journal at "
        "PATH; an interrupted run can later be resumed from it",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from the journal at PATH: already completed shards are "
        "spliced back in (and new completions keep appending); the resumed "
        "run is bit-identical to an uninterrupted one",
    )


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Availability of data storage systems under human errors (DATE 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve one analytical availability model")
    solve.add_argument("--raid", default="RAID5(3+1)", help="RAID label, e.g. RAID5(7+1) or RAID1(1+1)")
    solve.add_argument("--failure-rate", type=float, default=1e-6, help="disk failure rate per hour")
    solve.add_argument("--hep", type=float, default=0.001, help="human error probability")
    solve.add_argument(
        "--model",
        choices=sorted(analytical_policies()),
        default="conventional",
        help="policy whose analytical face is solved",
    )
    solve.add_argument(
        "--method",
        choices=["auto", "dense", "lstsq", "power", "sparse"],
        default="auto",
        help="steady-state solver (auto selects dense/sparse by state count)",
    )

    compare = subparsers.add_parser("compare", help="equal-capacity RAID comparison")
    compare.add_argument("--failure-rate", type=float, default=1e-6)
    compare.add_argument("--hep", type=float, default=0.01)
    compare.add_argument("--usable-disks", type=int, default=21)

    mc = subparsers.add_parser(
        "mc", help="Monte Carlo availability study for any registered policy"
    )
    mc.add_argument(
        "--policy",
        default=None,
        help="registered policy name (see the 'policies' command); default: conventional",
    )
    mc.add_argument(
        "--spares",
        type=int,
        default=None,
        help="hot-spare pool size (builds a hot_spare_pool variant with k spares; "
        "mutually exclusive with --policy)",
    )
    mc.add_argument(
        "--scheme",
        default=None,
        metavar="k:N[:R]",
        help="erasure k-of-N scheme with periodic checks: simulate the pinned "
        "erasure policy on an EC(k of N) geometry (mutually exclusive with "
        "--policy/--spares; overrides --raid)",
    )
    mc.add_argument(
        "--check-period",
        type=float,
        default=MONTHLY_CHECK_HOURS,
        help="checker period in hours of a --scheme run (default: 730, "
        "i.e. monthly)",
    )
    mc.add_argument("--raid", default="RAID5(3+1)", help="RAID label, e.g. RAID5(7+1)")
    mc.add_argument("--failure-rate", type=float, default=1e-6, help="disk failure rate per hour")
    mc.add_argument("--hep", type=float, default=0.001, help="human error probability")
    mc.add_argument(
        "--iterations",
        type=int,
        default=20_000,
        help="simulated lifetimes (with --target-half-width: size of the first round)",
    )
    mc.add_argument("--horizon-years", type=float, default=10.0, help="mission time per lifetime")
    mc.add_argument("--confidence", type=float, default=0.99, help="confidence level of the interval")
    mc.add_argument(
        "--seed",
        type=_seed_argument,
        default=0,
        help="master seed (an integer, or 'random' for fresh entropy; the "
        "resolved entropy is printed so any run can be replayed)",
    )
    mc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded executor (1 = single process)",
    )
    mc.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="lifetimes per shard (default: 50000, whatever --workers is, "
        "so results are bit-identical across --workers values either way)",
    )
    mc.add_argument(
        "--target-half-width",
        type=float,
        default=None,
        help="adaptive stopping: keep adding shard rounds until the "
        "confidence interval half-width reaches this value",
    )
    mc.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="iteration ceiling of an adaptive run (default: 1e6)",
    )
    mc.add_argument(
        "--budget",
        type=int,
        default=None,
        help="alias of --max-iterations: total lifetime budget of an "
        "adaptive run",
    )
    mc.add_argument(
        "--biasing",
        type=float,
        default=None,
        help="failure-biasing factor of the importance-sampled kernels "
        "(> 1 inflates failure rates; estimates stay unbiased via "
        "per-lifetime likelihood-ratio weights)",
    )
    mc.add_argument(
        "--allocator",
        choices=list(ALLOCATORS),
        default="uniform",
        help="adaptive-round budget allocator of stacked grids: uniform, or "
        "ci_width (widest intervals get the next round's lifetimes)",
    )
    mc.add_argument(
        "--transport",
        choices=list(TRANSPORTS),
        default="auto",
        help="stacked-grid parameter transport: auto (per-shard rebuild "
        "on process pools, grid views otherwise), shm (shared-memory "
        "planes), or pickle (per-shard rebuild everywhere)",
    )
    mc.add_argument(
        "--pool",
        choices=list(POOLS),
        default="process",
        help="shard-executor pool for --workers > 1: process, thread "
        "(in-process, shares stacked grid planes outright), or serial "
        "(the pool oracle: same shard plan, run sequentially)",
    )
    _add_fault_tolerance_flags(mc)
    mc.add_argument(
        "--reap-shm",
        action="store_true",
        help="unlink stale shared-memory segments left by dead runs (crashed "
        "parents), print what was reclaimed and exit",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="sweep one parameter axis for one policy on either backend",
    )
    sweep_parser.add_argument(
        "--axis",
        choices=sorted(SWEEP_AXES),
        default="hep",
        help="parameter to sweep",
    )
    values = sweep_parser.add_mutually_exclusive_group()
    values.add_argument(
        "--values",
        default=None,
        help="comma-separated axis values, e.g. '0,0.001,0.01'",
    )
    values.add_argument(
        "--grid",
        default=None,
        metavar="START:STOP:POINTS[:log]",
        help="evenly spaced axis values, e.g. '5e-7:5.5e-6:11' or "
        "'1e-7:1e-4:7:log' for log spacing",
    )
    sweep_parser.add_argument(
        "--axis2",
        choices=sorted(SWEEP_AXES),
        default=None,
        help="second axis: evaluate the full axis x axis2 surface in one "
        "call (e.g. --axis hep --axis2 failure_rate for a Fig. 5 sheet)",
    )
    values2 = sweep_parser.add_mutually_exclusive_group()
    values2.add_argument(
        "--values2",
        default=None,
        help="comma-separated values of the second axis",
    )
    values2.add_argument(
        "--grid2",
        default=None,
        metavar="START:STOP:POINTS[:log]",
        help="evenly spaced values of the second axis",
    )
    sweep_parser.add_argument(
        "--policy",
        default=None,
        help="registered policy name (default: conventional; see the "
        "'policies' command)",
    )
    sweep_parser.add_argument(
        "--scheme",
        default=None,
        metavar="k:N[:R]",
        help="erasure k-of-N scheme with periodic checks: sweep the pinned "
        "erasure policy on an EC(k of N) geometry (mutually exclusive with "
        "--policy; overrides --raid)",
    )
    sweep_parser.add_argument(
        "--check-period",
        type=float,
        default=MONTHLY_CHECK_HOURS,
        help="checker period in hours of a --scheme sweep (default: 730, "
        "i.e. monthly)",
    )
    sweep_parser.add_argument(
        "--backend",
        choices=list(SWEEP_BACKENDS),
        default="auto",
        help="analytical (template-driven), monte_carlo, or auto "
        "(analytical when the policy has a chain face)",
    )
    sweep_parser.add_argument("--raid", default="RAID5(3+1)", help="RAID label")
    sweep_parser.add_argument(
        "--failure-rate", type=float, default=1e-6,
        help="disk failure rate per hour (fixed unless it is the swept axis)",
    )
    sweep_parser.add_argument(
        "--hep", type=float, default=0.001,
        help="human error probability (fixed unless it is the swept axis)",
    )
    sweep_parser.add_argument(
        "--iterations", type=int, default=20_000,
        help="simulated lifetimes per point (monte_carlo backend)",
    )
    sweep_parser.add_argument(
        "--horizon-years", type=float, default=10.0,
        help="mission time per lifetime (monte_carlo backend)",
    )
    sweep_parser.add_argument(
        "--confidence", type=float, default=0.99,
        help="confidence level of per-point intervals (monte_carlo backend)",
    )
    sweep_parser.add_argument("--seed", type=_seed_argument, default=0, help="master seed")
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes shared across all Monte Carlo points",
    )
    sweep_parser.add_argument(
        "--crn",
        action="store_true",
        help="common random numbers: couple every grid point to identical "
        "base streams (variance-reduced contrasts)",
    )
    sweep_parser.add_argument(
        "--target-half-width",
        type=float,
        default=None,
        help="adaptive sweep: keep dispatching shard rounds until every "
        "point's interval half-width reaches this value",
    )
    sweep_parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="per-point lifetime ceiling of an adaptive sweep (default: 1e6)",
    )
    sweep_parser.add_argument(
        "--biasing",
        type=float,
        default=None,
        help="failure-biasing factor of the importance-sampled kernels "
        "(rare-event sweeps; estimates stay unbiased via likelihood-ratio "
        "weights)",
    )
    sweep_parser.add_argument(
        "--allocator",
        choices=list(ALLOCATORS),
        default="uniform",
        help="adaptive-round budget allocator: uniform, or ci_width "
        "(widest intervals get the next round's lifetimes)",
    )
    sweep_parser.add_argument(
        "--transport",
        choices=list(TRANSPORTS),
        default="auto",
        help="stacked-grid parameter transport: auto (per-shard rebuild "
        "on process pools, grid views otherwise), shm (shared-memory "
        "planes), or pickle (per-shard rebuild everywhere)",
    )
    sweep_parser.add_argument(
        "--pool",
        choices=list(POOLS),
        default="process",
        help="shard-executor pool for --workers > 1: process, thread "
        "(in-process, shares stacked grid planes outright), or serial "
        "(the pool oracle: same shard plan, run sequentially)",
    )
    _add_fault_tolerance_flags(sweep_parser)

    crossval = subparsers.add_parser(
        "crossval",
        help="validate analytical vs Monte Carlo for every dual-face policy",
    )
    crossval.add_argument("--raid", default="RAID5(3+1)", help="RAID label")
    crossval.add_argument(
        "--failure-rate", type=float, default=1e-4,
        help="disk failure rate per hour (elevated so the CI is informative)",
    )
    crossval.add_argument("--hep", type=float, default=0.01, help="human error probability")
    crossval.add_argument(
        "--policy",
        action="append",
        dest="policies",
        default=None,
        metavar="NAME",
        help="validate only the named policy (repeatable); the default set is "
        "every dual-face policy except periodic-scheme ones, which need an "
        "event-rich operating point — e.g. --policy erasure "
        "--raid 'EC(3of10)' --failure-rate 1e-4",
    )
    crossval.add_argument(
        "--iterations", type=int, default=4000,
        help="simulated lifetimes per policy (reduce for a smoke run)",
    )
    crossval.add_argument(
        "--seed", type=_seed_argument, default=0,
        help="master seed; 'random' draws fresh entropy, which by "
        "construction misses the confidence interval in about "
        "(1 - confidence) of runs per policy — CI pins the seed",
    )
    crossval.add_argument("--workers", type=int, default=1, help="worker processes")
    crossval.add_argument(
        "--pool",
        choices=list(POOLS),
        default="process",
        help="shard-executor pool for --workers > 1 (process/thread/serial)",
    )

    subparsers.add_parser("policies", help="list the registered replacement policies")

    bench = subparsers.add_parser(
        "bench",
        help="inspect the machine-readable benchmark trajectory",
    )
    bench.add_argument(
        "action",
        choices=["history", "table"],
        help="history: per-op speedup trend across recorded runs; "
        "table: each op's newest record as a markdown performance table",
    )
    bench.add_argument(
        "--op",
        default=None,
        help="restrict 'history' to one op name (e.g. stacked_mc_sweep)",
    )
    bench.add_argument(
        "--file",
        default="BENCH_sweep.json",
        help="benchmark history file (default: ./BENCH_sweep.json)",
    )

    reproduce = subparsers.add_parser("reproduce", help="regenerate the paper's figures")
    reproduce.add_argument("--mc-iterations", type=int, default=8000)
    reproduce.add_argument("--no-mc", action="store_true", help="skip the Monte Carlo validation")
    reproduce.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the Monte Carlo validation runs",
    )

    return parser


def _run_solve(args: argparse.Namespace) -> str:
    params = paper_parameters(
        geometry=RaidGeometry.from_label(args.raid),
        disk_failure_rate=args.failure_rate,
        hep=args.hep,
    )
    result = evaluate(params, policy=args.model, backend="analytical", method=args.method)
    lines = [
        f"model:              {args.model}",
        f"geometry:           {params.geometry.label}",
        f"disk failure rate:  {params.disk_failure_rate:g} /h",
        f"hep:                {params.hep:g}",
        f"backend:            {result.backend} ({result.provenance})",
        f"availability:       {result.availability:.12f}",
        f"nines:              {result.nines:.3f}",
        f"downtime per year:  {downtime_minutes_per_year(result.availability):.4f} minutes",
    ]
    return "\n".join(lines)


def _run_compare(args: argparse.Namespace) -> str:
    base = paper_parameters(disk_failure_rate=args.failure_rate, hep=args.hep)
    model = "baseline" if args.hep == 0.0 else "conventional"
    comparisons = compare_equal_capacity(base, usable_disks=args.usable_disks, model=model)
    lines = [
        f"usable capacity: {args.usable_disks} disks, lambda={args.failure_rate:g}/h, hep={args.hep:g}",
        f"{'configuration':<14}{'disks':>7}{'ERF':>7}{'nines':>9}",
    ]
    for entry in comparisons:
        lines.append(
            f"{entry.geometry_label:<14}{entry.total_disks:>7}{entry.erf:>7.2f}"
            f"{entry.subsystem_nines:>9.3f}"
        )
    lines.append("ranking (best first): " + " > ".join(ranking(comparisons)))
    return "\n".join(lines)


def _scheme_policy(args: argparse.Namespace):
    """Build the pinned erasure policy + EC geometry implied by ``--scheme``."""
    scheme = parse_scheme(args.scheme, check_period_hours=args.check_period)
    policy = erasure_policy(
        scheme.k,
        scheme.n_shares,
        repair_threshold=scheme.repair_threshold,
        check_period_hours=args.check_period,
    )
    return policy, RaidGeometry.erasure(scheme.k, scheme.n_shares)


def _run_mc(args: argparse.Namespace) -> Tuple[str, int]:
    if args.reap_shm:
        reaped = reap_stale_segments()
        lines = [f"reaped {len(reaped)} stale shared-memory segment(s)"]
        lines.extend(f"  {name}" for name in reaped)
        return "\n".join(lines), 0
    if args.spares is not None and args.policy is not None:
        raise ConfigurationError(
            "--policy and --spares are mutually exclusive: --spares builds a "
            "hot_spare_pool variant and would override the named policy"
        )
    if args.scheme is not None and (args.policy is not None or args.spares is not None):
        raise ConfigurationError(
            "--scheme builds its own erasure policy and geometry; it is "
            "mutually exclusive with --policy and --spares"
        )
    if args.budget is not None and args.max_iterations is not None:
        raise ConfigurationError(
            "--budget is an alias of --max-iterations; pass only one"
        )
    max_iterations = args.max_iterations if args.budget is None else args.budget
    if max_iterations is not None and args.target_half_width is None:
        raise ConfigurationError(
            "--max-iterations/--budget cap an adaptive run and do nothing "
            "without --target-half-width"
        )
    if args.scheme is not None:
        policy, geometry = _scheme_policy(args)
    elif args.spares is not None:
        policy = hot_spare_policy(args.spares)
        geometry = RaidGeometry.from_label(args.raid)
    else:
        policy = get_policy(args.policy or "conventional")
        geometry = RaidGeometry.from_label(args.raid)
    params = paper_parameters(
        geometry=geometry,
        disk_failure_rate=args.failure_rate,
        hep=args.hep,
    )
    config = MonteCarloConfig(
        params=params,
        policy=policy,
        horizon_hours=args.horizon_years * 8760.0,
        n_iterations=args.iterations,
        confidence=args.confidence,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
        target_half_width=args.target_half_width,
        max_iterations=max_iterations,
        transport=args.transport,
        biasing=args.biasing,
        allocator=args.allocator,
        pool=args.pool,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.max_shard_retries,
        retry_backoff=args.retry_backoff,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    result = run_monte_carlo(config)
    totals = result.totals
    # A run interrupted before its first shard finished merged no lifetimes.
    downtime = (
        downtime_minutes_per_year(result.availability) if result.n_iterations else float("nan")
    )
    scheme_lines = []
    if policy.has_periodic_checks:
        resolved = policy.scheme.resolve(params)
        scheme_lines.append(
            f"scheme:             {resolved.k}-of-{resolved.n_shares}, "
            f"repair below {resolved.repair_threshold}, "
            f"check every {resolved.check_period_hours:g} h"
        )
    lines = [
        f"policy:             {policy.name}",
        *scheme_lines,
        f"geometry:           {params.geometry.label}",
        f"disk failure rate:  {params.disk_failure_rate:g} /h",
        f"hep:                {params.hep:g}",
        f"iterations:         {result.n_iterations} x {args.horizon_years:g} years",
        f"executor:           {_executor_provenance(config)}",
        f"seed entropy:       {result.seed_entropy}",
        f"availability:       {result.availability:.12f}",
        f"nines:              {result.nines:.3f}",
        f"{result.interval.confidence * 100:g}% interval:       "
        f"[{result.interval.lower:.12f}, {result.interval.upper:.12f}]",
        *(
            [f"effective samples:  {result.ess:.0f} (importance-sampled, biasing={args.biasing:g})"]
            if result.ess is not None
            else []
        ),
        f"downtime per year:  {downtime:.4f} minutes",
        f"events:             {int(totals.get('disk_failures', 0))} disk failures, "
        f"{int(totals.get('human_errors', 0))} human errors, "
        f"{int(totals.get('du_events', 0))} DU, {int(totals.get('dl_events', 0))} DL",
    ]
    if result.retried_shards:
        lines.append(f"retried shards:     {result.retried_shards}")
    if result.resumed_shards:
        lines.append(f"resumed shards:     {result.resumed_shards}")
    if not result.interrupted:
        return "\n".join(lines), 0
    lines.append("")
    lines.append(
        "interrupted: partial result (the run stopped before all shards "
        "completed)"
    )
    if config.journal_path is not None:
        lines.append(f"resume with --resume {config.journal_path}")
    else:
        lines.append(
            "no journal was recorded; pass --checkpoint PATH to make "
            "interrupted runs resumable"
        )
    return "\n".join(lines), 3


def _parse_axis_values(
    values: Optional[str], grid: Optional[str], values_flag: str, grid_flag: str
) -> Optional[List[float]]:
    """Parse one axis' values from its ``--values``/``--grid`` style flags."""
    if values is not None:
        try:
            return [float(token) for token in values.split(",") if token.strip()]
        except ValueError:
            raise ConfigurationError(
                f"{values_flag} must be comma-separated numbers, got {values!r}"
            ) from None
    if grid is not None:
        parts = grid.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ConfigurationError(
                f"{grid_flag} must look like START:STOP:POINTS[:log], got {grid!r}"
            )
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"{grid_flag} must look like START:STOP:POINTS[:log], got {grid!r}"
            ) from None
        if points < 1:
            raise ConfigurationError(f"{grid_flag} needs at least one point, got {points}")
        if len(parts) == 4:
            if start <= 0.0 or stop <= 0.0:
                raise ConfigurationError(f"log-spaced {grid_flag} requires positive bounds")
            return [float(v) for v in np.logspace(np.log10(start), np.log10(stop), points)]
        return [float(v) for v in np.linspace(start, stop, points)]
    return None


def _sweep_values(args: argparse.Namespace) -> List[float]:
    """Parse the swept axis values from ``--values`` or ``--grid``."""
    values = _parse_axis_values(args.values, args.grid, "--values", "--grid")
    if values is None:
        raise ConfigurationError("sweep requires --values or --grid")
    return values


def _fault_summary_lines(
    args: argparse.Namespace, retried: int, resumed: int, interrupted: bool
) -> Tuple[List[str], int]:
    """Summarise retry/resume/interrupt outcomes of a Monte Carlo sweep.

    Returns extra report lines plus the process exit code (3 when the sweep
    was interrupted and only partial points exist, 0 otherwise).
    """
    lines: List[str] = []
    if retried:
        lines.append(f"retried shards: {retried}")
    if resumed:
        lines.append(f"resumed shards: {resumed}")
    if not interrupted:
        return lines, 0
    lines.append(
        "interrupted: partial sweep (the run stopped before all shards "
        "completed)"
    )
    journal = args.resume if args.resume is not None else args.checkpoint
    if journal is not None:
        lines.append(f"resume with --resume {journal}")
    else:
        lines.append(
            "no journal was recorded; pass --checkpoint PATH to make "
            "interrupted sweeps resumable"
        )
    return lines, 3


def _run_sweep(args: argparse.Namespace) -> Tuple[str, int]:
    values = _sweep_values(args)
    values2 = _parse_axis_values(args.values2, args.grid2, "--values2", "--grid2")
    if (args.axis2 is None) != (values2 is None):
        raise ConfigurationError(
            "a 2-axis sweep requires both --axis2 and --values2/--grid2"
        )
    if args.scheme is not None:
        if args.policy is not None:
            raise ConfigurationError(
                "--scheme builds its own erasure policy; it is mutually "
                "exclusive with --policy"
            )
        policy, geometry = _scheme_policy(args)
    else:
        policy = args.policy or "conventional"
        geometry = RaidGeometry.from_label(args.raid)
    params = paper_parameters(
        geometry=geometry,
        disk_failure_rate=args.failure_rate,
        hep=args.hep,
    )
    if args.budget is not None and args.target_half_width is None:
        raise ConfigurationError(
            "--budget caps an adaptive sweep and does nothing without "
            "--target-half-width"
        )
    options = dict(
        policy=policy,
        backend=args.backend,
        mc_iterations=args.iterations,
        mc_horizon_hours=args.horizon_years * 8760.0,
        seed=args.seed,
        confidence=args.confidence,
        workers=args.workers,
        target_half_width=args.target_half_width,
        mc_max_iterations=args.budget,
        crn=args.crn,
        transport=args.transport,
        biasing=args.biasing,
        allocator=args.allocator,
        pool_kind=args.pool,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.max_shard_retries,
        retry_backoff=args.retry_backoff,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    policy_label = policy if isinstance(policy, str) else policy.name
    if args.axis2 is not None:
        grid = sweep_grid(params, args.axis, values, args.axis2, values2, **options)
        rendered = _render_sweep_grid(args, params, grid, policy_label)
        extra, code = _fault_summary_lines(
            args, grid.retried_shards, grid.resumed_shards, grid.interrupted
        )
        return "\n".join([rendered] + extra), code
    points = sweep(params, args.axis, values, **options)
    with_ci = any(point.has_interval for point in points)
    lines = [
        f"policy:   {policy_label}",
        f"geometry: {params.geometry.label}",
        f"axis:     {args.axis} ({len(points)} points)",
        f"backend:  {args.backend}",
        "",
    ]
    header = f"{'x':>14}{'availability':>20}{'nines':>10}"
    if with_ci:
        header += f"{'ci_low':>20}{'ci_high':>20}"
    lines.append(header)
    for point in points:
        row = f"{point.x:>14.6g}{point.availability:>20.12f}{point.nines:>10.3f}"
        if with_ci:
            row += f"{point.ci_lower:>20.12f}{point.ci_upper:>20.12f}"
        lines.append(row)
    extra, code = _fault_summary_lines(
        args,
        sum(point.retried_shards for point in points),
        sum(point.resumed_shards for point in points),
        any(point.interrupted for point in points),
    )
    if extra:
        lines.append("")
        lines.extend(extra)
    return "\n".join(lines), code


def _render_sweep_grid(args: argparse.Namespace, params, grid, policy_label: str) -> str:
    """Render a 2-axis surface as long-format rows (one line per point)."""
    with_ci = grid.ci_lower is not None
    n_points = len(grid.values1) * len(grid.values2)
    lines = [
        f"policy:   {policy_label}",
        f"geometry: {params.geometry.label}",
        f"axes:     {grid.axis1} x {grid.axis2} "
        f"({len(grid.values1)} x {len(grid.values2)} = {n_points} points)",
        f"backend:  {args.backend}",
        "",
    ]
    header = f"{grid.axis1:>14}{grid.axis2:>14}{'availability':>20}{'nines':>10}"
    if with_ci:
        header += f"{'ci_low':>20}{'ci_high':>20}"
    lines.append(header)
    availability, nines = grid.availability.tolist(), grid.nines.tolist()
    if with_ci:
        lower, upper = grid.ci_lower.tolist(), grid.ci_upper.tolist()
    for i, v1 in enumerate(grid.values1):
        for j, x in enumerate(grid.values2):
            row = (
                f"{v1:>14.6g}{x:>14.6g}"
                f"{availability[i][j]:>20.12f}{nines[i][j]:>10.3f}"
            )
            if with_ci:
                row += f"{lower[i][j]:>20.12f}{upper[i][j]:>20.12f}"
            lines.append(row)
    return "\n".join(lines)


def _run_crossval(args: argparse.Namespace) -> "tuple[str, bool]":
    """Return the rendered report and whether every policy passed."""
    params = paper_parameters(
        geometry=RaidGeometry.from_label(args.raid),
        disk_failure_rate=args.failure_rate,
        hep=args.hep,
    )
    rows = run_cross_validation(
        params=params,
        policies=args.policies,
        mc_iterations=args.iterations,
        seed=args.seed,
        workers=args.workers,
        pool_kind=args.pool,
    )
    table = cross_validation_table(rows)
    passed = all_within_ci(rows)
    verdict = "PASS" if passed else "FAIL"
    return table.render() + f"\ncross-validation: {verdict}", passed


def _scheme_summary(policy) -> str:
    """One-line scheme description of a registered policy."""
    scheme = policy.scheme
    if scheme is None:
        return "-"
    if scheme.n_shares is None:
        structure = "k-of-N from geometry"
    else:
        structure = (
            f"{scheme.k}-of-{scheme.n_shares}, repair below {scheme.repair_threshold}"
        )
    if scheme.is_periodic:
        return f"{structure}; check every {scheme.check_period_hours:g} h"
    return f"{structure}; continuous repair"


def _run_policies(args: argparse.Namespace) -> str:
    lines = [
        "registered replacement policies:",
        "",
        f"  {'name':<22}{'faces':<14}{'kernels':<15}{'stacked':<9}scheme",
    ]
    for name in available_policies():
        policy = get_policy(name)
        faces = "both" if policy.has_analytical_model else "monte_carlo"
        kernels = "batch+scalar" if policy.has_batch_kernel else "scalar"
        stacked = "yes" if policy.supports_stacked else "no"
        lines.append(
            f"  {name:<22}{faces:<14}{kernels:<15}{stacked:<9}"
            f"{_scheme_summary(policy)}"
        )
        lines.append(f"  {'':<22}{policy.description}")
    lines.append("")
    lines.append(
        "use 'mc --policy <name>' to simulate one, 'mc --spares K' for a "
        "hot-spare pool with K spares, or 'mc --scheme k:N:R' for a pinned "
        "erasure scheme"
    )
    return "\n".join(lines)


def _run_bench(args: argparse.Namespace) -> str:
    history = load_history(Path(args.file))
    if args.action == "table":
        return render_latest_table(history)
    return render_history(history, op=args.op)


def _run_reproduce(args: argparse.Namespace) -> str:
    report = run_all_experiments(
        mc_iterations=args.mc_iterations,
        include_monte_carlo=not args.no_mc,
        workers=args.workers,
    )
    return report.render()


def _install_sigterm_handler() -> None:
    """Convert SIGTERM into KeyboardInterrupt for graceful shutdown.

    The sharded executor already turns KeyboardInterrupt into a flagged
    partial result (checkpointed when a journal is configured); routing
    SIGTERM through the same path makes ``kill <pid>`` — and batch
    schedulers' polite termination — resumable instead of lossy.
    """

    def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_sigterm_handler()
    try:
        if args.command == "solve":
            print(_run_solve(args))
        elif args.command == "compare":
            print(_run_compare(args))
        elif args.command == "mc":
            output, code = _run_mc(args)
            print(output)
            if code:
                return code
        elif args.command == "sweep":
            output, code = _run_sweep(args)
            print(output)
            if code:
                return code
        elif args.command == "crossval":
            output, passed = _run_crossval(args)
            print(output)
            if not passed:
                return 1
        elif args.command == "policies":
            print(_run_policies(args))
        elif args.command == "bench":
            print(_run_bench(args))
        elif args.command == "reproduce":
            print(_run_reproduce(args))
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except ReproError as exc:
        # Mis-parameterisations (unknown policy, bad rates, ...) are user
        # errors at this boundary, not stack traces.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
