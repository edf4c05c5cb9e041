"""Tests for the sharded executor's fault tolerance.

Covers the retry/timeout/backoff layer (crashed, hung and killed shards
recompute bit-identical summaries), worker-loss recovery on process pools,
graceful interruption into flagged partial results, the durable
checkpoint/resume journal (resumed runs bit-identical to uninterrupted
ones, across worker counts), the deterministic fault-injection harness
itself, and the shared-memory orphan reaper.  Retry, timeout, rebuild and
resume tests also check the executor's DEBUG shard lifecycle log against
its counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.montecarlo import (
    DEFAULT_SHARD_CAP,
    FaultInjected,
    FaultPlan,
    MonteCarloConfig,
    ShardJournal,
    fault_plan,
    journal_entropy,
    replay_stacked_point,
    run_digest,
    run_monte_carlo,
    run_monte_carlo_with_trace,
    run_stacked,
)
from repro.core.montecarlo.faults import FAULT_PLAN_ENV, write_plan
from repro.core.montecarlo.parallel import _PoolSupervisor, worker_pool
from repro.core.montecarlo.transport import active_segments, reap_stale_segments
from repro.core.parameters import paper_parameters
from repro.core.policies import SimulationPolicy, get_policy, resolve_policy
from repro.exceptions import ConfigurationError
from repro.simulation.rng import RandomStreams

#: Exaggerated operating point: events are frequent enough that a few
#: thousand lifetimes resolve an interval (same point the executor tests use).
STRESS = dict(disk_failure_rate=1e-4, hep=0.05)
HORIZON = 50_000.0


def _config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        params=paper_parameters(**STRESS),
        n_iterations=2000,
        horizon_hours=HORIZON,
        seed=13,
        shard_size=500,
        max_shard_retries=2,
        retry_backoff=0.0,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


def _stacked_configs(n_points: int = 3, **overrides):
    heps = np.linspace(0.01, 0.05, n_points)
    defaults = dict(
        n_iterations=1500,
        horizon_hours=HORIZON,
        seed=13,
        shard_size=500,
        max_shard_retries=2,
        retry_backoff=0.0,
    )
    defaults.update(overrides)
    return [
        MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-4, hep=float(hep)),
            policy="conventional",
            **defaults,
        )
        for hep in heps
    ]


#: Config fields that do not feed the journal's run digest, because they
#: cannot change a run's numbers.  ``collect_trace`` is here because the
#: sharded path, the only one that journals, rejects it.
RESULT_NEUTRAL_FIELDS = (
    "workers",
    "pool",
    "transport",
    "shard_timeout",
    "max_shard_retries",
    "retry_backoff",
    "checkpoint",
    "resume",
    "collect_trace",
)

#: The result-neutral fields that only steer how a sharded run executes,
#: each with a changed value under which a journal must still resume.
#: ``checkpoint`` and ``resume`` (the journal's own path) and
#: ``collect_trace`` have tests of their own.
EXECUTION_FIELD_VARIANTS = {
    "workers": 2,
    "pool": "thread",
    "transport": "pickle",
    "shard_timeout": 60.0,
    "max_shard_retries": 0,
    "retry_backoff": 0.5,
}

#: Every other config field, each with a changed value that must move the
#: digest of :func:`_config_digest`'s adaptive base run.
DIGEST_FIELD_VARIANTS = {
    "params": paper_parameters(disk_failure_rate=2e-4, hep=0.05),
    "policy": "automatic_failover",
    "horizon_hours": 40_000.0,
    "n_iterations": 3000,
    "confidence": 0.95,
    "seed": 14,
    "shard_size": 250,
    "target_half_width": 2e-3,
    "max_iterations": 9000,
    "biasing": 2.0,
    "allocator": "ci_width",
}


#: The run digest that builds deriving the unpinned shard size from the
#: worker count wrote for ``_config(shard_size=None, workers=2)``.
WORKER_KEYED_DIGEST = "f93b39d15127da156f754156b3c094840b2263162806e9d0cd385c4830673257"


def _config_digest(config: MonteCarloConfig) -> str:
    """Return the digest a single-point sharded run of ``config`` journals."""
    digest, _ = run_digest(
        [config],
        resolve_policy(config.policy),
        master_entropy=RandomStreams(config.seed).seed_entropy,
        shard_size=config.shard_size,
        scalar=True,
    )
    return digest


#: The logger of the executor's shard lifecycle events.
SHARD_LOGGER = "repro.core.montecarlo.parallel"


@pytest.fixture
def shard_log(caplog):
    """Capture the executor's DEBUG shard events; return a message filter."""
    caplog.set_level(logging.DEBUG, logger=SHARD_LOGGER)

    def messages(text: str):
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == SHARD_LOGGER
            and record.levelno == logging.DEBUG
            and text in record.getMessage()
        ]

    return messages


def _assert_bit_identical(results, reference):
    for got, want in zip(results, reference):
        assert got.availability == want.availability
        assert got.interval.half_width == want.interval.half_width
        assert got.n_iterations == want.n_iterations
        assert got.totals == want.totals


class TestConfigValidation:
    def test_shard_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _config(shard_timeout=0.0)
        with pytest.raises(ConfigurationError):
            _config(shard_timeout=-1.0)

    def test_max_shard_retries_non_negative(self):
        with pytest.raises(ConfigurationError):
            _config(max_shard_retries=-1)

    def test_retry_backoff_non_negative(self):
        with pytest.raises(ConfigurationError):
            _config(retry_backoff=-0.5)

    def test_checkpoint_and_resume_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            _config(checkpoint="a.journal", resume="b.journal")

    def test_journal_requires_sharded_executor(self, tmp_path):
        # A batch-kernel policy runs on the sharded executor even at
        # workers=1, so it journals; a policy without a batch kernel runs
        # on the scalar loop there, which cannot.
        journal = tmp_path / "default.journal"
        config = MonteCarloConfig(
            params=paper_parameters(**STRESS),
            n_iterations=2000,
            horizon_hours=HORIZON,
            seed=13,
            checkpoint=str(journal),
        )
        written = run_monte_carlo(config)
        assert len(journal.read_text(encoding="utf-8").splitlines()) == 2
        resumed = run_monte_carlo(config.with_journal(resume=str(journal)))
        assert resumed.resumed_shards == 1
        _assert_bit_identical([resumed], [written])

        scalar_only = SimulationPolicy(
            name="scalar_only",
            description="no batch kernel",
            scalar=get_policy("conventional").scalar,
        )
        never = tmp_path / "never-written.journal"
        with pytest.raises(ConfigurationError, match="sharded"):
            run_monte_carlo(
                config.with_policy(scalar_only).with_journal(checkpoint=str(never))
            )
        assert not never.exists()

    @pytest.mark.parametrize("field", ["checkpoint", "resume"])
    def test_traced_config_refuses_journal(self, tmp_path, field):
        # The scalar loop writes no journal, so a traced config must not
        # accept one and silently drop it.
        path = str(tmp_path / "trace.journal")
        plain = MonteCarloConfig(
            params=paper_parameters(**STRESS),
            n_iterations=50,
            horizon_hours=HORIZON,
            seed=13,
        )
        with pytest.raises(ConfigurationError, match="collect_trace"):
            dataclasses.replace(plain, collect_trace=True, **{field: path})
        assert not Path(path).exists()

    @pytest.mark.parametrize("field", ["checkpoint", "resume"])
    def test_run_with_trace_refuses_journal(self, tmp_path, field):
        path = str(tmp_path / "trace.journal")
        config = MonteCarloConfig(
            params=paper_parameters(**STRESS),
            n_iterations=50,
            horizon_hours=HORIZON,
            seed=13,
            **{field: path},
        )
        with pytest.raises(ConfigurationError, match="collect_trace"):
            run_monte_carlo_with_trace(config)
        assert not Path(path).exists()

    def test_with_retries_helper(self):
        config = _config().with_retries(3, shard_timeout=1.5)
        assert config.max_shard_retries == 3
        assert config.shard_timeout == 1.5

    def test_with_journal_helper(self):
        config = _config().with_journal(checkpoint="x.journal")
        assert config.checkpoint == "x.journal"
        assert config.journal_path == "x.journal"
        resumed = _config().with_journal(resume="x.journal")
        assert resumed.journal_path == "x.journal"


class TestFaultHarness:
    def test_plan_round_trips_through_file(self, tmp_path):
        from repro.core.montecarlo.faults import ShardFault, active_plan

        plan = FaultPlan(
            faults={2: ShardFault("hang", 0.25)},
            abort_after=3,
        )
        with fault_plan(plan, tmp_path) as path:
            installed = active_plan()
            assert installed is not None
            assert installed.plan.abort_after == 3
            assert installed.plan.faults[2].kind == "hang"
            assert installed.plan.faults[2].hang_seconds == 0.25
            assert Path(path).exists()
        assert os.environ.get("REPRO_FAULT_PLAN") is None

    def test_faults_fire_exactly_once(self, tmp_path):
        from repro.core.montecarlo.faults import check_fault

        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            with pytest.raises(FaultInjected):
                check_fault(0)
            check_fault(0)  # armed: second attempt runs clean

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.single(0, "explode")


class TestScalarShardRetry:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    @pytest.mark.parametrize("kind", ["raise", "kill"])
    def test_faulted_shard_retries_bit_identical(self, tmp_path, pool, kind, shard_log):
        # "kill" degrades to "raise" on thread/serial pools (documented);
        # on the process pool it exercises the BrokenProcessPool rebuild.
        workers = 1 if pool == "serial" else 2
        clean = run_monte_carlo(_config(workers=workers, pool=pool))
        with fault_plan(FaultPlan.single(0, kind), tmp_path):
            faulted = run_monte_carlo(_config(workers=workers, pool=pool))
        assert faulted.retried_shards >= 1
        assert len(shard_log("retried")) == faulted.retried_shards
        if kind == "kill" and pool == "process":
            assert shard_log("worker pool rebuilt")
        assert not faulted.interrupted
        _assert_bit_identical([faulted], [clean])

    def test_hang_trips_timeout_and_retries(self, tmp_path, shard_log):
        clean = run_monte_carlo(_config(workers=2, pool="process"))
        with fault_plan(FaultPlan.single(0, "hang", hang_seconds=30.0), tmp_path):
            faulted = run_monte_carlo(
                _config(workers=2, pool="process", shard_timeout=1.0)
            )
        assert faulted.retried_shards >= 1
        assert shard_log("timed out after 1.0s")
        assert len(shard_log("worker pool rebuilt")) == faulted.retried_shards
        assert len(shard_log("retried")) == faulted.retried_shards
        _assert_bit_identical([faulted], [clean])

    def test_retries_exhausted_raises(self, tmp_path):
        # Two distinct shard faults against a single-retry budget: the
        # second failure exceeds max_shard_retries for its shard only if it
        # keeps faulting, so plan a fresh fault per attempt via retries=0.
        with fault_plan(FaultPlan.single(1, "raise"), tmp_path):
            with pytest.raises(FaultInjected):
                run_monte_carlo(_config(workers=2, pool="thread", max_shard_retries=0))

    def test_inline_path_retries_exceptions(self, tmp_path, shard_log):
        # workers=1 without a pool runs shards inline; the retry budget
        # still applies to in-shard exceptions (timeouts are documented as
        # unenforced there).
        clean = run_monte_carlo(_config(workers=1))
        with fault_plan(FaultPlan.single(2, "raise"), tmp_path):
            faulted = run_monte_carlo(_config(workers=1))
        assert faulted.retried_shards == 1
        assert shard_log("retried") == [
            "shard 2/4 retried (attempt 1 of 2): "
            "FaultInjected(\"injected 'raise' fault on shard 2\")"
        ]
        _assert_bit_identical([faulted], [clean])


class TestStackedFaultMatrix:
    @pytest.mark.parametrize(
        ("kind", "pool", "workers"),
        [
            ("raise", "serial", 1),
            ("raise", "thread", 2),
            ("raise", "process", 2),
            ("kill", "serial", 1),
            ("kill", "thread", 4),
            ("kill", "process", 2),
        ],
    )
    def test_faulted_stacked_shard_retries_bit_identical(
        self, tmp_path, kind, pool, workers, shard_log
    ):
        clean = run_stacked(_stacked_configs(workers=workers, pool=pool))
        with fault_plan(FaultPlan.single(1, kind), tmp_path):
            faulted = run_stacked(_stacked_configs(workers=workers, pool=pool))
        retried = sum(point.retried_shards for point in faulted)
        assert retried >= 1
        assert len(shard_log("retried")) == retried
        _assert_bit_identical(faulted, clean)

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_stacked_hang_trips_timeout(self, tmp_path, pool, shard_log):
        clean = run_stacked(_stacked_configs(workers=2, pool=pool))
        with fault_plan(FaultPlan.single(0, "hang", hang_seconds=3.0), tmp_path):
            faulted = run_stacked(
                _stacked_configs(workers=2, pool=pool, shard_timeout=0.75)
            )
        retried = sum(point.retried_shards for point in faulted)
        assert retried >= 1
        assert shard_log("timed out after 0.75s")
        assert len(shard_log(f"worker pool rebuilt: 2 {pool} workers")) == retried
        assert len(shard_log("retried")) == retried
        _assert_bit_identical(faulted, clean)

    def test_adaptive_run_survives_fault(self, tmp_path):
        kwargs = dict(
            n_iterations=1000,
            target_half_width=5e-3,
            max_iterations=8000,
            workers=2,
            pool="thread",
        )
        clean = run_stacked(_stacked_configs(**kwargs))
        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            faulted = run_stacked(_stacked_configs(**kwargs))
        assert sum(point.retried_shards for point in faulted) >= 1
        _assert_bit_identical(faulted, clean)


class TestInterruptAndResume:
    def test_scalar_interrupt_flags_partial_and_resumes(self, tmp_path, shard_log):
        journal = str(tmp_path / "scalar.journal")
        clean = run_monte_carlo(_config(workers=1))
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            partial = run_monte_carlo(_config(workers=1, checkpoint=journal))
        assert partial.interrupted
        assert partial.n_iterations == 1000  # 2 of 4 journaled shards
        assert not shard_log("spliced")
        resumed = run_monte_carlo(_config(workers=1, resume=journal))
        assert not resumed.interrupted
        assert resumed.resumed_shards == 2
        assert shard_log("spliced") == [
            f"journal {journal}: spliced 2 of 4 shards (resumed)"
        ]
        _assert_bit_identical([resumed], [clean])

    def test_default_point_interrupt_resumes_across_workers(self, tmp_path):
        # An unpinned single point at workers=1 (two 50k shards and a 20k
        # remainder) journals, stops after one shard and resumes to the
        # clean numbers, at one worker or two.
        journal = str(tmp_path / "point.journal")
        config = MonteCarloConfig(
            params=paper_parameters(disk_failure_rate=1e-5, hep=0.01),
            n_iterations=120_000,
            horizon_hours=20_000.0,
            seed=3,
        )
        clean = run_monte_carlo(config)
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            partial = run_monte_carlo(config.with_journal(checkpoint=journal))
        assert partial.interrupted
        assert partial.n_iterations == 50_000
        resumed = run_monte_carlo(config.with_journal(resume=journal))
        assert not resumed.interrupted
        assert resumed.resumed_shards > 0
        _assert_bit_identical([resumed], [clean])
        again = run_monte_carlo(config.with_workers(2).with_journal(resume=journal))
        assert again.resumed_shards == 3
        _assert_bit_identical([again], [clean])

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_stacked_resume_bit_identical_across_workers(
        self, tmp_path, resume_workers, shard_log
    ):
        journal = str(tmp_path / "stacked.journal")
        clean = run_stacked(_stacked_configs(workers=1))
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            partial = run_stacked(_stacked_configs(workers=1, checkpoint=journal))
        assert any(point.interrupted for point in partial)
        resumed = run_stacked(
            _stacked_configs(
                workers=resume_workers,
                pool="thread" if resume_workers > 1 else "process",
                resume=journal,
            )
        )
        assert all(not point.interrupted for point in resumed)
        spliced = sum(point.resumed_shards for point in resumed)
        assert spliced >= 2
        assert shard_log("spliced") == [
            f"journal {journal}: spliced {spliced} of 9 shards (resumed)"
        ]
        _assert_bit_identical(resumed, clean)

    def test_adaptive_resume_bit_identical(self, tmp_path):
        journal = str(tmp_path / "adaptive.journal")
        kwargs = dict(
            n_iterations=1000,
            target_half_width=5e-3,
            max_iterations=8000,
        )
        clean = run_stacked(_stacked_configs(**kwargs))
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            partial = run_stacked(_stacked_configs(checkpoint=journal, **kwargs))
        assert any(point.interrupted for point in partial)
        resumed = run_stacked(_stacked_configs(resume=journal, **kwargs))
        assert sum(point.resumed_shards for point in resumed) >= 1
        _assert_bit_identical(resumed, clean)

    def test_completed_journal_resumes_without_recompute(self, tmp_path, shard_log):
        journal = str(tmp_path / "done.journal")
        clean = run_stacked(_stacked_configs(checkpoint=journal))
        assert len(shard_log("finished")) == 9
        again = run_stacked(_stacked_configs(resume=journal))
        # Every shard of the finished run is journaled: the resume replays
        # them all without computing anything new.
        assert sum(point.resumed_shards for point in again) == 9  # 4500 / 500
        assert all(point.retried_shards == 0 for point in again)
        assert shard_log("spliced") == [f"journal {journal}: spliced 9 of 9 shards (resumed)"]
        assert len(shard_log("submitted")) == len(shard_log("finished")) == 9
        _assert_bit_identical(again, clean)

    def test_resume_with_unseeded_run_adopts_journal_entropy(self, tmp_path):
        journal = str(tmp_path / "unseeded.journal")
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            partial = run_stacked(
                _stacked_configs(seed=None, checkpoint=journal)
            )
        assert any(point.interrupted for point in partial)
        entropy = journal_entropy(journal)
        assert entropy is not None
        resumed = run_stacked(_stacked_configs(seed=None, resume=journal))
        assert all(point.seed_entropy == entropy for point in resumed)
        assert sum(point.resumed_shards for point in resumed) >= 1

    def test_replay_of_unseeded_resume_adopts_journal_entropy(self, tmp_path):
        # Replaying a point of a seed=None resume must use the journaled
        # entropy, exactly as the resumed grid run does.
        journal = str(tmp_path / "replay.journal")
        grid = run_stacked(_stacked_configs(seed=None, checkpoint=journal))
        configs = _stacked_configs(seed=None, resume=journal)
        resumed = run_stacked(configs)
        _assert_bit_identical(resumed, grid)
        replayed = replay_stacked_point(configs, 0)
        assert replayed.seed_entropy == journal_entropy(journal)
        _assert_bit_identical([replayed], grid[:1])


class TestJournalIntegrity:
    def test_missing_resume_journal_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            run_stacked(
                _stacked_configs(resume=str(tmp_path / "missing.journal"))
            )

    def test_digest_mismatch_rejected(self, tmp_path):
        journal = str(tmp_path / "mismatch.journal")
        run_stacked(_stacked_configs(checkpoint=journal))
        with pytest.raises(ConfigurationError, match="different run"):
            run_stacked(_stacked_configs(seed=99, resume=journal))

    def test_journal_of_the_earlier_default_shard_size_needs_it_pinned(self, tmp_path):
        # Earlier builds cut unpinned grids into 8192-lifetime shards and
        # keyed their journals on that size; a run pinned at 8192 writes
        # the same digest.  Unpinned, the grid now plans 25k-lifetime
        # shards, so such a journal is refused; pinned, it resumes.
        journal = str(tmp_path / "8192.journal")
        kwargs = dict(n_points=2, n_iterations=5000)
        written = run_stacked(
            _stacked_configs(shard_size=8192, checkpoint=journal, **kwargs)
        )
        with pytest.raises(ConfigurationError, match="different run"):
            run_stacked(_stacked_configs(shard_size=None, resume=journal, **kwargs))
        resumed = run_stacked(
            _stacked_configs(shard_size=8192, resume=journal, **kwargs)
        )
        assert sum(point.resumed_shards for point in resumed) == 2
        _assert_bit_identical(resumed, written)

    def test_torn_tail_tolerated(self, tmp_path):
        journal = tmp_path / "torn.journal"
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            run_stacked(_stacked_configs(checkpoint=str(journal)))
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "key": [9')  # torn mid-write
        clean = run_stacked(_stacked_configs())
        resumed = run_stacked(_stacked_configs(resume=str(journal)))
        _assert_bit_identical(resumed, clean)

    def test_worker_keyed_unpinned_journal_refused(self, tmp_path):
        # Builds that split an unpinned run one shard per worker put
        # "workers" into its key.  Such a journal records another
        # decomposition, so resuming it must fail on the digest.
        config = _config(shard_size=None, workers=2)
        entropy = RandomStreams(13).seed_entropy
        digest, key = run_digest(
            [config], get_policy("conventional"), master_entropy=entropy,
            shard_size=None, scalar=True,
        )
        assert "workers" not in key
        assert key["default_shard_size"] == DEFAULT_SHARD_CAP
        worker_keyed = {
            name: value for name, value in key.items() if name != "default_shard_size"
        }
        worker_keyed["workers"] = 2
        worker_keyed["version"] = 1  # such builds wrote journal version 1
        written = hashlib.sha256(
            json.dumps(worker_keyed, sort_keys=True).encode("utf-8")
        ).hexdigest()
        # The digest such a build wrote for this config.
        assert written == WORKER_KEYED_DIGEST != digest
        journal = tmp_path / "worker-keyed.journal"
        header = {
            "kind": "header", "version": 1, "digest": written,
            "master_entropy": entropy, "key": worker_keyed,
        }
        journal.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="different run"):
                run_monte_carlo(
                    config.with_workers(workers).with_journal(resume=str(journal))
                )

    def test_digest_excludes_workers_and_transport(self):
        configs = _stacked_configs()
        policy = get_policy("conventional")
        entropy = RandomStreams(13).seed_entropy
        base, _ = run_digest(
            configs, policy, master_entropy=entropy, shard_size=500
        )
        varied = [
            MonteCarloConfig(
                params=config.params,
                policy=config.policy,
                n_iterations=config.n_iterations,
                horizon_hours=config.horizon_hours,
                seed=config.seed,
                shard_size=config.shard_size,
                workers=8,
                pool="thread",
                transport="pickle",
                max_shard_retries=config.max_shard_retries,
                retry_backoff=config.retry_backoff,
            )
            for config in configs
        ]
        same, _ = run_digest(
            varied, policy, master_entropy=entropy, shard_size=500
        )
        assert same == base
        other, _ = run_digest(
            configs, policy, master_entropy=entropy + 1, shard_size=500
        )
        assert other != base

    def test_every_config_field_feeds_the_digest_or_is_result_neutral(self):
        # A field that changes the draws but stays out of the digest lets a
        # journal resume into a different run; a new field must be sorted
        # into one of the two groups before it ships.
        names = {field.name for field in dataclasses.fields(MonteCarloConfig)}
        unclassified = names - set(DIGEST_FIELD_VARIANTS) - set(RESULT_NEUTRAL_FIELDS)
        assert not unclassified, (
            f"config fields {sorted(unclassified)} neither feed the run digest "
            "nor are listed as result-neutral"
        )
        assert not set(DIGEST_FIELD_VARIANTS) & set(RESULT_NEUTRAL_FIELDS)
        assert set(RESULT_NEUTRAL_FIELDS) == set(EXECUTION_FIELD_VARIANTS) | {
            "checkpoint", "resume", "collect_trace",
        }

    @pytest.mark.parametrize("name", sorted(DIGEST_FIELD_VARIANTS))
    def test_digest_field_moves_the_digest(self, name):
        base = _config(target_half_width=1e-3, max_iterations=8000)
        varied = dataclasses.replace(base, **{name: DIGEST_FIELD_VARIANTS[name]})
        assert _config_digest(varied) != _config_digest(base), name

    @pytest.mark.parametrize("name", sorted(EXECUTION_FIELD_VARIANTS))
    def test_execution_field_change_still_resumes(self, tmp_path, name):
        # A journal written under the base settings resumes every shard
        # when only how the run executes changes.
        journal = str(tmp_path / "neutral.journal")
        written = run_monte_carlo(_config(checkpoint=journal))
        resumed = run_monte_carlo(
            _config(resume=journal, **{name: EXECUTION_FIELD_VARIANTS[name]})
        )
        assert resumed.resumed_shards == 4  # 2000 / 500
        _assert_bit_identical([resumed], [written])

    @pytest.mark.parametrize("field", ["checkpoint", "resume"])
    def test_moved_journal_still_resumes(self, tmp_path, field):
        # The journal's path stays out of the digest: a copied journal
        # resumes under either field.
        written_path = tmp_path / "written.journal"
        written = run_monte_carlo(_config(checkpoint=str(written_path)))
        moved_path = tmp_path / "moved.journal"
        moved_path.write_bytes(written_path.read_bytes())
        resumed = run_monte_carlo(_config(**{field: str(moved_path)}))
        assert resumed.resumed_shards == 4
        _assert_bit_identical([resumed], [written])

    def test_trace_collection_never_reaches_the_journal(self, tmp_path):
        # collect_trace is result-neutral for the journal because the
        # sharded path, the only one that journals, refuses it.
        with pytest.raises(ConfigurationError, match="collect_trace"):
            _config(checkpoint=str(tmp_path / "trace.journal"), collect_trace=True)

    def test_journal_append_idempotent(self, tmp_path):
        from repro.core.montecarlo.journal import record_from_summary
        from repro.simulation.confidence import StreamingMoments

        path = tmp_path / "idem.journal"
        rec = record_from_summary(StreamingMoments(), {})
        with ShardJournal.open(path, "d" * 64, {"k": 1}, 1234) as journal:
            journal.append((0, -1, -1), rec)
            journal.append((0, -1, -1), rec)
            assert len(journal) == 1


class TestShmOrphanRecovery:
    def test_parent_death_leaves_then_reaps_segment(self, tmp_path):
        pytest.importorskip("multiprocessing.shared_memory")
        if not Path("/dev/shm").is_dir():
            pytest.skip("no /dev/shm mount")
        script = (
            "import os\n"
            "from multiprocessing import resource_tracker, shared_memory\n"
            "from repro.core.montecarlo.transport import SHM_SEGMENT_PREFIX\n"
            "import secrets\n"
            "name = f'{SHM_SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}'\n"
            "shm = shared_memory.SharedMemory(create=True, size=64, name=name)\n"
            # A lone SIGKILL'd parent is cleaned up by its resource-tracker
            # sidecar; the leak this reaper exists for is the whole process
            # tree dying at once (OOM kill, container teardown).  Simulate
            # that by unregistering before dying without cleanup.
            "try:\n"
            "    resource_tracker.unregister(shm._name, 'shared_memory')\n"
            "except Exception:\n"
            "    pass\n"
            "print(name, flush=True)\n"
            "os._exit(1)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        name = proc.stdout.strip()
        assert name, proc.stderr
        assert name in active_segments()
        reaped = reap_stale_segments()
        assert name in reaped
        assert name not in active_segments()

    def test_reaper_spares_live_segments(self):
        pytest.importorskip("multiprocessing.shared_memory")
        if not Path("/dev/shm").is_dir():
            pytest.skip("no /dev/shm mount")
        from multiprocessing import shared_memory

        from repro.core.montecarlo.transport import _segment_name

        name = _segment_name()  # embeds this (live) process's pid
        shm = shared_memory.SharedMemory(create=True, size=64, name=name)
        try:
            assert name not in reap_stale_segments()
            assert name in active_segments()
        finally:
            shm.close()
            shm.unlink()

    def test_no_segments_leak_after_faulted_run(self, tmp_path):
        from repro.core.montecarlo.transport import shared_memory_available

        if not shared_memory_available():
            pytest.skip("shared memory not usable on this host")
        before = set(active_segments())
        with fault_plan(FaultPlan.single(0, "kill"), tmp_path):
            run_stacked(
                _stacked_configs(workers=2, pool="process", transport="shm")
            )
        assert set(active_segments()) <= before


def _mark_and_sleep(directory: str) -> None:
    """Leave a marker named after this worker's pid, then hang."""
    Path(directory, str(os.getpid())).touch()
    time.sleep(30.0)


def _sigterm_is_default() -> bool:
    """Return whether this process takes SIGTERM's default action."""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


def _wait_until(condition, seconds: float) -> bool:
    """Poll ``condition`` for up to ``seconds``; return its last value."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


class TestPoolTeardown:
    """Tearing an own process pool down terminates its workers."""

    @staticmethod
    def _hung_workers(supervisor, directory):
        """Occupy both workers of the supervisor's pool; return them."""
        pool = supervisor.ensure()
        for _ in range(2):
            pool.submit(_mark_and_sleep, str(directory))
        assert _wait_until(lambda: len(os.listdir(directory)) == 2, 30.0)
        return list(pool._processes.values())

    def test_abort_terminates_hung_workers(self, tmp_path):
        supervisor = _PoolSupervisor(2, "process", None)
        workers = self._hung_workers(supervisor, tmp_path)
        supervisor.abort()
        assert _wait_until(lambda: not any(w.is_alive() for w in workers), 2.0)

    def test_rebuild_terminates_hung_workers(self, tmp_path):
        supervisor = _PoolSupervisor(2, "process", None)
        workers = self._hung_workers(supervisor, tmp_path)
        try:
            assert supervisor.rebuild() is not None
            assert _wait_until(lambda: not any(w.is_alive() for w in workers), 2.0)
        finally:
            supervisor.close()

    def test_workers_take_the_default_sigterm_action(self):
        # The CLI turns SIGTERM into KeyboardInterrupt; a forked worker must
        # not inherit that, or every terminated worker prints a traceback.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with worker_pool(2) as pool:
                answers = [pool.submit(_sigterm_is_default) for _ in range(4)]
                assert all(answer.result(timeout=30) for answer in answers)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_hung_shard_run_exits_promptly(self, tmp_path):
        # The hung worker sleeps 30 s; a run that waits for it to finish
        # instead of terminating it exits after that.
        plan = write_plan(FaultPlan.single(0, "hang", hang_seconds=30.0), tmp_path)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env[FAULT_PLAN_ENV] = str(plan)
        command = [
            sys.executable, "-m", "repro", "mc",
            "--policy", "conventional",
            "--failure-rate", "1e-4",
            "--hep", "0.01",
            "--iterations", "4000",
            "--seed", "1",
            "--workers", "2",
            "--shard-size", "1000",
            "--shard-timeout", "1",
            "--max-shard-retries", "2",
            "--retry-backoff", "0",
        ]
        start = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert "retried shards:" in proc.stdout
        # The timeout, rebuild and retry events are DEBUG records and no
        # handler is installed, so the default run stays silent.
        assert proc.stderr == ""
        assert elapsed < 15.0


class TestCliFaultFlags:
    def test_reap_shm_command(self, capsys):
        from repro.cli import main

        assert main(["mc", "--reap-shm"]) == 0
        out = capsys.readouterr().out
        assert "stale shared-memory segment" in out

    def test_mc_interrupt_exits_nonzero_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "cli.journal")
        args = [
            "mc",
            "--failure-rate", "1e-4",
            "--hep", "0.05",
            "--iterations", "2000",
            "--shard-size", "500",
            "--seed", "13",
        ]
        with fault_plan(FaultPlan(abort_after=2), tmp_path / "plan"):
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resumed shards:" in out

    def test_mc_interrupt_before_the_first_shard_exits_with_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        # Interrupted as its first shard starts, the run merged no
        # lifetimes: it still reports a partial result, not an error.
        from repro.cli import main
        from repro.core.montecarlo import parallel

        def interrupt(stream_index):
            raise KeyboardInterrupt

        journal = str(tmp_path / "cli.journal")
        args = [
            "mc",
            "--failure-rate", "1e-4",
            "--hep", "0.05",
            "--iterations", "2000",
            "--seed", "13",
        ]
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "check_fault", interrupt)
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "iterations:         0 x" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        assert "interrupted" not in capsys.readouterr().out

    def test_mc_retry_count_printed(self, tmp_path, capsys):
        from repro.cli import main

        with fault_plan(FaultPlan.single(0, "raise"), tmp_path):
            code = main(
                [
                    "mc",
                    "--failure-rate", "1e-4",
                    "--hep", "0.05",
                    "--iterations", "2000",
                    "--shard-size", "500",
                    "--seed", "13",
                    "--max-shard-retries", "2",
                ]
            )
        assert code == 0
        assert "retried shards:     1" in capsys.readouterr().out

    # At 30000 lifetimes per point the three points fill 25k-lifetime
    # shards 0-3, so after one shard the last two points have none.
    @pytest.mark.parametrize("iterations", ["1500", "30000"])
    def test_sweep_interrupt_exits_nonzero_with_hint(self, tmp_path, capsys, iterations):
        from repro.cli import main

        journal = str(tmp_path / "sweep.journal")
        args = [
            "sweep",
            "--axis", "hep",
            "--values", "0.01,0.03,0.05",
            "--backend", "monte_carlo",
            "--failure-rate", "1e-4",
            "--iterations", iterations,
            "--seed", "13",
        ]
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resumed shards:" in out

    def test_grid_sweep_interrupt_exits_nonzero_with_hint(self, tmp_path, capsys):
        # The --axis2 report reads the grid's run-level counters.
        from repro.cli import main

        journal = str(tmp_path / "grid.journal")
        args = [
            "sweep",
            "--axis", "hep",
            "--values", "0.01,0.05",
            "--axis2", "failure_rate",
            "--values2", "1e-4,2e-4",
            "--backend", "monte_carlo",
            "--iterations", "1500",
            "--seed", "13",
        ]
        with fault_plan(FaultPlan(abort_after=1), tmp_path / "plan"):
            code = main(args + ["--checkpoint", journal])
        assert code == 3
        out = capsys.readouterr().out
        assert "interrupted: partial sweep" in out
        assert f"--resume {journal}" in out

        assert main(args + ["--resume", journal]) == 0
        out = capsys.readouterr().out
        assert "resumed shards: 1" in out
        assert "interrupted" not in out
