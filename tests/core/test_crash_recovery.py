"""Crash-safety tests: kill -9 at every item boundary, corrupt-archive
self-healing, and supervised degradation to inline execution.

These are the acceptance tests for the durability layer
(:mod:`repro.durable`): a campaign killed at *any* seeded point must
resume to a byte-identical result; a checksum-corrupted shard archive
must be quarantined and recomputed, never merged or crashed on; and a
crash-looping worker pool must trip its circuit breaker and finish the
campaign inline with identical output.  Sweeps and fleets run on the
same campaign driver, so every drill runs for both kinds (see
:mod:`tests.core.kinds`).
"""

import contextlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro import durable
from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import ParallelSweepRunner
from repro.core.patterns import ROWSTRIPE0
from repro.core.sweeps import SweepConfig
from repro.durable import KILL_VAR, read_artifact, write_artifact
from repro.engine import pool
from repro.errors import PoolDegradedError
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, use_metrics
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile
from tests.core.kinds import FLEET, ITEMS, KINDS, SWEEP

SHARDS = ITEMS  # 2 channels x 1 bank x 3 regions, or 6 fleet devices


def small_spec() -> BoardSpec:
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=SMALL_GEOMETRY, profile=vulnerable_profile())


def lean_config(**overrides) -> SweepConfig:
    # Explicitly fault-free (FaultSpec() suppresses $REPRO_FAULTS), so
    # these tests stay deterministic under the CI chaos job too.
    defaults = dict(
        channels=(0, 1),
        banks=(0,),
        region_size=64,
        rows_per_region=2,
        hcfirst_rows_per_region=0,
        include_hcfirst=False,
        patterns=(ROWSTRIPE0,),
        faults=FaultSpec(),
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def _campaign_child(kind_name: str, campaign_dir: str,
                    kill_after: int) -> None:
    """Forked campaign parent that dies at the kill point.

    The fork inherits pytest's durable write counters and (unread) kill
    env; reset so this process observes its own budget from zero.  A
    fresh process group lets the test reap this child's own pool
    workers, which outlive their SIGKILLed parent.
    """
    os.setpgrp()
    os.environ[KILL_VAR] = str(kill_after)
    durable.reset_io_state()
    KINDS[kind_name].runner(jobs=2, faults=FaultSpec(),
                            campaign_dir=Path(campaign_dir)).run()


def _await_death(child, timeout_s: float = 60.0):
    """Wait for the forked campaign child, then reap its whole group.

    ``Process.join`` would block for its full timeout here: the child's
    orphaned pool workers inherit its exit-sentinel pipe, so the
    sentinel never signals even though the child is long dead.  Polling
    ``exitcode`` (``waitpid(WNOHANG)``) sees the death immediately;
    killing the process group then cleans up the orphans.
    """
    deadline = time.monotonic() + timeout_s
    while child.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.02)
    exitcode = child.exitcode
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(child.pid, signal.SIGKILL)
    return exitcode


@pytest.fixture(scope="class")
def baseline_bytes(request, tmp_path_factory):
    """The uninterrupted campaign's archive — the byte-identity oracle
    for the test class's campaign kind."""
    kind = request.cls.kind
    scratch = tmp_path_factory.mktemp("baseline")
    result = kind.runner(jobs=2, faults=FaultSpec()).run()
    return kind.artifact(result, scratch / "baseline.json")


class TestKillNineAtEveryShardBoundary:
    kind = SWEEP

    @pytest.mark.parametrize("kill_after", range(1, SHARDS + 1))
    def test_resume_is_byte_identical(self, tmp_path, baseline_bytes,
                                      kill_after):
        kind = self.kind
        campaign = tmp_path / "campaign"
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_campaign_child,
                                args=(kind.name, str(campaign), kill_after))
        child.start()
        exitcode = _await_death(child)
        assert exitcode == -9, \
            f"child survived its kill point (exit {exitcode})"

        # The kill fired right after the Nth shard-archive rename, so
        # exactly N complete archives exist and none is torn.
        archives = sorted(campaign.glob("shard_*.json"))
        assert len(archives) == kill_after

        metrics = MetricsRegistry()
        resumed = kind.runner(jobs=2, faults=FaultSpec(),
                              campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = resumed.run()

        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_loads"] == kill_after
        assert counters.get("campaign.recovered_shards", 0) == 0
        assert resumed.coverage["complete"] is True
        assert kind.artifact(dataset, tmp_path / "resumed.json") == \
            baseline_bytes


class TestKillNineAtEveryDeviceBoundary(TestKillNineAtEveryShardBoundary):
    kind = FLEET


class TestCorruptArchiveSelfHealing:
    kind = SWEEP

    def _completed_campaign(self, tmp_path):
        campaign = tmp_path / "campaign"
        self.kind.runner(jobs=2, faults=FaultSpec(),
                         campaign_dir=campaign).run()
        return campaign

    def _resume(self, campaign):
        metrics = MetricsRegistry()
        runner = self.kind.runner(jobs=2, faults=FaultSpec(),
                                  campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = runner.run()
        return dataset, metrics.snapshot()["counters"]

    def test_bitrotted_shard_quarantined_and_recomputed(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00002.json"
        raw = bytearray(victim.read_bytes())
        raw[-20] ^= 0x10  # flip one payload bit: checksum now fails
        victim.write_bytes(bytes(raw))

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert counters["campaign.checkpoint_loads"] == SHARDS - 1
        assert (campaign / "shard_00002.json.corrupt").exists()
        # The archive was recomputed in place, and verifies again.
        read_artifact(victim, kind="shard")
        assert self.kind.artifact(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_truncated_shard_quarantined_and_recomputed(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00004.json"
        victim.write_bytes(victim.read_bytes()[:64])  # torn mid-write

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert (campaign / "shard_00004.json.corrupt").exists()
        assert self.kind.artifact(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_foreign_shard_stamp_quarantined(self, tmp_path,
                                             baseline_bytes):
        """A checksum-valid archive stamped with another campaign's
        fingerprint is provenance poison, not a checkpoint."""
        campaign = self._completed_campaign(tmp_path)
        victim = campaign / "shard_00001.json"
        foreign = read_artifact(victim, kind="shard")
        write_artifact(victim, foreign.payload, kind="shard",
                       campaign="deadbeef" * 8)

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_shards"] == 1
        assert (campaign / "shard_00001.json.corrupt").exists()
        assert self.kind.artifact(dataset, tmp_path / "healed.json") == \
            baseline_bytes

    def test_corrupt_manifest_quarantined_and_rewritten(
            self, tmp_path, baseline_bytes):
        campaign = self._completed_campaign(tmp_path)
        manifest = campaign / "campaign.json"
        manifest.write_text('{"version": 2, "fingerp')  # torn mid-write

        dataset, counters = self._resume(campaign)
        assert counters["campaign.recovered_manifests"] == 1
        assert counters["campaign.checkpoint_loads"] == SHARDS
        assert (campaign / "campaign.json.corrupt").exists()
        # The rewritten manifest verifies and carries the fingerprint,
        # because the shard stamps alone re-established provenance.
        artifact = read_artifact(manifest, kind="campaign-manifest")
        assert artifact.payload["fingerprint"]
        assert self.kind.artifact(dataset, tmp_path / "healed.json") == \
            baseline_bytes


class TestCorruptArchiveSelfHealingFleet(TestCorruptArchiveSelfHealing):
    kind = FLEET


class TestSupervisedDegradation:
    kind = SWEEP

    def test_crash_loop_degrades_to_serial_with_identical_output(
            self, tmp_path, baseline_bytes):
        kind = self.kind
        metrics = MetricsRegistry()
        runner = kind.runner(jobs=2, max_retries=2,
                             **kind.crash_in_pool_workers())
        with use_metrics(metrics):
            dataset = runner.run()

        assert runner.errors == ()
        assert runner.coverage["complete"] is True
        counters = metrics.snapshot()["counters"]
        assert counters["engine.pool.breaker_open"] >= 1
        assert counters["engine.pool.worker_crashes"] >= 1
        assert counters[f"{kind.name}.degraded_serial"] >= 1
        assert kind.artifact(dataset, tmp_path / "degraded.json") == \
            baseline_bytes

    def test_degrade_never_surfaces_the_breaker(self, tmp_path):
        kind = self.kind
        runner = kind.runner(jobs=2, max_retries=2, degrade="never",
                             **kind.crash_in_pool_workers())
        with pytest.raises(PoolDegradedError) as excinfo:
            runner.run()
        assert excinfo.value.crashes >= 1

    def test_crash_budget_env_tightens_the_breaker(self, tmp_path,
                                                   monkeypatch,
                                                   baseline_bytes):
        kind = self.kind
        monkeypatch.setenv(pool.CRASH_BUDGET_VAR, "1")
        runner = kind.runner(jobs=2, max_retries=2,
                             **kind.crash_in_pool_workers())
        dataset = runner.run()
        assert runner.errors == ()
        assert kind.artifact(dataset, tmp_path / "degraded.json") == \
            baseline_bytes


class TestSupervisedDegradationFleet(TestSupervisedDegradation):
    kind = FLEET


class TestInjectedCrashInline:
    @pytest.mark.parametrize("kind_name, jobs, budget",
                             [("sweep", 2, "1"), ("fleet", 1, None)])
    def test_injected_crash_inline_is_quarantined_not_fatal(
            self, monkeypatch, kind_name, jobs, budget):
        """An injected ``crash`` draw on an item running inline — the
        degrade fallback — fails that attempt instead of exiting the
        campaign parent; every item ends quarantined as ``crash``."""
        if budget is not None:
            monkeypatch.setenv(pool.CRASH_BUDGET_VAR, budget)
        kind = KINDS[kind_name]
        runner = kind.runner(jobs=jobs, faults=FaultSpec(shard_crash=1.0))
        runner.run()
        assert len(runner.errors) == SHARDS
        assert {error.fault_category for error in runner.errors} == \
            {"crash"}
        assert runner.coverage[kind.unit]["quarantined"] == SHARDS


class TestCheckpointSurvivesDiskPressure:
    kind = SWEEP

    def test_enospc_on_checkpoint_write_does_not_kill_the_campaign(
            self, tmp_path, baseline_bytes):
        """Injected ENOSPC on every shard-archive write: the campaign
        keeps its results in memory and still merges byte-identically;
        only the checkpoints are lost."""
        kind = self.kind
        campaign = tmp_path / "campaign"
        faults = FaultSpec(seed=3, io_enospc=1.0)
        metrics = MetricsRegistry()
        runner = kind.runner(jobs=2, faults=faults, campaign_dir=campaign)
        with use_metrics(metrics):
            dataset = runner.run()

        counters = metrics.snapshot()["counters"]
        # One refusal for the manifest at prepare, one per shard write.
        assert counters["campaign.checkpoint_write_errors"] == SHARDS + 1
        assert counters.get("campaign.checkpoint_writes", 0) == 0
        assert not list(campaign.glob("shard_*.json"))
        assert kind.artifact(dataset, tmp_path / "merged.json") == \
            baseline_bytes


class TestCheckpointSurvivesDiskPressureFleet(
        TestCheckpointSurvivesDiskPressure):
    kind = FLEET


class TestEnvelopeFormat:
    def test_shard_archive_carries_campaign_stamp(self, tmp_path):
        campaign = tmp_path / "campaign"
        ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                            campaign_dir=campaign).run()
        artifact = read_artifact(campaign / "shard_00000.json",
                                 kind="shard")
        manifest = read_artifact(campaign / "campaign.json",
                                 kind="campaign-manifest")
        assert artifact.meta["campaign"] == \
            manifest.payload["fingerprint"]

    def test_legacy_plain_json_shard_still_loads(self, tmp_path):
        """Pre-envelope archives (bare dataset JSON) resume cleanly."""
        campaign = tmp_path / "campaign"
        ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                            campaign_dir=campaign).run()
        victim = campaign / "shard_00003.json"
        artifact = read_artifact(victim, kind="shard")
        victim.write_text(json.dumps(artifact.payload, indent=1) + "\n")

        metrics = MetricsRegistry()
        runner = ParallelSweepRunner(small_spec(), lean_config(jobs=1),
                                     campaign_dir=campaign)
        with use_metrics(metrics):
            runner.run()
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_loads"] == SHARDS
        assert counters.get("campaign.recovered_shards", 0) == 0
