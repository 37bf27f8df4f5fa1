"""Tests for repro.core.fleet — population runs over many specimens."""

import json

import pytest

from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.fleet import (
    FleetConfig,
    FleetRunner,
    default_fleet_sweep,
    population_summary,
)
from repro.core.patterns import ROWSTRIPE0
from repro.core.results import REGION_FIRST
from repro.core.sweeps import SweepConfig
from repro.errors import CampaignStateError, ExperimentError
from repro.faults.plan import FaultSpec
from repro.obs import MetricsRegistry, use_events, use_metrics
from repro.obs.events import EventBus, read_events
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile


def fleet_sweep(**overrides) -> SweepConfig:
    """A per-device sweep small enough for a multi-device test fleet."""
    defaults = dict(
        channels=(0,), banks=(0,), regions=(REGION_FIRST,),
        region_size=64, rows_per_region=2, hcfirst_rows_per_region=1,
        patterns=(ROWSTRIPE0,), append_wcdp=False,
        experiment=ExperimentConfig(ber_hammer_count=48_000,
                                    hcfirst_max_hammers=96_000),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def fleet_config(**overrides) -> FleetConfig:
    defaults = dict(
        devices=5, base_seed=10,
        spec=BoardSpec(settle_thermals=False, geometry=SMALL_GEOMETRY,
                       profile=vulnerable_profile()),
        sweep=fleet_sweep(),
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFleetConfig:
    def test_plan_reseeds_every_device(self):
        devices = fleet_config().plan()
        assert [device.seed for device in devices] == [10, 11, 12, 13, 14]
        assert [device.spec.seed for device in devices] == \
            [10, 11, 12, 13, 14]
        assert all(device.config.jobs == 1 for device in devices)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            fleet_config(devices=0)
        with pytest.raises(ExperimentError):
            fleet_config(jobs=0)
        with pytest.raises(ExperimentError):
            fleet_config(max_retries=-1)

    def test_default_sweep_is_small(self):
        sweep = default_fleet_sweep()
        assert sweep.channels == (0,)
        assert sweep.append_wcdp is False
        assert sweep.jobs == 1


class TestFleetRun:
    def test_population_varies_across_devices(self):
        result = FleetRunner(fleet_config()).run()
        assert result.errors == ()
        assert result.population["devices"] == 5
        assert len(result.devices) == 5
        # Distinct seeds -> distinct specimens: the per-device minima
        # must not collapse to a single value.
        minima = {summary["hc_first_min"] for summary in result.devices}
        assert len(minima) > 1
        distribution = result.population["hc_first_min"]
        assert distribution["min"] <= distribution["p50"] \
            <= distribution["max"]

    def test_jobs_levels_are_byte_identical(self, tmp_path):
        serial = FleetRunner(fleet_config(jobs=1)).run()
        pooled = FleetRunner(fleet_config(jobs=2)).run()
        serial.dataset.to_json(tmp_path / "serial.json")
        pooled.dataset.to_json(tmp_path / "pooled.json")
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "pooled.json").read_bytes()
        assert serial.population == pooled.population
        assert serial.devices == pooled.devices
        serial.to_json(tmp_path / "serial_summary.json")
        pooled.to_json(tmp_path / "pooled_summary.json")
        assert (tmp_path / "serial_summary.json").read_bytes() == \
            (tmp_path / "pooled_summary.json").read_bytes()

    def test_resume_replays_completed_devices(self, tmp_path):
        campaign = tmp_path / "fleet"
        config = fleet_config()
        reference = FleetRunner(config).run()
        first = FleetRunner(config, campaign_dir=campaign).run()
        # Simulate a kill after three devices: drop the others' files.
        for index in (3, 4):
            (campaign / f"shard_{index:05d}.json").unlink()
        messages = []
        resumed = FleetRunner(config, campaign_dir=campaign).run(
            progress=messages.append)
        assert any("[resume] 3/5" in message for message in messages)
        assert resumed.population == reference.population
        assert resumed.devices == reference.devices
        reference.dataset.to_json(tmp_path / "reference.json")
        resumed.dataset.to_json(tmp_path / "resumed.json")
        assert (tmp_path / "reference.json").read_bytes() == \
            (tmp_path / "resumed.json").read_bytes()
        assert first.population == reference.population

    def test_resume_refuses_different_fleet(self, tmp_path):
        campaign = tmp_path / "fleet"
        FleetRunner(fleet_config(), campaign_dir=campaign).run()
        with pytest.raises(CampaignStateError):
            FleetRunner(fleet_config(devices=7),
                        campaign_dir=campaign).run()

    def test_merged_dataset_carries_fleet_metadata(self):
        result = FleetRunner(fleet_config()).run()
        assert [summary["device"] for summary in result.devices] == \
            [0, 1, 2, 3, 4]
        assert [summary["seed"] for summary in result.devices] == \
            [10, 11, 12, 13, 14]
        assert result.dataset.metadata["fleet"]["devices"] == 5
        assert result.dataset.metadata["fleet"]["completed"] == 5
        assert result.dataset.metadata["fleet"]["base_seed"] == 10


class TestFleetOnTheCampaignDriver:
    """Fleets share the sweep's campaign driver: same retry events, same
    checkpoint accounting, same per-item timeout at every jobs level."""

    def test_transient_error_retries_carry_their_category(self, tmp_path):
        faults = FaultSpec(seed=1, shard_error=0.15)  # device 3, once
        runner = FleetRunner(fleet_config(sweep=fleet_sweep(faults=faults)))
        bus = EventBus(tmp_path / "events.jsonl")
        with use_events(bus):
            runner.run()
        assert runner.errors == ()
        retries = [event for event in read_events(bus.path)
                   if event.type == "retry"]
        assert [event.item for event in retries] == [3]
        assert all(event.data["category"] == "error" for event in retries)

    def test_checkpoint_writes_are_counted(self, tmp_path):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            FleetRunner(fleet_config(), campaign_dir=tmp_path / "fleet").run()
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.checkpoint_writes"] == 5

    def test_device_timeout_applies_at_one_job(self):
        faults = FaultSpec(shard_hang=1.0, hang_s=3.0)
        runner = FleetRunner(fleet_config(
            devices=1, jobs=1, max_retries=0, device_timeout_s=0.5,
            sweep=fleet_sweep(faults=faults)))
        runner.run()
        assert [(error.index, error.fault_category)
                for error in runner.errors] == [(0, "timeout")]


class TestPopulationSummary:
    def test_censored_devices_counted_not_distributed(self):
        summaries = [
            {"device": 0, "seed": 0, "ber_mean": 0.25, "bitflips": 4,
             "hc_first_min": 1000, "hcfirst_censored": 0},
            {"device": 1, "seed": 1, "ber_mean": 0.0, "bitflips": 0,
             "hc_first_min": None, "hcfirst_censored": 2},
        ]
        population = population_summary(summaries)
        assert population["devices"] == 2
        assert population["fully_censored_devices"] == 1
        assert population["hc_first_min"]["min"] == 1000
        assert population["hc_first_min"]["max"] == 1000
        assert population["bitflips_total"] == 4

    def test_empty_population(self):
        population = population_summary([])
        assert population["devices"] == 0
        assert population["hc_first_min"] is None
        assert population["ber_mean"] is None


class TestFleetCli:
    def test_fleet_run_smoke(self, tmp_path, capsys):
        from repro.cli import main
        output = tmp_path / "population.json"
        code = main(["fleet", "run", "--devices", "3", "--jobs", "2",
                     "--hammers", "32768", "--max-hammers", "65536",
                     "-o", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        assert "population HC_first" in captured.out
        payload = json.loads(output.read_text())
        assert payload["population"]["devices"] == 3
        assert len(payload["devices"]) == 3
        assert payload["errors"] == []
