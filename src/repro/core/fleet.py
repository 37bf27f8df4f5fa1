"""Fleet-population mode: one campaign, N simulated chip specimens.

The paper characterizes six physical HBM2 chips and reports *population*
statistics — how HC_first and BER vary from chip to chip, not just from
row to row (§4, Figs. 3-4 show per-chip distributions).  This module
scales that axis in simulation: a fleet run builds ``N`` devices from
one :class:`~repro.bender.board.BoardSpec` template, each re-seeded
(``base_seed + index``) so every device is a *distinct specimen* with
its own cell ground truth, runs the same small sweep on each, and
reduces the per-device datasets to population distributions of the
per-device minimum HC_first and mean BER.

:class:`FleetRunner` is the fleet's adapter on the campaign driver
(:class:`~repro.core.campaign.CampaignRunner`), the same one sweeps
run on: a device is one work item, devices run on the warm worker pool
(one worker at ``jobs=1``) and dispatch in batches, and each worker's
LRU-bounded session cache rotates through device specs without
accumulating board state.  Retries, the integrity check, quarantine,
degrade-to-inline and checkpoint/resume are the campaign driver's, so they
behave exactly as for sweeps.  The merge is deterministic — datasets
concatenate in device-index order — so a fleet run is byte-identical
at any ``jobs`` level, and ``--resume`` replays completed devices from
a :class:`~repro.core.campaign.CampaignCheckpoint` directory exactly
as campaign resume replays shards.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.bender.board import BoardSpec
from repro.core.campaign import CampaignRunner, ItemFailure, fleet_fingerprint
from repro.core.experiment import ExperimentConfig
from repro.core.patterns import ROWSTRIPE0
from repro.core.results import REGION_FIRST, CharacterizationDataset
from repro.core.sweeps import ProgressCallback, SweepConfig
from repro.engine.pool import run_shard
from repro.errors import ExperimentError
from repro.obs import get_events

__all__ = [
    "FleetConfig",
    "FleetDevice",
    "FleetError",
    "FleetResult",
    "FleetRunner",
    "default_fleet_sweep",
    "device_summary",
    "population_summary",
    "run_fleet_device",
]


def default_fleet_sweep(**overrides) -> SweepConfig:
    """The per-device sweep a fleet runs by default.

    Deliberately small — the fleet's sampling axis is *devices*, not
    rows: one channel/bank/region, two BER victims and two HC_first
    victims under Rowstripe0, with hammer counts reduced from the
    paper's 256K so that a 100-device population finishes in seconds.
    Any field can be overridden (e.g. more rows per device).
    """
    values = dict(
        channels=(0,), pseudo_channels=(0,), banks=(0,),
        regions=(REGION_FIRST,), rows_per_region=2,
        hcfirst_rows_per_region=2, patterns=(ROWSTRIPE0,),
        append_wcdp=False, jobs=1,
        experiment=ExperimentConfig(ber_hammer_count=48 * 1024,
                                    hcfirst_max_hammers=96 * 1024),
    )
    values.update(overrides)
    return SweepConfig(**values)


@dataclass(frozen=True)
class FleetDevice:
    """One simulated specimen: a re-seeded spec plus its sweep config.

    Shaped like a work item so :func:`~repro.engine.pool.run_shard` can
    execute it directly: ``index``/``attempt`` drive scheduling, and the
    coordinate properties key tracing spans and fault injection — the
    device index stands in for the channel coordinate, so injected
    faults draw independently per device instead of identically (every
    device sweeps the same physical coordinates).
    """

    index: int
    seed: int
    spec: BoardSpec
    config: SweepConfig
    attempt: int = 0

    #: Devices trace as ``device`` spans and report (device, seed) event
    #: coordinates (see :func:`repro.engine.plan.item_coords`).
    span_kind = "device"

    @property
    def channel(self) -> int:
        return self.index

    @property
    def pseudo_channel(self) -> int:
        return 0

    @property
    def bank(self) -> int:
        return 0

    @property
    def region(self) -> str:
        return self.config.regions[0]

    def describe(self) -> str:
        return f"device {self.index} (seed {self.seed})"


def run_fleet_device(spec: BoardSpec, device: FleetDevice
                     ) -> CharacterizationDataset:
    """Execute one device's sweep in the current process.

    The fleet's item runner for :class:`~repro.engine.pool.PoolBackend`
    (module-level, hence picklable).  ``spec`` is the fleet *template*
    shipped by the pool initializer and deliberately ignored — the
    device carries its own re-seeded spec, and the worker's LRU session
    cache keys on it, so a worker rotating through many devices keeps
    only the most recent boards alive.
    """
    return run_shard(device.spec, device)


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet-population run."""

    #: Simulated specimens; device ``i`` is built with ``base_seed + i``.
    devices: int = 100
    base_seed: int = 0
    #: Worker processes (1 = a one-worker pool).
    jobs: int = 1
    #: Extra sequential attempts for devices that fail.
    max_retries: int = 1
    #: Template spec; each device gets ``replace(spec, seed=...)``.
    spec: BoardSpec = field(default_factory=BoardSpec)
    #: Per-device sweep (identical across the fleet).
    sweep: SweepConfig = field(default_factory=default_fleet_sweep)
    #: Per-device wall-clock limit at every jobs level, measured from
    #: dispatch (None = unlimited).
    device_timeout_s: Optional[float] = None
    #: Heterogeneous population: device-family profile names assigned
    #: round-robin across device indices (device ``i`` gets
    #: ``profiles[i % len(profiles)]``).  Empty = homogeneous fleet
    #: built from the template spec as-is.
    profiles: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.devices <= 0:
            raise ExperimentError("devices must be positive")
        if self.jobs <= 0:
            raise ExperimentError("jobs must be positive")
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.profiles:
            # Fail at configuration time, not in a worker process.
            from repro.dram.profiles import get_profile
            for name in self.profiles:
                get_profile(name)

    def fingerprint(self) -> str:
        return fleet_fingerprint(self.spec, self.sweep, self.devices,
                                 self.base_seed, profiles=self.profiles)

    def plan(self) -> Tuple[FleetDevice, ...]:
        """The fleet's devices, in index (= merge) order.

        With ``profiles`` set, each device's spec is rebuilt for its
        assigned family and its sweep's experiment tagged to match, so
        the per-device profile consistency check holds inside workers.
        """
        config = replace(self.sweep, jobs=1, obs=None, append_wcdp=False)
        devices = []
        for index in range(self.devices):
            spec = replace(self.spec, seed=self.base_seed + index)
            device_config = config
            if self.profiles:
                name = self.profiles[index % len(self.profiles)]
                spec = replace(spec, device_profile=name)
                device_config = replace(
                    config,
                    experiment=replace(config.experiment, profile=name))
            devices.append(
                FleetDevice(index=index, seed=self.base_seed + index,
                            spec=spec, config=device_config))
        return tuple(devices)


@dataclass(frozen=True)
class FleetError:
    """One device that stayed failed after all retry attempts.

    ``fault_category`` classifies the last failure exactly as
    :attr:`~repro.core.parallel.ShardError.fault_category` does.
    """

    index: int
    seed: int
    error_type: str
    message: str
    attempts: int
    fault_category: str = "error"

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_failure(cls, failure: ItemFailure) -> "FleetError":
        return cls(index=failure.item.index, seed=failure.item.seed,
                   error_type=failure.error_type, message=failure.message,
                   attempts=failure.attempts,
                   fault_category=failure.category)


def _percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    position = (len(ordered) - 1) * fraction
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _distribution(values: List[float]) -> Optional[Dict[str, float]]:
    """min/p10/p25/p50/p75/p90/max/mean summary of a population."""
    if not values:
        return None
    ordered = sorted(values)
    summary = {"min": ordered[0]}
    for label, fraction in (("p10", 0.10), ("p25", 0.25), ("p50", 0.50),
                            ("p75", 0.75), ("p90", 0.90)):
        summary[label] = round(_percentile(ordered, fraction), 9)
    summary["max"] = ordered[-1]
    summary["mean"] = round(sum(ordered) / len(ordered), 9)
    return summary


def device_summary(device: FleetDevice,
                   dataset: CharacterizationDataset) -> Dict[str, object]:
    """One device's population-relevant reductions."""
    flips = sum(record.flips for record in dataset.ber_records)
    bits = sum(record.row_bits for record in dataset.ber_records)
    hc_values = [record.hc_first for record in dataset.hcfirst_records
                 if record.hc_first is not None]
    censored = sum(1 for record in dataset.hcfirst_records
                   if record.censored)
    return {
        "device": device.index,
        "seed": device.seed,
        "ber_mean": round(flips / bits, 9) if bits else None,
        "bitflips": flips,
        "hc_first_min": min(hc_values) if hc_values else None,
        "hcfirst_censored": censored,
    }


def population_summary(summaries: List[Dict[str, object]]
                       ) -> Dict[str, object]:
    """Population distributions over per-device summaries.

    ``hc_first_min`` is the distribution of each device's most
    vulnerable row (the per-device minimum HC_first, the paper's
    chip-level vulnerability number); ``ber_mean`` the distribution of
    each device's mean BER.  Devices whose every HC_first search was
    right-censored contribute to ``fully_censored_devices`` instead of
    the HC_first distribution.
    """
    hc_values = [summary["hc_first_min"] for summary in summaries
                 if summary["hc_first_min"] is not None]
    ber_values = [summary["ber_mean"] for summary in summaries
                  if summary["ber_mean"] is not None]
    return {
        "devices": len(summaries),
        "hc_first_min": _distribution([float(v) for v in hc_values]),
        "ber_mean": _distribution([float(v) for v in ber_values]),
        "bitflips_total": sum(summary["bitflips"] for summary in summaries),
        "fully_censored_devices": sum(
            1 for summary in summaries
            if summary["hc_first_min"] is None),
    }


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    #: All devices' records concatenated in device-index order.
    dataset: CharacterizationDataset
    #: Per-device reductions, in device-index order (completed only).
    devices: List[Dict[str, object]]
    #: Population distributions (see :func:`population_summary`).
    population: Dict[str, object]
    errors: Tuple[FleetError, ...]
    fingerprint: str

    def to_json(self, path: Union[str, Path]) -> None:
        payload = {
            "fingerprint": self.fingerprint,
            "population": self.population,
            "devices": self.devices,
            "errors": [error.as_dict() for error in self.errors],
        }
        from repro.durable import atomic_write_bytes
        atomic_write_bytes(path, json.dumps(payload, indent=1).encode(),
                           kind="fleet-result")


class FleetRunner(CampaignRunner):
    """Runs a fleet and reduces it to population statistics.

    The fleet's adapter on the campaign driver: its items are the
    re-seeded devices of :meth:`FleetConfig.plan`, each accepted
    dataset is tagged with its ``device`` metadata and announced by a
    ``device_done`` event, and the reduce builds a :class:`FleetResult`.
    """

    kind = "fleet"
    unit = "devices"
    metric = "fleet.device"
    error_class = FleetError

    def __init__(self, config: FleetConfig, *,
                 campaign_dir: Optional[Union[str, Path]] = None,
                 mp_context=None, degrade: str = "auto") -> None:
        self._config = config
        super().__init__(config.spec, item_runner=run_fleet_device,
                         jobs=config.jobs,
                         timeout_s=config.device_timeout_s,
                         faults=config.sweep.faults,
                         max_retries=config.max_retries,
                         campaign_dir=campaign_dir, mp_context=mp_context,
                         degrade=degrade)

    # ------------------------------------------------------------------
    def run(self, progress: Optional[ProgressCallback] = None
            ) -> FleetResult:
        """Run every device and reduce the fleet to its population."""
        return self._drive(progress)

    def _plan(self) -> Tuple[FleetDevice, ...]:
        return self._config.plan()

    def _fingerprint(self, total: int) -> str:
        return self._config.fingerprint()

    def _annotate(self, device: FleetDevice,
                  dataset: CharacterizationDataset) -> None:
        dataset.metadata["device"] = {"index": device.index,
                                      "seed": device.seed}

    def _item_done(self, device: FleetDevice,
                   dataset: CharacterizationDataset, attempt: int,
                   timing=None) -> None:
        get_events().emit("device_done", item=device.index,
                          attempt=attempt, timing=timing,
                          **device_summary(device, dataset))

    def _merge_spool(self, devices, spool_dir: str, campaign,
                     dataset: CharacterizationDataset,
                     wall_s: float) -> None:
        """Fold worker spools back in; per-device telemetry lands in
        ``dataset.metadata["telemetry"]`` (see
        :meth:`~repro.core.campaign.CampaignRunner._fold_spool`)."""
        dataset.metadata["telemetry"] = {
            "kind": "fleet",
            **self._fold_spool(devices, spool_dir, campaign, wall_s)}

    def _reduce(self, devices, results: Dict[int, CharacterizationDataset]
                ) -> Tuple[FleetResult, CharacterizationDataset]:
        config = self._config
        fingerprint = config.fingerprint()
        completed = [device for device in devices
                     if device.index in results]
        summaries = [device_summary(device, results[device.index])
                     for device in completed]
        merged = CharacterizationDataset.merged(
            (results[device.index] for device in completed),
            metadata={
                "fleet": {
                    "devices": config.devices,
                    "completed": len(completed),
                    "base_seed": config.base_seed,
                    "fingerprint": fingerprint,
                },
            })
        result = FleetResult(dataset=merged, devices=summaries,
                             population=population_summary(summaries),
                             errors=self._errors, fingerprint=fingerprint)
        return result, merged
