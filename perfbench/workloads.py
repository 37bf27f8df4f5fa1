"""The benchmark's workloads: one campaign each, config to artifact.

A workload turns a seed into a campaign config, runs it on a freshly
built station (a fresh ``BoardSpec(seed)``, as every ``repro sweep``
invocation builds one, so the program cache starts cold), writes the
result to disk, reads it back, and runs the analysis a user would run
next.  It returns what the campaign produced plus what it checked.

Each workload exists to load different layers; ``why`` says which, and
the module docstring of :mod:`layers` says how the layers are timed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

#: The paper's reference values for the observations reported here.
PAPER_WORST_BEST_BER_RATIO = 2.03  # O2: worst/best channel WCDP BER
PAPER_MIN_HCFIRST = 14531  # O5: smallest HC_first over the chip


@dataclass
class Outcome:
    """One campaign: what it measured and whether its checks held."""

    fingerprint: str
    measurements: int
    #: Work items (shards or devices) that failed after retries.
    failed_items: int
    #: Names of the checks that failed (empty = every check held).
    failures: List[str] = field(default_factory=list)
    #: Paper-fidelity errors, deterministic per seed; reported only.
    paper_err: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Worker processes the campaign runs with.
    jobs: int
    #: Work items per campaign: regions, shards or devices.
    items: int
    #: Sampling densities, recorded in every result's provenance.
    densities: Dict[str, int]
    default_seed: int
    run: Callable[[int, Path], Outcome]


def _roundtrip(dataset, path: Path, failures: List[str]):
    """Write ``dataset`` as a user's ``-o`` file and read it back."""
    from repro.core.results import CharacterizationDataset
    dataset.to_json(path)
    back = CharacterizationDataset.from_json(path)
    if back.fingerprint() != dataset.fingerprint():
        failures.append("artifact-readback")
    return back


def _measured(records) -> int:
    from repro.core.wcdp import WCDP_NAME
    return sum(1 for record in records if record.pattern != WCDP_NAME)


def _sweep_items(config) -> int:
    return (len(config.channels) * len(config.pseudo_channels)
            * len(config.banks) * len(config.regions))


# ----------------------------------------------------------------------
FIG3_ROWS = 32


def run_fig3(seed: int, workdir: Path) -> Outcome:
    from repro.analysis.figures import fig3_ber_distributions
    from repro.analysis.tables import ber_channel_extremes
    from repro.bender.board import BoardSpec
    from repro.core.parallel import run_sweep
    from repro.core.sweeps import SweepConfig
    from repro.core.wcdp import WCDP_NAME

    config = SweepConfig(rows_per_region=FIG3_ROWS, include_hcfirst=False,
                         jobs=1)
    dataset = run_sweep(config, spec=BoardSpec(seed=seed))
    failures: List[str] = []
    back = _roundtrip(dataset, workdir / "fig3.json", failures)
    fig3_ber_distributions(back)
    _, _, worst, best = ber_channel_extremes(back)
    measurements = _measured(back.ber_records)
    expected = _sweep_items(config) * FIG3_ROWS * len(config.patterns)
    if measurements != expected:
        failures.append("record-count")
    wcdp = [record for record in back.ber_records
            if record.pattern == WCDP_NAME]
    return Outcome(
        fingerprint=dataset.fingerprint(), measurements=measurements,
        failed_items=0, failures=failures,
        paper_err={
            "o1": sum(1 for record in wcdp if record.flips == 0)
            / len(wcdp),
            "o2": abs(worst / best - PAPER_WORST_BEST_BER_RATIO)
            / PAPER_WORST_BEST_BER_RATIO,
        })


# ----------------------------------------------------------------------
FIG4_ROWS = 2


def run_fig4(seed: int, workdir: Path) -> Outcome:
    from repro.analysis.figures import fig4_hcfirst_distributions
    from repro.bender.board import BoardSpec
    from repro.core.parallel import run_sweep
    from repro.core.sweeps import SweepConfig

    config = SweepConfig(rows_per_region=FIG4_ROWS,
                         hcfirst_rows_per_region=FIG4_ROWS,
                         include_ber=False, jobs=2)
    campaign_dir = workdir / "fig4-campaign"
    shutil.rmtree(campaign_dir, ignore_errors=True)
    dataset = run_sweep(config, spec=BoardSpec(seed=seed),
                        campaign_dir=campaign_dir)
    failures: List[str] = []
    quarantined = len(dataset.metadata.get("shard_errors", ()))
    if quarantined:
        failures.append("quarantined-shards")
    back = _roundtrip(dataset, workdir / "fig4.json", failures)
    fig4_hcfirst_distributions(back)
    measurements = _measured(back.hcfirst_records)
    expected = _sweep_items(config) * FIG4_ROWS * len(config.patterns)
    if measurements != expected:
        failures.append("record-count")
    found = [record.hc_first for record in back.hcfirst_records
             if record.hc_first is not None]
    return Outcome(
        fingerprint=dataset.fingerprint(), measurements=measurements,
        failed_items=quarantined,
        failures=failures,
        paper_err={"o5": abs(min(found) - PAPER_MIN_HCFIRST)
                   / PAPER_MIN_HCFIRST})


# ----------------------------------------------------------------------
FLEET_DEVICES = 50


def run_fleet(seed: int, workdir: Path) -> Outcome:
    from repro.core.fleet import FleetConfig, FleetRunner
    from repro.core.results import CharacterizationDataset

    config = FleetConfig(devices=FLEET_DEVICES, base_seed=seed, jobs=2)
    campaign_dir = workdir / "fleet-campaign"
    shutil.rmtree(campaign_dir, ignore_errors=True)
    runner = FleetRunner(config, campaign_dir=campaign_dir)
    result = runner.run()
    failures: List[str] = []
    if runner.errors:
        failures.append("fleet-errors")
    result.to_json(workdir / "fleet.json")
    summary = json.loads((workdir / "fleet.json").read_text())
    if (summary["fingerprint"] != result.fingerprint
            or summary["population"] != result.population):
        failures.append("artifact-readback")
    back = _roundtrip(result.dataset, workdir / "fleet-dataset.json",
                      failures)
    expected = FLEET_DEVICES * 2
    if (len(back.ber_records) != expected
            or len(back.hcfirst_records) != expected):
        failures.append("record-count")
    digest = f"{result.fingerprint}:{result.dataset.fingerprint()}"
    return Outcome(
        fingerprint=digest,
        measurements=len(back.ber_records) + len(back.hcfirst_records),
        failed_items=len(runner.errors),
        failures=failures)


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="fig3-dense",
        why=("Fig. 3 BER campaign, serial: fast path at >=99% cache "
             "hits, quadratic WCDP selection, device model and "
             "analysis; no pool, compile or checkpoint work"),
        jobs=1, items=24,
        densities={"channels": 8, "regions": 3, "patterns": 4,
                   "rows_per_region": FIG3_ROWS},
        default_seed=2023, run=run_fig3),
    Workload(
        name="fig4-sharded",
        why=("Fig. 4 HC_first campaign, checkpointed over 2 workers: "
             "distinct hammer counts miss the cache, so build, verify, "
             "summarize, compile, pool and shard checkpoints do work"),
        jobs=2, items=24,
        densities={"channels": 8, "regions": 3, "patterns": 4,
                   "hcfirst_rows_per_region": FIG4_ROWS},
        default_seed=2023, run=run_fig4),
    Workload(
        name="fleet-pool",
        why=("50-device fleet over 2 workers: a fresh station and cold "
             "cache per device, so the cache-miss path, ground-truth "
             "sampling, session churn and per-device checkpoints dominate"),
        jobs=2, items=FLEET_DEVICES,
        densities={"devices": FLEET_DEVICES, "rows_per_region": 2,
                   "hcfirst_rows_per_region": 2, "patterns": 1},
        default_seed=0, run=run_fleet),
)}
