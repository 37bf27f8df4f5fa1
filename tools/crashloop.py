#!/usr/bin/env python3
"""Crash-loop drill: kill a live campaign at every item boundary and
prove resume is byte-identical.

The CI crash-recovery job's second stage (after tier-1 under chaos
faults).  For each seeded kill point the harness re-invokes itself as a
child campaign process with ``$REPRO_KILL_AFTER_WRITES=N`` — the
durable store then SIGKILLs the child right after its N-th shard-archive
rename — and asserts:

* the child actually died by SIGKILL (a survivor means the kill hook
  regressed);
* exactly N complete shard archives exist, none torn;
* ``--resume`` completes the campaign and the final result is
  **byte-identical** to an uninterrupted run's;
* resume loaded exactly N checkpoints and recomputed the rest.

The drill runs twice, on both campaign kinds the campaign driver serves: a
sharded sweep (killed at every shard boundary) and a small fleet
(killed at every device boundary, the resumed ``FleetResult`` summary
and merged dataset compared byte for byte).  A final quarantine drill
flips one bit in a finished sweep's shard archive and asserts the
corrupt file is quarantined to ``*.corrupt`` and transparently
recomputed — again byte-identically.

Usage::

    PYTHONPATH=src python tools/crashloop.py [--keep DIR]

Exit codes: 0 every drill passed, 1 any failed (one line per drill on
stdout either way).
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bender.board import BoardSpec  # noqa: E402
from repro.core.experiment import ExperimentConfig  # noqa: E402
from repro.core.fleet import FleetConfig, FleetRunner  # noqa: E402
from repro.core.parallel import ParallelSweepRunner  # noqa: E402
from repro.core.patterns import ROWSTRIPE0  # noqa: E402
from repro.core.results import REGION_FIRST  # noqa: E402
from repro.core.sweeps import SweepConfig  # noqa: E402
from repro.dram.calibration import default_profile  # noqa: E402
from repro.dram.geometry import HBM2Geometry  # noqa: E402
from repro.durable import KILL_VAR, read_artifact  # noqa: E402
from repro.faults.plan import FaultSpec  # noqa: E402
from repro.obs import MetricsRegistry, use_metrics  # noqa: E402

SHARDS = 6  # 2 channels x 1 bank x 3 regions
DEVICES = 4


def drill_spec() -> BoardSpec:
    """The test suite's small vulnerable station (see tests/conftest.py):
    a 2-channel geometry with a fragile profile so the drill campaigns
    measure real flips in well under a second per shard."""
    geometry = HBM2Geometry(channels=2, pseudo_channels=1, banks=2,
                            rows=256, columns=4, column_bytes=8,
                            channels_per_die=2)
    profile = default_profile().with_overrides(
        weak_fraction=(0.4,) * 8,
        weak_median=1.2e5,
        weak_sigma=0.5,
        threshold_floor=10_000.0,
    )
    return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                     geometry=geometry, profile=profile)


def drill_config(**overrides) -> SweepConfig:
    defaults = dict(
        channels=(0, 1),
        banks=(0,),
        region_size=64,
        rows_per_region=2,
        hcfirst_rows_per_region=0,
        include_hcfirst=False,
        patterns=(ROWSTRIPE0,),
        faults=FaultSpec(),  # immune to the CI job's $REPRO_FAULTS
        experiment=ExperimentConfig(ber_hammer_count=80_000,
                                    hcfirst_max_hammers=128 * 1024),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def drill_fleet(campaign_dir=None) -> FleetRunner:
    """A small fleet on the drill station: one BER region per device."""
    sweep = drill_config(channels=(0,), regions=(REGION_FIRST,),
                         append_wcdp=False)
    config = FleetConfig(devices=DEVICES, base_seed=5, jobs=2,
                         spec=drill_spec(), sweep=sweep)
    return FleetRunner(config, campaign_dir=campaign_dir)


def archive_bytes(dataset, path: Path) -> bytes:
    dataset.to_json(path)
    return path.read_bytes()


def fleet_bytes(result, path: Path) -> bytes:
    """The fleet's summary archive followed by its merged dataset."""
    result.to_json(path)
    return path.read_bytes() + archive_bytes(result.dataset, path)


#: Each kill-drilled campaign kind: (items, child entry, resumed bytes).
KINDS = {
    "sweep": (SHARDS,
              lambda campaign: ParallelSweepRunner(
                  drill_spec(), drill_config(jobs=2),
                  campaign_dir=campaign).run(),
              archive_bytes),
    "fleet": (DEVICES,
              lambda campaign: drill_fleet(campaign).run(),
              fleet_bytes),
}


def run_child(kind: str, campaign: Path, kill_after: int) -> int:
    """One doomed campaign in a subprocess; returns its exit code.

    The child gets its own session (= process group) so the pool
    workers that outlive their SIGKILLed parent can be reaped — they
    would otherwise leak and hold inherited pipes open.  Output goes to
    /dev/null for the same reason: a captured pipe would never see EOF.
    """
    env = dict(os.environ)
    env[KILL_VAR] = str(kill_after)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind,
         str(campaign)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        code = child.wait(timeout=120)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return code


def resume(campaign: Path, kind: str = "sweep"):
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        result = KINDS[kind][1](campaign)
    return result, metrics.snapshot()["counters"]


def kill_drills(kind: str, baseline: bytes, scratch: Path) -> int:
    items, _, to_bytes = KINDS[kind]
    failures = 0
    for kill_after in range(1, items + 1):
        campaign = scratch / f"{kind}-kill-{kill_after}"
        code = run_child(kind, campaign, kill_after)
        problems = []
        if code != -signal.SIGKILL:
            problems.append(f"child exited {code}, expected SIGKILL")
        archives = sorted(campaign.glob("shard_*.json"))
        if len(archives) != kill_after:
            problems.append(f"{len(archives)} archives on disk, "
                            f"expected {kill_after}")
        for archive in archives:
            try:
                read_artifact(archive, kind="shard")
            except Exception as error:  # torn archive = atomicity broken
                problems.append(f"{archive.name} failed verification: "
                                f"{error}")
        if not problems:
            result, counters = resume(campaign, kind)
            if counters.get("campaign.checkpoint_loads") != kill_after:
                problems.append(
                    f"resume loaded "
                    f"{counters.get('campaign.checkpoint_loads', 0)} "
                    f"checkpoints, expected {kill_after}")
            if to_bytes(result, campaign / "final.json") != baseline:
                problems.append(f"resumed {kind} differs from baseline")
        verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{kind}: kill after {kill_after}/{items} item writes ... "
              f"{verdict}")
        failures += bool(problems)
    return failures


def quarantine_drill(baseline: bytes, scratch: Path) -> int:
    campaign = scratch / "quarantine"
    ParallelSweepRunner(drill_spec(), drill_config(jobs=2),
                        campaign_dir=campaign).run()
    victim = campaign / "shard_00003.json"
    raw = bytearray(victim.read_bytes())
    raw[-16] ^= 0x04
    victim.write_bytes(bytes(raw))

    dataset, counters = resume(campaign)
    problems = []
    if counters.get("campaign.recovered_shards") != 1:
        problems.append(f"recovered_shards="
                        f"{counters.get('campaign.recovered_shards', 0)}, "
                        f"expected 1")
    if not (campaign / "shard_00003.json.corrupt").exists():
        problems.append("no *.corrupt quarantine file")
    if archive_bytes(dataset, campaign / "final.json") != baseline:
        problems.append("healed dataset differs from baseline")
    verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
    print(f"bit-flipped archive quarantined and recomputed ... {verdict}")
    return bool(problems)


def child_main(kind: str, campaign: str) -> int:
    """The doomed campaign: runs until the durable store kills it."""
    KINDS[kind][1](Path(campaign))
    return 0  # only reached if the kill hook failed to fire


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill a live campaign at every shard boundary and "
                    "assert resume is byte-identical.")
    parser.add_argument("--child", nargs=2,
                        metavar=("KIND", "CAMPAIGN_DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="run drills under DIR and keep the state "
                             "(default: a temp dir, removed on success)")
    args = parser.parse_args(argv)
    if args.child:
        return child_main(*args.child)

    scratch = args.keep or Path(tempfile.mkdtemp(prefix="crashloop-"))
    scratch.mkdir(parents=True, exist_ok=True)
    baseline = archive_bytes(
        ParallelSweepRunner(drill_spec(), drill_config(jobs=2)).run(),
        scratch / "baseline.json")

    failures = kill_drills("sweep", baseline, scratch)
    failures += quarantine_drill(baseline, scratch)
    failures += kill_drills(
        "fleet", fleet_bytes(drill_fleet().run(),
                             scratch / "fleet-baseline.json"), scratch)

    if failures:
        print(f"{failures} drill(s) failed; campaign state kept in "
              f"{scratch}")
        return 1
    print(f"all {SHARDS + DEVICES + 1} crash drills passed")
    if args.keep is None:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
