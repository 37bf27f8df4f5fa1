"""The two campaign kinds — sweeps and fleets — behind one test surface.

Both run on the same campaign driver, so the crash, resume, poison and
event-equivalence tests run once per kind.  Each kind builds a lean
six-item campaign (a sweep of 2 channels x 3 regions, or a fleet of 6
devices) on the suite's small vulnerable station, and knows how to get
at what its runner returns.

The pool-only crash runner lives at module level so the process pool
can pickle it by reference.
"""

import json
import os

from repro.bender.board import BoardSpec
from repro.core.experiment import ExperimentConfig
from repro.core.fleet import FleetConfig, FleetRunner
from repro.core.parallel import ParallelSweepRunner
from repro.core.patterns import ROWSTRIPE0
from repro.core.results import REGION_FIRST
from repro.core.sweeps import SweepConfig
from repro.engine import pool
from repro.faults.plan import FaultSpec
from tests.conftest import SMALL_GEOMETRY, vulnerable_profile

#: Work items per campaign, either kind.
ITEMS = 6

_EXPERIMENT = ExperimentConfig(ber_hammer_count=80_000,
                               hcfirst_max_hammers=128 * 1024)


def _crash_in_pool_workers(spec, shard):
    """Hard-kill every pool worker; succeed when run inline (degraded)."""
    if pool._WORKER_STATE:
        os._exit(13)
    return pool.run_shard(spec, shard)


class SweepKind:
    name = "sweep"
    unit = "shards"
    metric = "sweep.shard"
    #: Where ``FaultSpec(seed=8, shard_poison=0.15)`` poisons attempt 0.
    poisoned_at = (1, REGION_FIRST)

    @staticmethod
    def spec() -> BoardSpec:
        return BoardSpec(seed=5, temperature_c=85.0, settle_thermals=False,
                         geometry=SMALL_GEOMETRY,
                         profile=vulnerable_profile())

    def runner(self, jobs=2, faults=None, max_retries=1, **options):
        config = SweepConfig(
            channels=(0, 1), banks=(0,), region_size=64,
            rows_per_region=2, hcfirst_rows_per_region=0,
            include_hcfirst=False, patterns=(ROWSTRIPE0,), faults=faults,
            experiment=_EXPERIMENT, jobs=jobs)
        return ParallelSweepRunner(self.spec(), config,
                                   max_retries=max_retries, **options)

    @staticmethod
    def crash_in_pool_workers():
        """Runner options whose pool workers all crash while inline
        execution succeeds."""
        return {"shard_runner": _crash_in_pool_workers,
                "faults": FaultSpec()}

    @staticmethod
    def dataset(result):
        return result

    @staticmethod
    def where(error):
        return (error.channel, error.region)

    @staticmethod
    def archived_errors(result, path):
        return result.metadata["shard_errors"]

    @staticmethod
    def artifact(result, path) -> bytes:
        """The measured bytes: the exported dataset."""
        result.to_json(path)
        return path.read_bytes()


class FleetKind:
    name = "fleet"
    unit = "devices"
    metric = "fleet.device"
    poisoned_at = 1

    def runner(self, jobs=2, faults=None, max_retries=1, **options):
        sweep = SweepConfig(
            channels=(0,), banks=(0,), regions=(REGION_FIRST,),
            region_size=64, rows_per_region=2, hcfirst_rows_per_region=0,
            include_hcfirst=False, patterns=(ROWSTRIPE0,),
            append_wcdp=False, faults=faults, experiment=_EXPERIMENT)
        config = FleetConfig(
            devices=ITEMS, base_seed=5, jobs=jobs, max_retries=max_retries,
            spec=BoardSpec(temperature_c=85.0, settle_thermals=False,
                           geometry=SMALL_GEOMETRY,
                           profile=vulnerable_profile()),
            sweep=sweep)
        return FleetRunner(config, **options)

    @staticmethod
    def crash_in_pool_workers():
        # A fleet has no runner override: SIGKILL fires in pool workers
        # only and stays dormant inline.
        return {"faults": FaultSpec(worker_sigkill=1.0)}

    @staticmethod
    def dataset(result):
        return result.dataset

    @staticmethod
    def where(error):
        return error.index

    @staticmethod
    def archived_errors(result, path):
        result.to_json(path)
        return json.loads(path.read_text())["errors"]

    @staticmethod
    def artifact(result, path) -> bytes:
        """The measured bytes: population summary plus the exported
        dataset, minus the config fingerprint (which covers the fault
        plan, so fault-injected runs would differ there alone)."""
        result.to_json(path)
        summary = json.loads(path.read_text())
        summary.pop("fingerprint")
        result.dataset.to_json(path)
        dataset = json.loads(path.read_text())
        dataset["metadata"]["fleet"].pop("fingerprint")
        return json.dumps([summary, dataset], indent=1).encode()


SWEEP = SweepKind()
FLEET = FleetKind()
KINDS = {kind.name: kind for kind in (SWEEP, FLEET)}
