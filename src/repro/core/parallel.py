"""Parallel sweep executor: deterministic sharding over worker processes.

The Figs. 3-6 campaigns are embarrassingly parallel across (channel,
pseudo channel, bank, region): the keyed counter-based RNG
(:mod:`repro.rng`) gives every cell identical physical properties in
every process, and each measurement re-initializes its victim
neighbourhood before hammering, so per-shard results do not depend on
what other shards ran before — the same property the paper's FPGA
infrastructure exploits by characterizing many banks concurrently.

:class:`ShardPlan` splits a :class:`~repro.core.sweeps.SweepConfig` into
single-(channel, pseudo channel, bank, region) work items *in the serial
nesting order*; :class:`ParallelSweepRunner` is the sweep's adapter on
the campaign driver (:class:`~repro.core.campaign.CampaignRunner`),
which runs the items on the warm worker pool — one worker at
``jobs=1``, ``jobs`` workers otherwise; each worker rebuilds its own
:class:`~repro.bender.board.BenderBoard` from a picklable
:class:`~repro.bender.board.BoardSpec`, so no live simulator state
crosses the process boundary — and merges the shard datasets back in
plan order.  Because merge order equals serial iteration order and the
WCDP synthesis runs on the merged dataset, a sharded sweep produces a
byte-identical exported dataset to the serial
:class:`~repro.core.sweeps.SpatialSweep` for the same spec and config.

Observability, resilience and checkpoint/resume are the campaign driver's (see
:mod:`repro.core.campaign`): with a tracer or metrics registry
installed, worker spools merge back in plan order into one trace under
a single ``campaign`` span and per-shard telemetry under
``dataset.metadata["telemetry"]``; a shard that exhausts its retries is
quarantined as a structured :class:`ShardError` — carrying its attempt
count, total backoff, fault category and, via :class:`ShardRunError`,
its worker's wall time and metric snapshot — and the dataset gains an
exact ``metadata["coverage"]`` account of what was measured versus
lost; with ``campaign_dir`` a killed campaign resumes to a
byte-identical merged dataset.

Limitations: the sharded path always uses the device's own row mapping
(a custom ``mapper`` cannot cross the fork); sweep with a
reverse-engineered mapper in-process through
:class:`~repro.core.sweeps.SpatialSweep`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.bender.board import BenderBoard, BoardSpec
from repro.core.campaign import (
    CampaignRunner,
    ItemFailure,
    ShardRunError,
    campaign_fingerprint,
)
from repro.core.results import CharacterizationDataset
from repro.core.sweeps import (
    ProgressCallback,
    SpatialSweep,
    SweepConfig,
    sweep_metadata,
)
from repro.core.wcdp import append_wcdp_records
from repro.engine.plan import ExecutionPlan, WorkItem
from repro.engine.pool import run_shard
from repro.errors import ExperimentError
from repro.faults.thermal import ThermalGuard
from repro.obs import get_events, get_tracer

__all__ = [
    "ShardError",
    "ShardPlan",
    "ShardRunError",
    "ParallelSweepRunner",
    "run_shard",
    "run_sweep",
]


@dataclass(frozen=True)
class ShardError:
    """A shard that failed after exhausting its retries.

    ``wall_s`` and ``metrics`` hold the originating worker's wall time
    and metric snapshot from the *last* failing attempt when the worker
    lived long enough to report them (None for hard crashes/timeouts).
    ``backoff_s`` is the total retry backoff the runner spent on this
    shard across rounds; ``fault_category`` classifies the last failure
    (``timeout``/``crash``/``poison``/``starved``/``error``/...).
    """

    index: int
    channel: int
    pseudo_channel: int
    bank: int
    region: str
    error_type: str
    message: str
    attempts: int
    wall_s: Optional[float] = None
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    backoff_s: float = 0.0
    fault_category: str = "error"

    def as_dict(self) -> Dict[str, object]:
        record = asdict(self)
        return {"shard": record.pop("index"), **record}

    @classmethod
    def from_failure(cls, failure: ItemFailure) -> "ShardError":
        shard = failure.item
        return cls(index=shard.index, channel=shard.channel,
                   pseudo_channel=shard.pseudo_channel, bank=shard.bank,
                   region=shard.region, error_type=failure.error_type,
                   message=failure.message, attempts=failure.attempts,
                   wall_s=getattr(failure.error, "wall_s", None),
                   metrics=getattr(failure.error, "metrics", None),
                   backoff_s=failure.backoff_s,
                   fault_category=failure.category)


@dataclass(frozen=True)
class ShardPlan:
    """All shards of one sweep, in the serial path's iteration order.

    The serial :meth:`SpatialSweep.run` nests channel -> pseudo channel
    -> bank -> region; concatenating shard datasets in this plan's order
    therefore reproduces the serial record order exactly.
    """

    shards: Tuple[WorkItem, ...]

    @classmethod
    def from_config(cls, config: SweepConfig) -> "ShardPlan":
        """The engine's :class:`~repro.engine.plan.ExecutionPlan`, each
        item carrying its narrowed config so it can cross the process
        boundary: the serial and sharded paths iterate the same items
        in the same order by construction.
        """
        return cls(shards=tuple(
            replace(item, config=ExecutionPlan.narrow_config(config, item))
            for item in ExecutionPlan.from_config(config)))

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)


#: A per-shard entry point (module-level, hence picklable); the default
#: is :func:`repro.engine.pool.run_shard`, re-exported here.
ShardRunner = Callable[[BoardSpec, WorkItem], CharacterizationDataset]


class ParallelSweepRunner(CampaignRunner):
    """Runs one characterization campaign across worker processes.

    Drop-in equivalent of ``SpatialSweep(spec.build(), config).run()``:
    same dataset, same record order, same metadata — plus
    ``metadata["shard_errors"]`` and ``metadata["coverage"]`` when
    shards were quarantined and ``metadata["telemetry"]`` when
    observability is active.
    """

    kind = "sweep"
    unit = "shards"
    metric = "sweep.shard"
    error_class = ShardError

    def __init__(self, spec: BoardSpec, config: Optional[SweepConfig] = None,
                 *, shard_runner: Optional[ShardRunner] = None,
                 max_retries: int = 1, retry_backoff_s: float = 0.0,
                 campaign_dir=None, mp_context=None,
                 degrade: str = "auto") -> None:
        """
        Args:
            spec: recipe each worker rebuilds its own board from.
            config: sweep axes/density; ``config.jobs`` sets the worker
                count (the shards run on a one-worker pool at 1).
            shard_runner: override for the per-shard entry point (must be
                picklable; used by fault-injection tests).
            max_retries: extra attempts for a failed shard (default 1).
            retry_backoff_s: base delay before retry round ``n``
                (doubled each round, scaled by a deterministic jitter in
                [0.5, 1.5) keyed on the fault seed; 0 = no backoff).
            campaign_dir: directory to checkpoint completed shards into
                and resume from (see :mod:`repro.core.campaign`).
            mp_context: multiprocessing context for the pool (default:
                the platform default).
            degrade: ``"auto"`` (default) finishes the campaign inline
                in this process when the pool's crash-loop circuit
                breaker opens (:class:`~repro.errors.PoolDegradedError`);
                ``"never"`` propagates the error instead.
        """
        self._config = config or SweepConfig()
        super().__init__(spec, item_runner=shard_runner or run_shard,
                         jobs=self._config.jobs,
                         timeout_s=self._config.shard_timeout_s,
                         faults=self._config.faults,
                         experiment=self._config.experiment,
                         max_retries=max_retries,
                         retry_backoff_s=retry_backoff_s,
                         campaign_dir=campaign_dir, mp_context=mp_context,
                         degrade=degrade)

    @property
    def config(self) -> SweepConfig:
        return self._config

    # ------------------------------------------------------------------
    def run(self, progress: Optional[ProgressCallback] = None
            ) -> CharacterizationDataset:
        """Execute the campaign and return the merged dataset."""
        return self._drive(progress)

    def _plan(self) -> Tuple[WorkItem, ...]:
        return ShardPlan.from_config(self._config).shards

    def _fingerprint(self, total: int) -> str:
        return campaign_fingerprint(self._spec, self._config, total)

    def _reduce(self, shards, results: Dict[int, CharacterizationDataset]
                ) -> Tuple[CharacterizationDataset, CharacterizationDataset]:
        """Merge in plan order, then thermal, quarantine and WCDP."""
        completed = [results[shard.index] for shard in shards
                     if shard.index in results]
        dataset = CharacterizationDataset.merged(
            completed, metadata=sweep_metadata(self._config))
        thermal = ThermalGuard.merge_metadata(completed)
        if thermal is not None:
            dataset.metadata["thermal"] = thermal
        if self._errors:
            dataset.metadata["shard_errors"] = [
                error.as_dict() for error in self._errors]
            dataset.metadata["coverage"] = self._coverage
        if self._config.append_wcdp:
            with get_tracer().span("wcdp"):
                append_wcdp_records(dataset)
        return dataset, dataset

    def _merge_spool(self, shards, spool_dir: str, campaign,
                     dataset: CharacterizationDataset,
                     wall_s: float) -> None:
        """Fold worker spools back in; telemetry lands in
        ``dataset.metadata["telemetry"]`` (see
        :meth:`~repro.core.campaign.CampaignRunner._fold_spool`)."""
        dataset.metadata["telemetry"] = self._fold_spool(
            shards, spool_dir, campaign, wall_s)


def run_sweep(config: SweepConfig, *, spec: Optional[BoardSpec] = None,
              board: Optional[BenderBoard] = None,
              progress: Optional[ProgressCallback] = None,
              campaign_dir=None, max_retries: int = 1,
              retry_backoff_s: float = 0.0,
              verify: Optional[bool] = None,
              degrade: str = "auto") -> CharacterizationDataset:
    """Run a sweep serially or in parallel, per ``config.jobs``.

    Args:
        config: the sweep; ``jobs > 1`` selects the parallel executor.
        spec: board recipe — required for parallel runs (workers rebuild
            from it) and used to build the board for serial runs when no
            ``board`` is given.
        board: an existing station for the serial path (avoids a
            rebuild); ignored when ``jobs > 1``.
        progress: per-(bank, region) callback (serial) or per-shard
            completion callback (parallel).
        campaign_dir: checkpoint/resume directory; setting it routes
            even ``jobs=1`` runs through the (byte-identical) sharded
            executor so their shards checkpoint too.
        max_retries: extra attempts per failed shard (parallel path).
        retry_backoff_s: base backoff before retry rounds (parallel).
        verify: override ``config.experiment.verify_programs`` (static
            verification of every generated hammer program; default on).
        degrade: ``"auto"`` finishes serially in-process when the pool's
            crash-loop breaker opens; ``"never"`` propagates the error.
    """
    if verify is not None and verify != config.experiment.verify_programs:
        config = replace(config, experiment=replace(
            config.experiment, verify_programs=verify))
    # An installed event bus routes jobs=1 runs through the sharded
    # executor too (shards are the event granularity) — but only when a
    # spec is available for workers to rebuild from; a board-only serial
    # sweep stays serial and unobserved by the bus.
    if (config.jobs > 1 or campaign_dir is not None
            or (get_events().enabled and spec is not None)):
        if spec is None:
            raise ExperimentError(
                "a parallel or checkpointed sweep needs a BoardSpec so "
                "workers can rebuild the station (jobs="
                f"{config.jobs}, spec=None)")
        runner = ParallelSweepRunner(spec, config, max_retries=max_retries,
                                     retry_backoff_s=retry_backoff_s,
                                     campaign_dir=campaign_dir,
                                     degrade=degrade)
        return runner.run(progress)
    if board is None:
        if spec is None:
            raise ExperimentError("run_sweep needs a board or a spec")
        board = spec.build()
    return SpatialSweep(board, config).run(progress)
