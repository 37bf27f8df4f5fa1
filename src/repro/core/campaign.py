"""The campaign driver, and the checkpoints it resumes from.

A campaign — a sweep sharded over (channel, pseudo channel, bank,
region) cells, or a fleet of re-seeded chips — is an ordered list of
independent work items.  :class:`CampaignRunner` is the one driver for
both kinds: items run on the warm worker pool (one worker at
``jobs=1``), failures retry in sequential rounds and then quarantine,
an open crash-loop breaker finishes the round inline, and results
merge in plan order.  :class:`~repro.core.parallel.ParallelSweepRunner`
and :class:`~repro.core.fleet.FleetRunner` are per-kind adapters.

A campaign parent killed at 95% must not cost 95% of the campaign.  A
:class:`CampaignCheckpoint` binds a campaign to a directory:

* ``campaign.json`` — a manifest carrying a fingerprint of everything
  that determines the measured data (board spec + sweep axes/density),
  so a resume against a different configuration fails loudly instead
  of merging datasets from two different experiments;
* ``shard_NNNNN.json`` — each item's dataset, written the moment the
  item first completes.

Both go through the durable artifact store (:mod:`repro.durable`):
atomic temp-file + rename writes, and a checksummed envelope that also
stamps the campaign fingerprint into every shard archive.  Resume is
therefore **self-healing**: a shard archive that is torn, bit-rotted,
or belongs to a different campaign is detected by its envelope,
quarantined to ``*.corrupt`` (counted in ``campaign.recovered_shards``),
and simply *recomputed* — never trusted, never fatal.  A corrupt
*manifest* is likewise quarantined and rewritten, because the per-shard
fingerprint stamps carry enough provenance to keep cross-experiment
merges impossible; only a *valid* manifest with a mismatched
fingerprint refuses the resume (that is a real configuration conflict,
not corruption).

Because shard datasets round-trip exactly through the JSON archive
format and the merge runs in plan order from whatever source (live
worker or checkpoint), a campaign killed mid-run and resumed produces
a byte-identical merged dataset to an uninterrupted run — at any jobs
level, before or after the kill, and regardless of which archives had
to be recomputed.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.core.results import CharacterizationDataset
from repro.core.sweeps import ProgressCallback
from repro.durable import (
    ArtifactCorruptError,
    quarantine,
    read_artifact,
    write_artifact,
)
from repro.engine.plan import item_coords
from repro.engine.pool import PoolBackend
from repro.errors import (
    CampaignStateError,
    DiskSpaceError,
    ExperimentError,
    PoolDegradedError,
    ReproError,
    ShardFault,
)
from repro.faults.plan import FaultPlan, resolve_fault_spec
from repro.obs import (
    MetricsRegistry,
    ObsConfig,
    get_events,
    get_metrics,
    get_tracer,
    read_jsonl,
)
from repro.obs.events import dataset_delta
from repro.rng import uniform_hash01

__all__ = ["CampaignCheckpoint", "CampaignRunner", "ItemFailure",
           "ShardRunError", "campaign_fingerprint", "checkpoint_events",
           "fleet_fingerprint"]

_MANIFEST_NAME = "campaign.json"
_MANIFEST_VERSION = 2


def _profile_identity(spec) -> str:
    """Resolved device-family identity of a board spec.

    The spec's repr already carries the profile *name*; resolving it to
    the registered profile's full identity (geometry + TRR policy) means
    a checkpoint can never be resumed by a campaign whose profile name
    happens to match but whose registered definition differs — and two
    registered profiles sharing timing parameters still fingerprint
    apart.
    """
    from repro.dram.profiles import resolve_profile

    profile = resolve_profile(getattr(spec, "device_profile", None))
    return profile.identity() if profile is not None else ""


def campaign_fingerprint(spec, config, shards_total: int) -> str:
    """Digest of everything that determines a campaign's measured data.

    Execution details (jobs, observability, timeouts) are normalized
    away — resuming with a different worker count is explicitly
    supported and still byte-identical.  The board spec and the full
    sweep config (including the fault plan: a ``flag``-policy thermal
    plan changes measured values) are included via their dataclass
    reprs, which are deterministic for the plain-scalar configuration
    types used throughout; the spec's device-family profile joins as
    its *resolved* identity so checkpoints never alias across families.
    """
    from dataclasses import replace

    normalized = replace(config, jobs=1, obs=None, shard_timeout_s=None)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr(spec).encode())
    hasher.update(repr(normalized).encode())
    hasher.update(str(shards_total).encode())
    hasher.update(_profile_identity(spec).encode())
    return hasher.hexdigest()


def fleet_fingerprint(spec, config, devices: int, base_seed: int,
                      profiles: tuple = ()) -> str:
    """Digest of everything that determines a fleet run's measured data.

    The fleet analogue of :func:`campaign_fingerprint`: the spec here
    is the *template* (each device re-seeds it), so the device count
    and base seed join the digest — resuming a 100-device fleet
    against a 200-device checkpoint directory, or against a different
    seed range, must fail loudly.  ``profiles`` is the heterogeneous
    population's device-family rotation; each name joins as its
    resolved identity.  Execution details (jobs, timeouts) are
    normalized away exactly as for campaigns.
    """
    from dataclasses import replace

    from repro.dram.profiles import get_profile

    normalized = replace(config, jobs=1, obs=None, shard_timeout_s=None)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(b"fleet|")
    hasher.update(repr(spec).encode())
    hasher.update(repr(normalized).encode())
    hasher.update(f"{devices}|{base_seed}".encode())
    hasher.update(_profile_identity(spec).encode())
    for name in profiles:
        hasher.update(b"|")
        hasher.update(get_profile(name).identity().encode())
    return hasher.hexdigest()


def checkpoint_events(bus, items, loaded) -> None:
    """Synthesize the event stream of checkpoint-loaded items.

    A resumed item did no work this run, so its worker can't emit the
    dispatched/heartbeat/completed sequence — the parent synthesizes it
    from the stored archive instead, keeping a resumed campaign's event
    log identical (modulo ``timing``) to an uninterrupted one.  The
    wall-clock-free ``timing.source = "checkpoint"`` marks the synthetic
    events for consumers that care.  ``item_completed``'s metrics delta
    is dataset-derivable by design (see
    :func:`repro.obs.events.dataset_delta`), which is exactly what makes
    this synthesis possible.  Limitation: the archive doesn't record
    which attempt succeeded, so synthetic events always say attempt 0.
    """
    if not bus.enabled:
        return
    source = {"source": "checkpoint"}
    for item in items:
        dataset = loaded.get(item.index)
        if dataset is None:
            continue
        coords = item_coords(item)
        bus.emit("shard_dispatched", item=item.index, attempt=0,
                 timing=source, **coords)
        bus.emit("worker_heartbeat", item=item.index, attempt=0,
                 timing=source, **coords)
        bus.emit("item_completed", item=item.index, attempt=0,
                 timing=source, **coords, **dataset_delta(dataset))


class CampaignCheckpoint:
    """Shard-granular persistence for one campaign directory.

    ``fault_plan`` (optional) threads the campaign's seeded IO-fault
    schedule into every artifact write, so chaos runs exercise torn
    writes, bit-flips, and simulated ENOSPC on the real checkpoint
    path.  ``recovered`` counts the corrupt shard archives this
    instance quarantined during :meth:`load`.
    """

    def __init__(self, directory: Union[str, Path],
                 fault_plan=None) -> None:
        self.directory = Path(directory)
        self.fault_plan = fault_plan
        self.recovered = 0
        self._fingerprint: Optional[str] = None

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.json"

    # ------------------------------------------------------------------
    def prepare(self, fingerprint: str, shards_total: int) -> bool:
        """Create or validate the campaign directory; True if resuming.

        A fresh directory gets a manifest; an existing one must carry a
        matching fingerprint or the resume is refused
        (:class:`~repro.errors.CampaignStateError`) — checkpoints from
        a different spec/config describe a different experiment.  A
        manifest that is *corrupt* (torn write, bit rot) is quarantined
        and rewritten instead: every shard archive stamps the campaign
        fingerprint into its own envelope, so provenance survives the
        manifest and :meth:`load` still refuses foreign shards.
        """
        self._fingerprint = fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            try:
                artifact = read_artifact(self.manifest_path,
                                         kind="campaign-manifest")
                manifest = artifact.payload
            except ArtifactCorruptError:
                quarantine(self.manifest_path)
                from repro.obs import get_metrics
                get_metrics().counter(
                    "campaign.recovered_manifests").inc()
                self._write_manifest(fingerprint, shards_total)
                # Still a resume: shard archives carry their own
                # fingerprint stamps and validate individually.
                return True
            if not isinstance(manifest, dict) or \
                    manifest.get("fingerprint") != fingerprint:
                stored = (manifest.get("fingerprint")
                          if isinstance(manifest, dict) else None)
                raise CampaignStateError(
                    f"campaign directory {self.directory} was created "
                    f"for a different spec/config (fingerprint "
                    f"{stored!r} != {fingerprint!r}); refusing to "
                    f"merge datasets from two different experiments")
            return True
        self._write_manifest(fingerprint, shards_total)
        return False

    def _write_manifest(self, fingerprint: str, shards_total: int) -> None:
        write_artifact(self.manifest_path, {
            "version": _MANIFEST_VERSION,
            "fingerprint": fingerprint,
            "shards_total": shards_total,
        }, kind="campaign-manifest", fault_plan=self.fault_plan)

    # ------------------------------------------------------------------
    def load(self, indices: Iterable[int]
             ) -> Dict[int, CharacterizationDataset]:
        """Checkpointed datasets for ``indices``, keyed by shard index.

        Self-healing: an archive whose envelope fails verification —
        torn, bit-rotted, or stamped with a different campaign
        fingerprint — is quarantined to ``*.corrupt`` and omitted from
        the result, so the runner transparently recomputes that shard.
        ``campaign.recovered_shards`` counts the quarantines.  Legacy
        (pre-envelope) archives load when they parse; anything about
        them that fails also quarantines rather than raising.
        """
        loaded: Dict[int, CharacterizationDataset] = {}
        for index in indices:
            path = self.shard_path(index)
            if not path.exists():
                continue
            try:
                artifact = read_artifact(path, kind="shard")
                stamp = artifact.meta.get("campaign")
                if (stamp is not None and self._fingerprint is not None
                        and stamp != self._fingerprint):
                    raise ArtifactCorruptError(
                        f"shard archive {path} belongs to campaign "
                        f"{stamp!r}, not {self._fingerprint!r}")
                loaded[index] = CharacterizationDataset.from_payload(
                    artifact.payload)
            except Exception:
                self._quarantine_shard(path)
        return loaded

    def _quarantine_shard(self, path: Path) -> None:
        quarantine(path)
        self.recovered += 1
        from repro.obs import get_metrics
        get_metrics().counter("campaign.recovered_shards").inc()

    def write(self, index: int, dataset: CharacterizationDataset) -> None:
        """Atomically persist one completed shard's dataset.

        The envelope stamps the campaign fingerprint, so a later resume
        can refuse a shard that wandered in from another experiment
        even if the manifest was lost.  May raise
        :class:`~repro.errors.DiskSpaceError` (real or injected); the
        runner degrades to in-memory-only on that — see
        :meth:`CampaignRunner._accept`.
        """
        write_artifact(self.shard_path(index), dataset.to_payload(),
                       kind="shard", fault_plan=self.fault_plan,
                       campaign=self._fingerprint)


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
class ShardRunError(ReproError):
    """An item failed in its worker; carries the worker-side diagnosis.

    Raised by :func:`~repro.engine.pool.run_shard` so the parent learns
    not just *that* the item failed but how long it ran and what its
    metric snapshot looked like at the point of failure (commands
    issued, hammers, settle iterations, ...) — enough to diagnose most
    failures without rerunning the item.  Picklable: crosses the
    process pool boundary intact.
    """

    def __init__(self, original_type: str, message: str,
                 wall_s: float, metrics: Dict[str, Dict[str, object]],
                 category: str = "error") -> None:
        super().__init__(original_type, message, wall_s, metrics, category)
        self.original_type = original_type
        self.message = message
        self.wall_s = wall_s
        self.metrics = metrics
        self.category = category

    def __str__(self) -> str:
        return f"{self.original_type}: {self.message}"


def _error_type(error: BaseException) -> str:
    """The failing error's type name, unwrapped from its worker report."""
    if isinstance(error, ShardRunError):
        return error.original_type
    return type(error).__name__


def _fault_category(error: BaseException) -> str:
    """Structured failure category for quarantine reports and metrics."""
    if isinstance(error, FuturesTimeoutError):
        return "timeout"
    if isinstance(error, BrokenExecutor):
        return "crash"
    if isinstance(error, (ShardFault, ShardRunError)):
        return error.category
    return "exception"


@dataclass(frozen=True)
class ItemFailure:
    """An item that stayed failed after its last retry round: the one
    record both :class:`~repro.core.parallel.ShardError` and
    :class:`~repro.core.fleet.FleetError` are built from.  A worker-side
    :class:`ShardRunError` unwraps into the original error type and
    message plus the worker's wall time and metric snapshot."""

    item: object
    error: BaseException
    attempts: int
    backoff_s: float = 0.0

    @property
    def category(self) -> str:
        return _fault_category(self.error)

    @property
    def error_type(self) -> str:
        return _error_type(self.error)

    @property
    def message(self) -> str:
        if isinstance(self.error, ShardRunError):
            return self.error.message
        return str(self.error)


class _ProgressAggregator:
    """Idempotent item/record progress accounting across retry rounds.

    A retried item reports completion at most once: completed item
    indices live in a set and record totals accumulate only on first
    completion, so the ``completed/total`` figures a callback sees never
    double-count an item that failed, was retried, and then finished
    (or — with a timeout — finished twice).
    """

    def __init__(self, total: int, callback: Optional[ProgressCallback],
                 unit: str) -> None:
        self._total = total
        self._callback = callback
        self._unit = unit
        self._done: set = set()
        self._records = 0

    @property
    def records_done(self) -> int:
        return self._records

    def preload(self, datasets: Dict[int, CharacterizationDataset]) -> None:
        """Mark checkpointed items as done without emitting per-item
        callbacks (a resumed campaign reports them in one line)."""
        for index, dataset in datasets.items():
            if index not in self._done:
                self._done.add(index)
                self._records += sum(dataset.record_counts())

    def completed(self, item, dataset: CharacterizationDataset,
                  attempt: int) -> bool:
        """Register a completed item; returns True on first completion."""
        first = item.index not in self._done
        if first:
            self._done.add(item.index)
            self._records += sum(dataset.record_counts())
        self._emit(item, "ok", attempt)
        return first

    def failed(self, item, error: BaseException, attempt: int) -> None:
        self._emit(item, f"FAILED ({_error_type(error)})", attempt)

    def note(self, message: str) -> None:
        if self._callback is not None:
            self._callback(message)

    def _emit(self, item, status: str, attempt: int) -> None:
        retry = " retry" if attempt else ""
        self.note(f"[{len(self._done)}/{self._total} {self._unit}{retry}] "
                  f"{item.describe()} {status}")


class CampaignRunner:
    """The one campaign driver under the sweep and the fleet runner.

    A subclass is a per-kind adapter: it passes its execution settings
    to ``__init__``, defines ``run`` as a call to :meth:`_drive`, and
    supplies ``_plan()`` (its work items in merge order, each with
    ``index``, ``attempt``, a narrowed sweep ``config`` and
    ``describe()``), ``_fingerprint(total)`` (the checkpoint
    fingerprint), ``_reduce(items, results)`` (returning ``(result,
    merged dataset)``), ``_merge_spool`` (the telemetry block, built
    with :meth:`_fold_spool`) and optionally the per-item extras
    ``_annotate`` / ``_item_done``.  Its class attributes name the
    kind: ``kind`` keys events and ``<kind>.degraded_serial``, ``unit``
    the plan size, ``metric`` the per-item counters
    (``<metric>_retries``/``_failures``/``_poisoned``/``_wall_s``), and
    ``error_class`` is built from each :class:`ItemFailure`.
    """

    kind: str
    unit: str
    metric: str
    error_class: type

    def __init__(self, spec, *, item_runner: Callable, jobs: int,
                 timeout_s: Optional[float], faults, experiment=None,
                 max_retries: int = 1, retry_backoff_s: float = 0.0,
                 campaign_dir=None, mp_context=None,
                 degrade: str = "auto") -> None:
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ExperimentError("retry_backoff_s must be >= 0")
        if degrade not in ("auto", "never"):
            raise ExperimentError(
                f"degrade must be 'auto' or 'never', got {degrade!r}")
        self._spec = spec
        self._item_runner = item_runner
        self._jobs = jobs
        self._timeout_s = timeout_s
        self._faults = faults
        self._experiment = experiment
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._campaign_dir = campaign_dir
        self._mp_context = mp_context
        self._degrade = degrade
        self._backoff_seed = (faults.seed if faults is not None
                              else getattr(spec, "seed", 0))
        #: Injectable for tests: the retry-round backoff sleep.
        self._sleep = time.sleep
        self._errors: tuple = ()
        self._coverage: Optional[Dict[str, object]] = None

    @property
    def errors(self) -> tuple:
        """Items that failed permanently in the last run."""
        return self._errors

    @property
    def coverage(self) -> Optional[Dict[str, object]]:
        """Item/row coverage accounting for the last run."""
        return self._coverage

    # ------------------------------------------------------------------
    def _drive(self, progress: Optional[ProgressCallback]):
        """Execute the campaign; returns the adapter's reduced result."""
        tracer = get_tracer()
        metrics = get_metrics()
        events = get_events()
        self._errors = ()
        self._coverage = None
        items = tuple(self._plan())
        size = {self.unit: len(items)}
        events.emit("campaign_started", **size, kind=self.kind,
                    timing={"jobs": self._jobs})
        spool = (tempfile.TemporaryDirectory(prefix=f"repro-{self.kind}-")
                 if tracer.enabled or metrics.enabled else None)
        if spool is not None or events.enabled:
            obs = ObsConfig(trace=tracer.enabled, metrics=metrics.enabled,
                            spool_dir=spool.name if spool else None,
                            events_path=(str(events.path) if events.enabled
                                         else None),
                            epoch=events.epoch)
            items = tuple(replace(item, config=replace(item.config, obs=obs))
                          for item in items)
        started = time.perf_counter()
        # One warm pool for the whole campaign: workers (and their
        # engine sessions — board, controls, program cache) persist
        # across retry rounds instead of being rebuilt per attempt.
        self._backend = PoolBackend(self._spec, runner=self._item_runner,
                                    timeout_s=self._timeout_s,
                                    mp_context=self._mp_context,
                                    experiment=self._experiment)
        # Per-run state, live only until this method returns.
        self._results: Dict[int, CharacterizationDataset] = {}
        self._failures: Dict[int, BaseException] = {}
        self._backoff_totals: Dict[int, float] = {}
        self._progress = _ProgressAggregator(len(items), progress, self.unit)
        try:
            with tracer.span("campaign", kind=self.kind, jobs=self._jobs,
                             **size) as campaign:
                self._checkpoint = self._open_checkpoint(items)
                pending = [item for item in items
                           if item.index not in self._results]
                attempts = 1 + self._max_retries
                for attempt in range(attempts):
                    if not pending:
                        break
                    if not attempt:
                        pending = self._run_round(pending, attempt,
                                                  isolate=False)
                        continue
                    metrics.counter(f"{self.metric}_retries").inc(
                        len(pending))
                    for item in pending:
                        events.emit("retry", item=item.index,
                                    attempt=attempt,
                                    category=_fault_category(
                                        self._failures[item.index]),
                                    **item_coords(item))
                    self._backoff(pending, attempt)
                    # Retry rounds dispatch sequentially on the *same*
                    # warm pool (sessions built in round 0 are reused);
                    # a hard crash is still contained to the crashing
                    # item because the backend recycles the pool and
                    # continues the round on a fresh one.
                    with tracer.span("retry-round", attempt=attempt,
                                     **{self.unit: len(pending)}):
                        pending = self._run_round(pending, attempt,
                                                  isolate=True)
                if pending:
                    metrics.counter(f"{self.metric}_failures").inc(
                        len(pending))
                failures = [
                    ItemFailure(item, self._failures[item.index], attempts,
                                backoff_s=round(self._backoff_totals.get(
                                    item.index, 0.0), 9))
                    for item in sorted(pending, key=lambda item: item.index)]
                for failure in failures:
                    events.emit("quarantine", item=failure.item.index,
                                attempt=attempts, category=failure.category,
                                error_type=failure.error_type,
                                **item_coords(failure.item))
                self._errors = tuple(self.error_class.from_failure(failure)
                                     for failure in failures)
                self._coverage = self._coverage_of(items)
                result, dataset = self._reduce(items, self._results)
                if spool is not None:
                    self._merge_spool(items, spool.name, campaign, dataset,
                                      time.perf_counter() - started)
                events.emit(
                    "campaign_finished", **size,
                    completed=len(self._results),
                    quarantined=len(failures),
                    records=sum(dataset.record_counts()),
                    timing={"wall_s": round(
                        time.perf_counter() - started, 6)})
                events.finalize()
                return result
        finally:
            self._backend.close()
            self._backend = self._checkpoint = self._progress = None
            self._results, self._failures = {}, {}
            if spool is not None:
                spool.cleanup()

    # ------------------------------------------------------------------
    def _open_checkpoint(self, items) -> Optional[CampaignCheckpoint]:
        """Prepare the campaign directory and preload checkpointed items."""
        if self._campaign_dir is None:
            return None
        metrics = get_metrics()
        fault_spec = resolve_fault_spec(self._faults)
        fault_plan = (FaultPlan(fault_spec)
                      if fault_spec is not None and fault_spec.has_io_faults
                      else None)
        checkpoint = CampaignCheckpoint(self._campaign_dir,
                                        fault_plan=fault_plan)
        try:
            resuming = checkpoint.prepare(self._fingerprint(len(items)),
                                          len(items))
        except DiskSpaceError:
            # A full volume at campaign start: run without checkpoints
            # (results stay in memory) rather than refuse the campaign.
            metrics.counter("campaign.checkpoint_write_errors").inc()
            return checkpoint
        if not resuming:
            return checkpoint
        loaded = checkpoint.load(item.index for item in items)
        if loaded:
            self._results.update(loaded)
            self._progress.preload(loaded)
            checkpoint_events(get_events(), items, loaded)
            for item in items:
                if item.index in loaded:
                    self._item_done(item, loaded[item.index], 0,
                                    timing={"source": "checkpoint"})
            metrics.counter("campaign.checkpoint_loads").inc(len(loaded))
        if loaded or checkpoint.recovered:
            recovered = (f" ({checkpoint.recovered} corrupt quarantined)"
                         if checkpoint.recovered else "")
            self._progress.note(
                f"[resume] {len(loaded)}/{len(items)} {self.unit} loaded "
                f"from {checkpoint.directory}{recovered}")
        return checkpoint

    def _backoff(self, pending: List, attempt: int) -> None:
        """Exponential backoff with deterministic jitter before a retry
        round; the delay is attributed to every item in the round so
        quarantine reports carry exact per-item backoff totals."""
        base = self._retry_backoff_s
        if base <= 0:
            return
        jitter = 0.5 + uniform_hash01(self._backoff_seed,
                                      ("retry-round", attempt))
        delay = base * (2 ** (attempt - 1)) * jitter
        get_metrics().histogram(f"{self.kind}.retry_backoff_s").observe(
            delay)
        for item in pending:
            self._backoff_totals[item.index] = (
                self._backoff_totals.get(item.index, 0.0) + delay)
        self._sleep(delay)

    def _run_round(self, items: List, attempt: int,
                   isolate: bool) -> List:
        """Run one round on the warm pool backend; returns the failures.

        The scheduling semantics (dispatch-armed deadlines, batched
        submission, zombie accounting, starvation fast-fail, crash
        containment) live in :class:`~repro.engine.pool.PoolBackend`.
        ``isolate=True`` (retry rounds) dispatches sequentially so a
        crashing item cannot fail its neighbours — while keeping the
        pool, and the sessions its workers already built, warm.

        When the backend's crash-loop circuit breaker opens
        (:class:`~repro.errors.PoolDegradedError`) and ``degrade`` is
        ``"auto"``, the items the pool never settled are finished
        inline in this process — the inline runner is the same code
        the workers run, so the merged result stays byte-identical.
        """
        failed: List = []
        settled: set = set()

        def record_failure(item, error: BaseException) -> None:
            settled.add(item.index)
            self._failures[item.index] = error
            failed.append(item)
            self._progress.failed(item, error, attempt)

        def accept(item, dataset: CharacterizationDataset) -> None:
            settled.add(item.index)
            self._accept(item, dataset, attempt, record_failure)

        workers = 1 if isolate else min(self._jobs, len(items))
        try:
            self._backend.run(list(items), workers, attempt, accept,
                              record_failure, sequential=isolate)
        except PoolDegradedError as error:
            if self._degrade == "never":
                raise
            remaining = [item for item in items
                         if item.index not in settled]
            self._run_degraded(remaining, attempt, accept, record_failure,
                             error)
        return failed

    def _run_degraded(self, items: List, attempt: int, accept,
                    record_failure, cause: PoolDegradedError) -> None:
        """Finish a round inline after the pool gave up.

        The supervised-degradation endgame: the pool's circuit breaker
        opened (crash loop past budget, or the OS refused to fork), so
        the remaining items run in this process via the same per-item
        runner the workers use — slower, but the campaign completes
        with the same bytes.  Process-killing fault injection never
        fires inline (see :func:`repro.faults.inject.injure_worker`).
        """
        events = get_events()
        get_metrics().counter(f"{self.kind}.degraded_serial").inc(len(items))
        self._progress.note(f"[degraded] worker pool gave up ({cause}); "
                            f"finishing {len(items)} {self.unit} inline")
        for item in items:
            events.emit("shard_dispatched", item=item.index,
                        attempt=attempt, **item_coords(item))
            try:
                dataset = self._item_runner(
                    self._spec, replace(item, attempt=attempt))
            except Exception as error:
                record_failure(item, error)
            else:
                accept(item, dataset)
            events.tick()

    def _accept(self, item, dataset: CharacterizationDataset,
                attempt: int, record_failure) -> None:
        """Integrity-check and register one completed item's dataset.

        A dataset must carry the integrity stamp its worker took before
        handing it over; a missing or mismatched stamp is a ``poison``
        failure, retried like any other.
        """
        stamp = dataset.metadata.pop("integrity", None)
        if stamp is None or stamp != dataset.fingerprint():
            get_metrics().counter(f"{self.metric}_poisoned").inc()
            reason = ("carries no integrity stamp" if stamp is None
                      else "failed its integrity check (readback "
                           "poisoned in transit)")
            record_failure(item, ShardFault(
                f"shard {item.describe()} dataset {reason}",
                category="poison"))
            return
        if item.index not in self._results:
            self._annotate(item, dataset)
            self._results[item.index] = dataset
            if self._checkpoint is not None:
                try:
                    self._checkpoint.write(item.index, dataset)
                    get_metrics().counter(
                        "campaign.checkpoint_writes").inc()
                except DiskSpaceError:
                    # The dataset is safe in memory; the campaign keeps
                    # going, it just can't checkpoint this item.  A
                    # later kill loses only the unspooled items.
                    get_metrics().counter(
                        "campaign.checkpoint_write_errors").inc()
            get_events().emit("item_completed", item=item.index,
                              attempt=attempt, **item_coords(item),
                              **dataset_delta(dataset))
            self._item_done(item, dataset, attempt)
        self._failures.pop(item.index, None)
        self._progress.completed(item, dataset, attempt)

    def _annotate(self, item, dataset: CharacterizationDataset) -> None:
        """Per-kind metadata stamped on an accepted dataset (default:
        none); runs before the dataset is checkpointed."""

    def _item_done(self, item, dataset: CharacterizationDataset,
                   attempt: int, timing=None) -> None:
        """Per-kind events for a completed item (default: none)."""

    # ------------------------------------------------------------------
    def _coverage_of(self, items) -> Dict[str, object]:
        """Exact item/row account of what was measured versus lost."""
        completed = [item for item in items if item.index in self._results]
        quarantined = [item for item in items
                       if item.index not in self._results]
        rows_completed = 0
        for item in completed:
            dataset = self._results[item.index]
            rows = {record.row_key for record in dataset.ber_records}
            rows.update(record.row_key
                        for record in dataset.hcfirst_records)
            rows_completed += len(rows)
        # A quarantined item never reported which rows it sampled, so
        # its loss is accounted at the planned sampling density.
        rows_quarantined = 0
        for item in quarantined:
            config = item.config
            cells = (len(config.channels) * len(config.pseudo_channels)
                     * len(config.banks) * len(config.regions))
            rows_quarantined += cells * min(config.rows_per_region,
                                            config.region_size)
        return {
            self.unit: {"total": len(items), "completed": len(completed),
                        "quarantined": len(quarantined)},
            "rows": {"attempted": rows_completed + rows_quarantined,
                     "completed": rows_completed,
                     "quarantined": rows_quarantined},
            "complete": not quarantined,
        }

    def _fold_spool(self, items, spool_dir: str, campaign,
                    wall_s: float) -> Dict[str, object]:
        """Fold worker spool files back into the parent collectors.

        Iterates in plan order, so the grafted item subtrees appear
        under the ``campaign`` span in plan order, merges each worker
        metric snapshot (folding the per-item ``shard.*`` gauges into a
        ``<metric>_wall_s`` histogram), and returns the per-item
        telemetry block.  Items satisfied from a checkpoint have no
        spool files and contribute no telemetry — they did no work this
        run.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        obs = ObsConfig(trace=tracer.enabled, metrics=metrics.enabled,
                        spool_dir=spool_dir)
        rows: List[Dict[str, object]] = []
        total_records = 0
        for item in items:
            if tracer.enabled:
                trace_path = obs.trace_path(item.index)
                if trace_path.exists():
                    tracer.graft(read_jsonl(trace_path),
                                 parent_id=campaign.span_id)
            metrics_path = obs.metrics_path(item.index)
            if not metrics_path.exists():
                continue
            snapshot = MetricsRegistry.read_snapshot(metrics_path)
            gauges = snapshot.get("gauges", {})
            item_wall = gauges.pop("shard.wall_s", None)
            item_records = gauges.pop("shard.records", None)
            if metrics.enabled:
                metrics.merge_snapshot(snapshot)
                if item_wall:
                    metrics.histogram(f"{self.metric}_wall_s").observe(
                        item_wall)
            row: Dict[str, object] = {
                getattr(item, "span_kind", "shard"): item.index,
                **item_coords(item),
                "wall_s": item_wall,
            }
            if item_records is not None:
                total_records += int(item_records)
                row["records"] = int(item_records)
                if item_wall:
                    row["rows_per_s"] = round(item_records / item_wall, 3)
            rows.append(row)
        return {
            "jobs": self._jobs,
            "wall_s": round(wall_s, 6),
            "records": total_records,
            "rows_per_s": (round(total_records / wall_s, 3)
                           if wall_s > 0 else None),
            self.unit: rows,
        }
