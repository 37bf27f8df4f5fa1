"""Layer ledger: spans around the public entry point of every layer.

Each entry point named in :data:`LAYERS` is wrapped from outside (no
file under ``src/`` changes) so that one call opens one span on the
repository's own tracer (:mod:`repro.obs`).  A span is named
``<layer>/<entry>``, e.g. ``dram.device/apply_hammer_steps``.  The
wrappers are installed before any worker pool forks, so pooled workers
record the same spans into their per-item tracer, and the sweep and
fleet runners graft those back into the parent trace through the
existing obs spool.

:func:`ledger` turns one traced campaign's span records into the
per-layer ledger: exclusive seconds per layer, call counts per entry,
and the pool's wait and busy time.  Spans that are not layer spans
(the repository's own ``campaign``/``region``/``hammer``... spans) are
transparent: their time belongs to the nearest enclosing layer.

Time in pooled workers is attributed to the parent's wall clock.  While
the parent waits inside ``PoolBackend.run``, the part of that wait
during which some worker ran an item is split over the worker-side
layers in proportion to their exclusive worker-seconds; the rest of
the wait (fork, dispatch, idle workers) stays with ``engine.pool``.
Per-layer ``self_s`` plus ``unattributed.self_s`` therefore add up to
the traced wall time, whatever the number of workers.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: layer -> entry points as (module, qualified attribute).
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.sweeps": (("repro.core.sweeps", "SpatialSweep.run"),),
    "core.parallel": (("repro.core.parallel", "ParallelSweepRunner.run"),),
    "core.fleet": (("repro.core.fleet", "FleetRunner.run"),),
    "engine.plan": (("repro.engine.plan", "ExecutionPlan.from_config"),
                    ("repro.core.parallel", "ShardPlan.from_config"),
                    ("repro.core.fleet", "FleetConfig.plan")),
    "engine.session": (("repro.bender.board", "BoardSpec.build"),
                       ("repro.core.experiment", "apply_controls")),
    "dram.cellmodel": (("repro.dram.cellmodel", "GroundTruthProvider.row"),),
    "engine.cache": (("repro.engine.cache", "ProgramCache.execute"),),
    "bender.program": (("repro.core.hammer", "build_hammer_program"),),
    "verify.program": (("repro.verify.program", "verify_program"),),
    "verify.effects": (("repro.verify.effects", "summarize_program"),),
    "engine.backend.compile": (("repro.engine.backend",
                                "LocalBackend.compile"),),
    "engine.backend.apply": (("repro.engine.backend",
                              "FastPathBackend.execute"),),
    "bender.interpreter": (("repro.bender.interpreter", "Interpreter.run"),),
    "core.hammer": (("repro.core.hammer", "DoubleSidedHammer.run"),),
    "dram.device": (("repro.dram.device", "Device.apply_row_write"),
                    ("repro.dram.device", "Device.apply_row_writes"),
                    ("repro.dram.device", "Device.apply_hammer_steps"),
                    ("repro.dram.device", "Device.bulk_activations")),
    "dram.trr": (("repro.dram.trr", "TrrEngine.observe_run"),
                 ("repro.dram.trr", "TrrEngine.on_refresh")),
    "core.wcdp": (("repro.core.wcdp", "append_wcdp_records"),),
    "analysis": (("repro.analysis.figures", "fig3_ber_distributions"),
                 ("repro.analysis.tables", "ber_channel_extremes"),
                 ("repro.analysis.figures", "fig4_hcfirst_distributions"),
                 ("repro.core.fleet", "population_summary")),
    "core.results": (("repro.core.results", "CharacterizationDataset.to_json"),
                     ("repro.core.results",
                      "CharacterizationDataset.from_json"),
                     ("repro.core.results",
                      "CharacterizationDataset.fingerprint")),
    "durable": (("repro.durable", "write_artifact"),
                ("repro.durable", "atomic_write_bytes"),
                ("repro.durable", "read_artifact")),
    "engine.pool": (("repro.engine.pool", "PoolBackend.run"),),
}

#: The repository's own per-item span names in pooled workers
#: (:func:`repro.engine.pool.run_shard`): roots of grafted worker trees.
WORKER_ROOTS = ("shard", "device")

#: Entries whose calls are counted under a layer-level name.
COUNT_NAMES = {
    "engine.session/build": "engine.session.builds",
    "dram.cellmodel/row": "dram.cellmodel.calls",
    "bender.program/build_hammer_program": "bender.program.calls",
    "verify.program/verify_program": "verify.program.calls",
    "verify.effects/summarize_program": "verify.effects.calls",
    "engine.backend.compile/compile": "engine.backend.compile.calls",
    "bender.interpreter/run": "bender.interpreter.programs",
    "dram.device/apply_row_write": "dram.device.apply_row_write.calls",
    "dram.device/apply_row_writes": "dram.device.apply_row_writes.calls",
    "dram.device/apply_hammer_steps": "dram.device.apply_hammer_steps.calls",
    "dram.device/bulk_activations": "dram.device.bulk_activations.calls",
    "dram.trr/observe_run": "dram.trr.calls",
    "dram.trr/on_refresh": "dram.trr.calls",
}


def _work_items(args, kwargs) -> Dict[str, int]:
    """Plan items one campaign run covers: regions, shards or devices."""
    owner = args[0]
    config = getattr(owner, "config", None) or owner._config
    if hasattr(config, "devices"):
        return {"items": config.devices}
    return {"items": len(config.channels) * len(config.pseudo_channels)
            * len(config.banks) * len(config.regions)}


def _wcdp_rows(args, kwargs) -> Dict[str, int]:
    from repro.core.wcdp import WCDP_NAME
    dataset = args[0]
    return {"rows": len({record.row_key for record in
                         dataset.ber_records + dataset.hcfirst_records
                         if record.pattern == WCDP_NAME})}


def _file_bytes(args, kwargs) -> Dict[str, int]:
    path = args[-1] if args else kwargs["path"]
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {"bytes": 0}


#: span name -> attributes recorded on the span as the call returns,
#: computed from the call's arguments.
SPAN_ATTRS: Dict[str, Callable] = {
    "core.sweeps/run": _work_items,
    "core.parallel/run": _work_items,
    "core.fleet/run": _work_items,
    "core.wcdp/append_wcdp_records": _wcdp_rows,
    "core.results/to_json": _file_bytes,
    "core.results/from_json": _file_bytes,
    "durable/read_artifact": _file_bytes,
    "durable/atomic_write_bytes":
        lambda args, kwargs: {"bytes": len(args[1])},
    "durable/write_artifact":
        lambda args, kwargs: {"kind": kwargs.get("kind")},
}


def _wrap(name: str, function: Callable) -> Callable:
    """``function`` with every call recorded as span ``name``."""
    import repro.obs as obs
    attrs = SPAN_ATTRS.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.get_tracer().span(name) as span:
            result = function(*args, **kwargs)
            if attrs is not None:
                span.set(**attrs(args, kwargs))
            return result
    return wrapper


#: (owner, attribute, original) of every binding :func:`install` replaced.
_REPLACED: List[Tuple[object, str, object]] = []


def _replace(owner, attribute: str, value) -> None:
    _REPLACED.append((owner, attribute, vars(owner)[attribute]))
    setattr(owner, attribute, value)


def _install_one(layer: str, module_name: str, qualname: str) -> None:
    module = importlib.import_module(module_name)
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attribute]
    name = f"{layer}/{attribute}"
    if isinstance(raw, classmethod):
        _replace(owner, attribute, classmethod(_wrap(name, raw.__func__)))
        return
    wrapped = _wrap(name, raw)
    _replace(owner, attribute, wrapped)
    if owner is module:
        # Module functions are also bound by ``from ... import`` in
        # other modules; rebind every such alias to the wrapper.
        for other_name, other in list(sys.modules.items()):
            if other is None or not other_name.startswith("repro"):
                continue
            for alias, value in list(vars(other).items()):
                if value is raw:
                    _replace(other, alias, wrapped)


def install() -> None:
    """Wrap every layer entry point; call before any pool forks."""
    if _REPLACED:
        return
    import repro  # noqa: F401  (loads every module that aliases a wrapper)
    import repro.core.fleet  # noqa: F401
    import repro.core.parallel  # noqa: F401
    import repro.engine.pool  # noqa: F401
    for layer, entries in LAYERS.items():
        for module_name, qualname in entries:
            _install_one(layer, module_name, qualname)
    # Folding worker traces into the parent happens only when tracing,
    # so it is the tracer's own cost, not the runners'.
    for module_name, qualname in (
            ("repro.core.parallel", "ParallelSweepRunner._merge_spool"),
            ("repro.core.fleet", "FleetRunner._merge_spool")):
        _install_one("obs", module_name, qualname)


def uninstall() -> None:
    """Restore every binding :func:`install` replaced."""
    while _REPLACED:
        owner, attribute, original = _REPLACED.pop()
        setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
#: Layers the ledger reports: the wrapped ones plus the tracer's own.
LEDGER_LAYERS = tuple(LAYERS) + ("obs",)


def _layer_of(name: str) -> Optional[str]:
    layer = name.split("/", 1)[0]
    return layer if "/" in name and layer in LEDGER_LAYERS else None


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _clip(intervals, windows) -> List[Tuple[float, float]]:
    clipped = []
    for start, end in intervals:
        for low, high in windows:
            if start < high and end > low:
                clipped.append((max(start, low), min(end, high)))
    return clipped


def ledger(records, wall_s: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign.

    ``records`` are the parent tracer's span records (worker trees
    grafted in), ``wall_s`` the traced wall time they cover, and
    ``workers`` the pool size the campaign ran with.
    """
    by_id = {record.span_id: record for record in records}
    children: Dict[Optional[int], List] = defaultdict(list)
    for record in records:
        children[record.parent_id].append(record)

    pool_windows = [(record.start_s, record.end_s) for record in records
                    if record.name == "engine.pool/run"
                    and record.end_s is not None]

    def is_worker_root(record) -> bool:
        parent = by_id.get(record.parent_id)
        return (record.name in WORKER_ROOTS and parent is not None
                and parent.name == "campaign"
                and any(low <= record.start_s <= high
                        for low, high in pool_windows))

    # Exclusive time of every span within its own process; a worker
    # root's children are its own, while a grafted worker root is not
    # a child of the parent-side span it hangs under.
    parent_self: Dict[str, float] = defaultdict(float)
    worker_self: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    worker_roots = []

    def walk(record, layer: Optional[str], in_worker: bool) -> None:
        own = _layer_of(record.name)
        if own is not None:
            layer = own
            counts[record.name] += 1
            for key in ("bytes", "rows", "items"):
                if key in record.attrs:
                    counts[f"{record.name}#{key}"] += record.attrs[key]
        elif record.name in WORKER_ROOTS and in_worker and layer is None:
            layer = "engine.pool"
        covered = 0.0
        for child in children.get(record.span_id, ()):
            if not in_worker and is_worker_root(child):
                worker_roots.append(child)
                walk(child, None, True)
                continue
            covered += child.duration_s
            walk(child, layer, in_worker)
        target = worker_self if in_worker else parent_self
        target[layer or "unattributed"] += record.duration_s - covered

    for root in children.get(None, ()):
        walk(root, None, False)

    busy_s = sum(root.duration_s for root in worker_roots)
    pool_wait_s = sum(high - low for low, high in pool_windows)
    if busy_s > 0:
        covered = _union_length(_clip(
            [(root.start_s, root.end_s) for root in worker_roots],
            pool_windows))
        covered = min(covered, parent_self["engine.pool"])
        parent_self["engine.pool"] -= covered
        for layer, seconds in worker_self.items():
            parent_self[layer] += seconds * covered / busy_s
    metrics: Dict[str, float] = {}
    for layer in LEDGER_LAYERS:
        metrics[f"{layer}.self_s"] = parent_self.get(layer, 0.0)
    metrics["unattributed.self_s"] = parent_self.get("unattributed", 0.0)
    metrics["ledger.sum_s"] = sum(parent_self.values())
    metrics["obs.traced_wall_s"] = wall_s
    for span_name, count_name in COUNT_NAMES.items():
        metrics[count_name] = (metrics.get(count_name, 0)
                               + counts.get(span_name, 0))
    for layer in ("core.sweeps", "core.parallel", "core.fleet"):
        metrics[f"{layer}.items"] = counts.get(f"{layer}/run#items", 0)
    metrics["core.wcdp.rows"] = counts.get(
        "core.wcdp/append_wcdp_records#rows", 0)
    metrics["core.results.bytes"] = sum(
        counts.get(f"core.results/{entry}#bytes", 0)
        for entry in ("to_json", "from_json"))
    metrics["durable.writes"] = counts.get("durable/atomic_write_bytes", 0)
    metrics["durable.bytes"] = counts.get(
        "durable/atomic_write_bytes#bytes", 0)
    metrics["durable.checkpoint_writes"] = sum(
        1 for record in records if record.name == "durable/write_artifact"
        and record.attrs.get("kind") == "shard")
    metrics["engine.pool.wait_s"] = pool_wait_s
    metrics["engine.pool.worker_busy_s"] = busy_s
    metrics["engine.pool.busy_frac"] = (
        busy_s / (pool_wait_s * workers) if pool_wait_s > 0 else 0.0)
    return metrics
