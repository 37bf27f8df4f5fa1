"""The planner: one sweep grid, one ordered stream of work items.

A characterization campaign is a nested iteration over (channel, pseudo
channel, bank, region).  :class:`ExecutionPlan` materializes that
iteration as an ordered tuple of :class:`WorkItem`\\ s — *the* plan —
and every scheduler consumes the same plan:

* the serial path (:class:`~repro.core.sweeps.SpatialSweep`) runs the
  items in order, in-process;
* the campaign driver (:class:`~repro.core.campaign.CampaignRunner`,
  under :class:`~repro.core.parallel.ParallelSweepRunner`) runs the
  same items on the worker pool, each carrying its narrowed config
  (``ShardPlan`` is exactly this stream), and merges results back in
  plan order;
* checkpoint/resume replays the plan and fills in items already
  satisfied from disk.

Byte-identical output across the three falls out by construction:
record order equals plan order equals the serial nesting order.

This module deliberately has no dependency on the sweep layer — the
config object only needs the grid attributes and ``dataclasses.
replace`` (it is a frozen dataclass), which keeps the import graph
acyclic: ``core.sweeps`` imports the engine, not vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Sequence, Tuple


def chunk_items(items: Sequence, batch_size: int) -> List[List]:
    """Partition ``items`` into contiguous batches, preserving order.

    The dispatch unit of the warm pool backend: submitting plan slices
    instead of single items amortizes per-future overhead, and because
    the slices are contiguous in plan order, concatenating batch
    results in submission order is still plan order.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [list(items[start:start + batch_size])
            for start in range(0, len(items), batch_size)]


@dataclass(frozen=True)
class WorkItem:
    """One independent unit of a campaign: a (ch, pc, bank, region) cell.

    Shipped to a worker, it carries its narrowed ``config`` and the
    retry round (``attempt``) that injected faults key on.
    """

    index: int
    channel: int
    pseudo_channel: int
    bank: int
    region: str
    config: object = None
    attempt: int = 0

    def describe(self) -> str:
        return (f"ch{self.channel} pc{self.pseudo_channel} "
                f"ba{self.bank} region={self.region}")

    def coords(self) -> dict:
        return {"channel": self.channel,
                "pseudo_channel": self.pseudo_channel,
                "bank": self.bank, "region": self.region}


def item_coords(item) -> dict:
    """Deterministic event/telemetry coordinates of a plan item.

    Duck-typed over everything the schedulers dispatch — a
    :class:`WorkItem`, or a fleet device
    (``span_kind == "device"``), which reports (device, seed) instead of
    a grid cell.
    """
    if getattr(item, "span_kind", "shard") == "device":
        return {"device": item.index, "seed": item.seed}
    return {"channel": item.channel, "pseudo_channel": item.pseudo_channel,
            "bank": item.bank, "region": item.region}


@dataclass(frozen=True)
class ExecutionPlan:
    """All work items of one sweep, in the serial nesting order."""

    items: Tuple[WorkItem, ...]

    @classmethod
    def from_config(cls, config) -> "ExecutionPlan":
        """Plan a sweep config's grid (channel -> pc -> bank -> region)."""
        items: List[WorkItem] = []
        for channel in config.channels:
            for pseudo_channel in config.pseudo_channels:
                for bank in config.banks:
                    for region in config.regions:
                        items.append(WorkItem(
                            index=len(items), channel=channel,
                            pseudo_channel=pseudo_channel, bank=bank,
                            region=region))
        return cls(items=tuple(items))

    @staticmethod
    def narrow_config(config, item: WorkItem):
        """``config`` narrowed to one item's cell.

        WCDP synthesis is disabled (it runs once, on the merged
        dataset) and ``jobs`` forced to 1 (an item is the unit of
        parallelism).
        """
        return replace(config, channels=(item.channel,),
                       pseudo_channels=(item.pseudo_channel,),
                       banks=(item.bank,), regions=(item.region,),
                       append_wcdp=False, jobs=1)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self.items)
