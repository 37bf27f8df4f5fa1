"""Tests for repro.obs.events — schema, ordering, cross-mode stability.

The determinism contract under test: the event log's ``strip_timing``
view (payloads minus the wall-clock ``timing`` sub-object) is identical
whether a campaign runs on one worker, pooled, or killed-and-resumed —
for sweeps and fleets alike.
"""

import pytest

from repro.errors import AnalysisError
from repro.obs import use_events
from repro.obs.events import (
    Event,
    EventBus,
    canonical_order,
    dataset_delta,
    read_events,
    strip_timing,
)
from tests.core.kinds import FLEET, SWEEP


class TestEventSchema:
    def test_round_trip_preserves_payload_and_timing(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        bus.emit("item_completed", item=3, attempt=1, records=12,
                 timing={"source": "checkpoint"})
        (event,) = read_events(bus.path)
        assert event.type == "item_completed"
        assert event.item == 3
        assert event.attempt == 1
        assert event.data == {"records": 12}
        assert event.timing["source"] == "checkpoint"
        assert set(event.timing) >= {"t_s", "mono_s", "pid"}
        assert Event.from_dict(event.as_dict()) == event

    def test_unknown_event_type_rejected(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        with pytest.raises(AnalysisError):
            bus.emit("worker_exploded")

    def test_payload_excludes_timing(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        event = bus.emit("campaign_started", shards=4, kind="sweep")
        assert "timing" not in event.payload()
        assert event.payload() == {"type": "campaign_started",
                                   "shards": 4, "kind": "sweep"}

    def test_itemless_events_omit_item_and_attempt(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        event = bus.emit("campaign_finished", shards=4)
        assert "item" not in event.payload()
        assert "attempt" not in event.payload()


class TestCanonicalOrder:
    def test_lifecycle_brackets_and_item_grouping(self):
        events = [Event("item_completed", item=1),
                  Event("campaign_finished"),
                  Event("worker_heartbeat", item=1),
                  Event("item_completed", item=0),
                  Event("shard_dispatched", item=0),
                  Event("campaign_started")]
        ordered = canonical_order(events)
        assert [(e.type, e.item) for e in ordered] == [
            ("campaign_started", None),
            ("shard_dispatched", 0),
            ("item_completed", 0),
            ("worker_heartbeat", 1),
            ("item_completed", 1),
            ("campaign_finished", None)]

    def test_retry_precedes_its_attempts_dispatch(self):
        events = [Event("shard_dispatched", item=2, attempt=1),
                  Event("retry", item=2, attempt=1),
                  Event("item_completed", item=2, attempt=1)]
        ordered = canonical_order(events)
        assert [e.type for e in ordered] == [
            "retry", "shard_dispatched", "item_completed"]


class TestTickDispatch:
    def test_tick_dispatches_each_event_exactly_once(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        seen = []
        bus.subscribe(seen.append)
        bus.emit("campaign_started", shards=1, kind="sweep")
        assert [e.type for e in bus.tick()] == ["campaign_started"]
        assert bus.tick() == []
        # A second writer (worker) appending to the same file is picked
        # up by the parent's next tick.
        worker = EventBus(bus.path, epoch=bus.epoch, truncate=False)
        worker.emit("worker_heartbeat", item=0)
        bus.emit("campaign_finished", shards=1)
        assert [e.type for e in bus.tick()] == ["worker_heartbeat",
                                                "campaign_finished"]
        assert [e.type for e in seen] == ["campaign_started",
                                          "worker_heartbeat",
                                          "campaign_finished"]

    def test_finalize_rewrites_in_canonical_order(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        bus.emit("item_completed", item=1)
        bus.emit("campaign_started", shards=2, kind="sweep")
        bus.emit("item_completed", item=0)
        ordered = bus.finalize()
        assert [e.type for e in ordered] == [
            "campaign_started", "item_completed", "item_completed"]
        assert [e.item for e in ordered] == [None, 0, 1]
        assert strip_timing(read_events(bus.path)) == strip_timing(ordered)


def _campaign_events(tmp_path, name, jobs, campaign_dir=None,
                     interrupt_after=None, max_retries=1, kind=SWEEP):
    """Run the lean campaign with events on; return its dataset and
    the finalized log."""
    path = tmp_path / f"{name}.jsonl"
    bus = EventBus(path)
    runner = kind.runner(jobs=jobs, max_retries=max_retries,
                         campaign_dir=campaign_dir)
    with use_events(bus):
        result = runner.run()
    return kind.dataset(result), read_events(path)


class TestCrossModeStability:
    kind = SWEEP

    def test_events_identical_across_jobs_levels_and_resume(self, tmp_path):
        kind = self.kind
        serial_dataset, serial = _campaign_events(tmp_path, "serial", 1,
                                                  kind=kind)
        pooled_dataset, pooled = _campaign_events(tmp_path, "pooled", 2,
                                                  kind=kind)

        # Resume: fill a campaign directory without events, lose half
        # the checkpoints ("killed mid-run"), then rerun with events.
        campaign = tmp_path / "ckpt"
        kind.runner(jobs=2, campaign_dir=campaign).run()
        for index in (1, 3, 5):
            (campaign / f"shard_{index:05d}.json").unlink()
        resumed_dataset, resumed = _campaign_events(
            tmp_path, "resumed", 2, campaign_dir=campaign, kind=kind)

        assert pooled_dataset.ber_records == serial_dataset.ber_records
        assert resumed_dataset.ber_records == serial_dataset.ber_records
        assert strip_timing(pooled) == strip_timing(serial)
        assert strip_timing(resumed) == strip_timing(serial)
        # But resume marks its synthesized events.
        sources = {event.timing.get("source") for event in resumed}
        assert "checkpoint" in sources

    def test_event_log_covers_the_whole_lifecycle(self, tmp_path):
        _, events = _campaign_events(tmp_path, "lifecycle", 2,
                                     kind=self.kind)
        kinds = [event.type for event in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        plan_size = events[0].data[self.kind.unit]
        completed = [e for e in events if e.type == "item_completed"]
        heartbeats = [e for e in events if e.type == "worker_heartbeat"]
        dispatched = [e for e in events if e.type == "shard_dispatched"]
        assert len(completed) == len(dispatched) == len(heartbeats) \
            == plan_size
        # Completion deltas are dataset-derivable (records and flips).
        for event in completed:
            assert set(event.data) >= {"records", "ber_records",
                                       "hcfirst_records", "flips"}
        finished = events[-1]
        assert finished.data["completed"] == plan_size
        assert finished.data["quarantined"] == 0
        # The campaign total includes the WCDP records synthesized on
        # the merged dataset, so it dominates the per-item sum.
        assert finished.data["records"] >= sum(
            e.data["records"] for e in completed)


class TestCrossModeStabilityFleet(TestCrossModeStability):
    kind = FLEET


class TestDatasetDelta:
    def test_delta_matches_dataset_contents(self, tmp_path):
        dataset, events = _campaign_events(tmp_path, "delta", 1)
        total = sum(event.data["flips"] for event in events
                    if event.type == "item_completed")
        # Per-item deltas cover measured records only; the WCDP rows are
        # synthesized post-merge and never flow through a worker.
        measured = [r for r in dataset.ber_records if r.pattern != "WCDP"]
        assert total == sum(r.flips for r in measured)
        delta = dataset_delta(dataset)
        assert delta["records"] == (len(dataset.ber_records)
                                    + len(dataset.hcfirst_records))


class TestTornLogRobustness:
    """A killed writer leaves a torn final line; readers must survive it."""

    def _torn_log(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        bus.emit("campaign_started", shards=2, kind="sweep")
        bus.emit("item_completed", item=0, records=4, flips=1)
        with open(bus.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "item_completed", "it')  # kill -9 here
        return bus

    def test_strict_read_raises_on_torn_tail(self, tmp_path):
        bus = self._torn_log(tmp_path)
        with pytest.raises(Exception):
            read_events(bus.path)

    def test_tolerant_read_drops_and_counts_the_fragment(self, tmp_path):
        from repro.obs import MetricsRegistry, use_metrics
        bus = self._torn_log(tmp_path)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            events = read_events(bus.path, tolerant=True)
        assert [event.type for event in events] == \
            ["campaign_started", "item_completed"]
        assert metrics.snapshot()["counters"]["events.dropped_lines"] == 1

    def test_finalize_tolerates_a_torn_tail(self, tmp_path):
        bus = self._torn_log(tmp_path)
        ordered = bus.finalize()
        assert [event.type for event in ordered] == \
            ["campaign_started", "item_completed"]
        # The rewrite left a clean log: strict parsing succeeds now.
        assert len(read_events(bus.path)) == 2

    def test_tick_drops_garbage_lines(self, tmp_path):
        from repro.obs import MetricsRegistry, use_metrics
        bus = EventBus(tmp_path / "events.jsonl")
        seen = []
        bus.subscribe(seen.append)
        bus.emit("campaign_started", shards=1, kind="sweep")
        with open(bus.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        bus.emit("item_completed", item=0, records=4)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            fresh = bus.tick()
        assert [event.type for event in fresh] == \
            ["campaign_started", "item_completed"]
        assert len(seen) == 2
        assert metrics.snapshot()["counters"]["events.dropped_lines"] == 1

    def test_tick_restarts_after_truncation(self, tmp_path):
        """Rotation (a new campaign reusing the path) must not wedge a
        follower at a stale offset."""
        path = tmp_path / "events.jsonl"
        bus = EventBus(path)
        follower = EventBus(path, truncate=False)
        seen = []
        follower.subscribe(seen.append)
        bus.emit("campaign_started", shards=3, kind="sweep")
        bus.emit("item_completed", item=0, records=4)
        assert len(follower.tick()) == 2

        fresh_bus = EventBus(path)  # truncates: a new campaign began
        fresh_bus.emit("campaign_started", shards=1, kind="sweep")
        fresh = follower.tick()
        assert [event.type for event in fresh] == ["campaign_started"]
        assert len(seen) == 3

    def test_tick_survives_a_vanished_log(self, tmp_path):
        bus = EventBus(tmp_path / "events.jsonl")
        bus.subscribe(lambda event: None)
        bus.path.unlink()
        assert bus.tick() == []
