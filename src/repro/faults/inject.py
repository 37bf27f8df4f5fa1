"""Fault injectors: apply a :class:`~repro.faults.plan.FaultPlan`.

Three injection surfaces, matching the failure modes that dominate
real DRAM Bender bring-up:

* :class:`FaultyTransport` — a :class:`~repro.bender.transport.
  PcieTransport` whose uplink/downlink hops consult the plan: uplink
  corruption and drops surface as retryable
  :class:`~repro.errors.TransportFault`\\ s *before* execution, and
  downlink poison/truncation mangles the delivered copy (the board
  buffer keeps the truth, so a digest-verifying caller recovers via
  re-request).
* :func:`injure_worker` — crash/hang/error injection at shard-worker
  entry, keyed by (shard coordinates, attempt) so retries redraw.
* :func:`poison_dataset` — corrupts one record of a shard's readback
  after its integrity fingerprint was taken, so the parent's
  verification catches it.

Injection never silently changes a *successful* measurement: every
fault is either detectable (corruption against a digest), fatal
(crash/hang → retry/quarantine), or accounting-only (stall/duplicate),
which is what lets campaigns under a fault plan export byte-identical
datasets to fault-free runs once the resilience layer has done its job.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

from repro.bender.interpreter import ExecutionResult
from repro.bender.transport import PcieTransport
from repro.dram.device import HBM2Device
from repro.errors import ShardFault, TransportFault
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import get_metrics

__all__ = ["FaultyTransport", "injure_worker", "poison_dataset"]


class FaultyTransport(PcieTransport):
    """A PCIe link that misbehaves on the plan's schedule."""

    def __init__(self, device: HBM2Device, plan: FaultPlan,
                 bandwidth_bytes_per_s: float = 3.0e9,
                 interpreter=None) -> None:
        super().__init__(device, bandwidth_bytes_per_s=bandwidth_bytes_per_s,
                         interpreter=interpreter)
        self._plan = plan
        #: Injected-fault tally by category (independent of metrics).
        self.injected = {"drop": 0, "corrupt": 0, "duplicate": 0,
                         "stall": 0, "poison": 0}

    def _note(self, category: str) -> None:
        self.injected[category] += 1
        get_metrics().counter(f"transport.injected.{category}").inc()

    # -- uplink ---------------------------------------------------------
    def _transmit(self, wire_text: str, transfer_index: int) -> str:
        fault = self._plan.link_fault(transfer_index)
        if fault == "drop":
            self._note("drop")
            raise TransportFault(
                f"transfer {transfer_index} dropped (no board ack)")
        for effect in self._plan.link_effects(transfer_index):
            self._note(effect)
            if effect == "duplicate":
                # The payload crossed the wire twice; bill it again.
                self.statistics.bytes_up += len(wire_text.encode())
                self.statistics.transfer_time_s += (
                    len(wire_text.encode()) / self._bandwidth)
            elif effect == "stall":
                self.statistics.transfer_time_s += self._plan.spec.stall_s
        if fault == "corrupt":
            self._note("corrupt")
            # Bit errors in the text stream: garble a slice mid-wire so
            # the board-side assembler rejects it.
            middle = len(wire_text) // 2
            return wire_text[:middle] + "\x00<bitrot>\x00" + \
                wire_text[middle:]
        return wire_text

    # -- downlink -------------------------------------------------------
    def _deliver(self, result: ExecutionResult,
                 transfer_index: int) -> ExecutionResult:
        if not self._plan.readback_poisoned(transfer_index):
            return result
        self._note("poison")
        return _corrupt_readback(result)


def _corrupt_readback(result: ExecutionResult) -> ExecutionResult:
    """A copy of ``result`` with one readback payload mangled.

    Flips the first bit of the last row read when there is one, else
    truncates the column reads — either way the digest no longer
    matches the board-side buffer.
    """
    corrupted = ExecutionResult(
        column_reads=list(result.column_reads),
        row_reads=list(result.row_reads),
        start_cycle=result.start_cycle,
        end_cycle=result.end_cycle,
        trace=list(result.trace),
    )
    if corrupted.row_reads:
        bits = corrupted.row_reads[-1].copy()
        if bits.size:
            bits[0] ^= 1
        corrupted.row_reads[-1] = bits
    elif corrupted.column_reads:
        corrupted.column_reads[-1] = corrupted.column_reads[-1][:-1]
    return corrupted


# ----------------------------------------------------------------------
# Shard workers
# ----------------------------------------------------------------------
def _in_pool_worker() -> bool:
    """Whether this process is a pool worker (vs. a campaign parent).

    Process-killing faults (SIGKILL, the ``crash`` exit) must never
    fire in inline execution — the degrade-to-inline fallback runs
    items in the campaign *parent*, and killing it would turn a
    survivable worker fault into a campaign loss (or kill pytest).  The
    pool initializer installs per-worker state only in real workers, so
    its presence is the gate.
    """
    from repro.engine.pool import _WORKER_STATE
    return bool(_WORKER_STATE)


def injure_worker(plan: FaultPlan, channel: int, pseudo_channel: int,
                  bank: int, region: str, attempt: int,
                  _exit=os._exit, _sleep=time.sleep,
                  _kill=os.kill) -> None:
    """Apply the plan's injury (if any) for one shard attempt.

    Called at worker entry, before any device state exists, so an
    injured attempt cannot leave a half-measured station behind:

    * ``sigkill`` (process category) — the pool worker dies by raw
      SIGKILL: no exception, no exit handler, exactly the death the
      durable-state layer must survive (only fires in pool workers),
    * ``crash`` — the worker process dies immediately (the parent sees
      a broken pool / lost future); run inline, the attempt fails with
      a ``crash``-category :class:`~repro.errors.ShardFault` instead,
    * ``hang`` — the worker stalls ``hang_s`` seconds before running
      (the parent's shard timeout fires),
    * ``error`` — a :class:`~repro.errors.ShardFault` propagates
      through the worker's failure reporting.
    """
    if (plan.worker_kill(channel, pseudo_channel, bank, region, attempt)
            and _in_pool_worker()):
        get_metrics().counter("faults.process.sigkill").inc()
        _kill(os.getpid(), signal.SIGKILL)
    category = plan.shard_fault(channel, pseudo_channel, bank, region,
                                attempt)
    if category is None:
        return
    get_metrics().counter(f"faults.shard.{category}").inc()
    if category == "crash":
        if not _in_pool_worker():
            raise ShardFault(
                f"injected worker crash (attempt {attempt}, inline)",
                category="crash")
        _exit(13)
    elif category == "hang":
        _sleep(plan.spec.hang_s)
    elif category == "error":
        raise ShardFault(
            f"injected worker fault (attempt {attempt})", category="error")


def poison_dataset(plan: FaultPlan, dataset, channel: int,
                   pseudo_channel: int, bank: int, region: str,
                   attempt: int) -> bool:
    """Corrupt one record of a shard's readback, per the plan.

    Returns True when poison was applied.  Must be called *after* the
    integrity fingerprint was recorded, so the corruption is detectable
    parent-side.
    """
    if not plan.shard_poisoned(channel, pseudo_channel, bank, region,
                               attempt):
        return False
    if dataset.ber_records:
        record = dataset.ber_records[-1]
        dataset.ber_records[-1] = replace(record, flips=record.flips + 1)
    elif dataset.hcfirst_records:
        record = dataset.hcfirst_records[-1]
        dataset.hcfirst_records[-1] = replace(record,
                                              probes=record.probes + 1)
    else:
        return False
    get_metrics().counter("faults.shard.poison").inc()
    return True


def build_link(device: HBM2Device, spec: FaultSpec,
               bandwidth_bytes_per_s: float = 3.0e9):
    """A resilient faulty link for ``device`` under ``spec``.

    The standard wiring: a :class:`FaultyTransport` on the spec's plan,
    wrapped in a :class:`~repro.bender.transport.ResilientTransport`
    seeded for deterministic backoff jitter.
    """
    from repro.bender.transport import ResilientTransport

    faulty = FaultyTransport(device, FaultPlan(spec),
                             bandwidth_bytes_per_s=bandwidth_bytes_per_s)
    return ResilientTransport(faulty, seed=spec.seed)
