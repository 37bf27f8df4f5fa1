"""Execution backends: compile-once / execute-many program handles.

The engine narrows every way of running a Bender program down to a
three-call protocol::

    handle = backend.compile(program)         # canonicalize + lower
    other = backend.bind(handle, counts)      # same shape, other counts
    result = backend.execute(handle, rows)    # patch rows + run

``compile`` does the once-per-shape work and returns a handle bound to
the program's own loop counts; ``bind`` rebinds a handle's shape to
another count binding without rebuilding or re-canonicalizing it.

:class:`LocalBackend` is the reference implementation: it executes on
the station's own in-process :class:`~repro.bender.interpreter.
Interpreter`, through whatever transport the host has installed (so
fault-injecting and resilient links keep working unchanged).  The
subprocess fan-out lives in :class:`repro.engine.pool.PoolBackend`,
which schedules whole :class:`~repro.engine.plan.WorkItem`\\ s onto
worker processes that each run a ``LocalBackend`` of their own.

``compile`` also *lowers* the program's row-write payloads: a WRROW's
``np.unpackbits`` expansion and its ECC parity words are pure functions
of the payload bytes, so they are computed once per distinct payload
and memoized on the interpreter (see
:meth:`~repro.bender.interpreter.Interpreter.enable_payload_cache`),
turning the per-row data fill from an encode into an array copy.

:class:`FastPathBackend` extends the local backend with the *analytic
fast path*: binding a handle to its counts additionally runs the
effect-summary analysis (:func:`repro.verify.summarize_program`) on
the count-bound template, and ``execute`` applies a summarized
program's effect ops directly against the device — the same ACT
counts, timing stamps, TRR observations, disturbance doses and command
counts the interpreter would produce, without walking the command
stream.  Programs whose effects cannot be proven
(:class:`~repro.verify.Unsummarizable`) fall back to interpreted
execution, counted in ``engine.fastpath.fallbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.bender import isa
from repro.bender.interpreter import ExecutionResult
from repro.bender.program import Program
from repro.engine.cache import (
    CountBinding,
    RowBinding,
    SlotBanks,
    canonicalize,
    shape_digest,
    substitute,
)
from repro.errors import EngineError
from repro.obs import get_metrics
from repro.verify import VerificationReport, VerifyContext
from repro.verify.effects import (
    BurstOp,
    EffectSummary,
    HammerOp,
    IdleOp,
    RefreshOp,
    RowReadOp,
    RowWriteOp,
    Unsummarizable,
    summarize_program,
)


@dataclass(frozen=True)
class CompiledProgram:
    """A backend handle: one lowered program shape, bound to counts.

    ``template`` carries slot ordinals in place of ACT rows and loop
    counts; ``counts`` is the count binding the handle executes with.
    ``source_binding`` is the row binding of the program the shape was
    compiled from.  ``summary`` / ``unsummarizable`` are the effect
    analysis of the template bound to ``counts`` (both None on backends
    that do not summarize): because the template's ACT rows *are* slot
    ordinals, a summary's row operands index any concrete row binding —
    the same renaming rule row substitution uses — so one analysis
    serves every execution of the binding.
    """

    template: Program
    slot_banks: SlotBanks
    source_binding: RowBinding
    digest: str
    counts: CountBinding = ()
    summary: Optional[EffectSummary] = None
    unsummarizable: Optional[Unsummarizable] = None

    @property
    def slots(self) -> int:
        return len(self.slot_banks)


class ExecutionBackend(Protocol):
    """What any engine backend must provide.

    The seam for future remote or accelerated executors: anything that
    can compile a program into a patchable handle and execute bindings
    against it can serve the cache and the drivers.
    """

    def compile(self, program: Program,
                report: Optional[VerificationReport] = None
                ) -> CompiledProgram:
        ...

    def bind(self, handle: CompiledProgram, counts: CountBinding,
             report: Optional[VerificationReport] = None
             ) -> CompiledProgram:
        ...

    def execute(self, handle: CompiledProgram,
                binding: RowBinding = ()) -> ExecutionResult:
        ...

    def execute_batch(self, handle: CompiledProgram,
                      bindings: Sequence[RowBinding]
                      ) -> List[ExecutionResult]:
        ...


def _wrrow_payloads(program: Program) -> Tuple[bytes, ...]:
    payloads: List[bytes] = []

    def walk(instructions) -> None:
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                walk(instruction.body)
            elif isinstance(instruction, isa.WrRow):
                payloads.append(instruction.data)

    walk(program.instructions)
    return tuple(payloads)


class LocalBackend:
    """Reference in-process backend for one station."""

    #: Bound on memoized instantiations (cleared wholesale when full; a
    #: sweep's working set is far smaller, the bound is a backstop).
    MAX_INSTANTIATIONS = 4096

    def __init__(self, host) -> None:
        self._host = host
        # Programs are immutable, so an instantiation — a template with
        # one concrete count and row binding patched in — can be reused
        # verbatim whenever the same rows are measured again with the
        # same counts (every repetition after the first), skipping the
        # substitution walk.
        self._instantiations: dict = {}

    @property
    def timing(self):
        return self._host.device.timing

    def device_identity(self) -> str:
        """The executing device's family identity for cache digests.

        Mirrors :meth:`repro.dram.profiles.DeviceProfile.identity` —
        profile name (empty for hand-assembled devices), geometry, and
        TRR policy — so programs verified against one family never
        alias another's cache entries, even with identical timing.
        """
        device = self._host.device
        return (f"{device.profile_name or ''}|{device.geometry!r}"
                f"|{device.trr_config!r}")

    def compile(self, program: Program,
                report: Optional[VerificationReport] = None
                ) -> CompiledProgram:
        """Canonicalize ``program`` into a patchable, lowered handle
        bound to the program's own loop counts.

        ``report`` is the caller's verification report for ``program``,
        if it has one (see :meth:`bind`).
        """
        template, binding, slot_banks, counts = canonicalize(program)
        handle = CompiledProgram(template=template, slot_banks=slot_banks,
                                 source_binding=binding,
                                 digest=shape_digest(
                                     template, self.timing,
                                     self.device_identity()),
                                 counts=counts)
        payload_cache = self._host.interpreter.payload_cache
        if payload_cache is not None:
            for payload in _wrrow_payloads(template):
                self._host.interpreter.lower_payload(payload)
        return self.bind(handle, counts, report=report)

    def bind(self, handle: CompiledProgram, counts: CountBinding,
             report: Optional[VerificationReport] = None
             ) -> CompiledProgram:
        """The handle's shape bound to the loop counts ``counts``.

        ``report`` is a verification report of one instance of that
        binding (any row binding); backends that analyze the binding
        may reuse it instead of verifying again.
        """
        return replace(handle, counts=counts)

    def execute(self, handle: CompiledProgram,
                binding: RowBinding = ()) -> ExecutionResult:
        """Patch ``binding`` into the handle and run it on the station."""
        binding = tuple(binding)
        key = (handle.digest, handle.counts, binding)
        program = self._instantiations.get(key)
        if program is None:
            program = substitute(handle.template, handle.slot_banks,
                                 binding, handle.counts)
            if len(self._instantiations) >= self.MAX_INSTANTIATIONS:
                self._instantiations.clear()
            self._instantiations[key] = program
        return self._host.run(program)

    def execute_batch(self, handle: CompiledProgram,
                      bindings: Sequence[RowBinding]
                      ) -> List[ExecutionResult]:
        """One :meth:`execute` per binding, in order."""
        return [self.execute(handle, binding) for binding in bindings]


class FastPathBackend(LocalBackend):
    """Local backend with the analytic (effect-summary) fast path.

    ``execute`` dispatches on the handle's effect analysis:

    * summary present and the station is fast-path capable — apply the
      effect ops directly (``engine.fastpath.hits``);
    * no summary (``Unsummarizable`` shape) — interpreted execution
      (``engine.fastpath.fallbacks``);
    * station not capable right now — a transport is installed (fault
      injection must see every program), tracing is on, or bulk loops
      are disabled — interpreted execution (``engine.fastpath.
      bypasses``), since interpreted behaviour is the one being
      observed.

    Equivalence contract: for every summarized program, the applied
    effect is cycle- and state-identical to interpreted execution.
    Ops reuse the device's own command methods (ACT/PRE/REF/RDROW at
    the same clock stamps), hammer loops mirror the interpreter's
    warm-up + bulk + cool-down split exactly, and full-row writes go
    through :meth:`~repro.dram.device.Device.apply_row_write`.
    The CI fastpath-equivalence job holds the gate: Fig. 3 dataset
    fingerprints must be byte-identical with ``REPRO_FASTPATH=0/1``.
    """

    def bind(self, handle: CompiledProgram, counts: CountBinding,
             report: Optional[VerificationReport] = None
             ) -> CompiledProgram:
        """Bind ``counts`` and summarize the bound template's effect.

        The summary is computed on the template with its rows left as
        slot ordinals.  A caller's ``report`` for an instance of the
        binding stands in for the summarizer's own verification pass
        whenever :func:`~repro.verify.summarize_program` accepts it.
        """
        template = substitute(handle.template, handle.slot_banks,
                              tuple(range(handle.slots)), counts)
        context = VerifyContext.for_host(self._host,
                                         allow_retention_decay=True)
        outcome = summarize_program(template, context, report=report)
        if isinstance(outcome, EffectSummary):
            return replace(handle, counts=counts, summary=outcome,
                           unsummarizable=None)
        return replace(handle, counts=counts, summary=None,
                       unsummarizable=outcome)

    def execute(self, handle: CompiledProgram,
                binding: RowBinding = ()) -> ExecutionResult:
        if handle.summary is None:
            get_metrics().counter("engine.fastpath.fallbacks").inc()
            return super().execute(handle, binding)
        if not self._fast_path_capable():
            get_metrics().counter("engine.fastpath.bypasses").inc()
            return super().execute(handle, binding)
        get_metrics().counter("engine.fastpath.hits").inc()
        return self._apply(handle, tuple(binding))

    def _fast_path_capable(self) -> bool:
        interpreter = self._host.interpreter
        return (self._host.transport is None and
                interpreter.fast_loops_enabled and
                not interpreter.trace_enabled)

    # -- effect application -------------------------------------------
    def _apply(self, handle: CompiledProgram,
               rows: RowBinding) -> ExecutionResult:
        if len(rows) != handle.slots:
            raise EngineError(
                f"program shape {handle.digest[:12]} has {handle.slots} "
                f"row slot(s), got a binding of {len(rows)}")
        bound = {bank_key + (row,)
                 for bank_key, row in zip(handle.slot_banks, rows)}
        if len(bound) != len(rows):
            raise EngineError(
                f"row binding {rows!r} aliases two slots of the same "
                f"bank in shape {handle.digest[:12]}; the canonical "
                "template guarantees distinct rows per bank")
        # The fast path is still one program execution as far as the
        # command-stream accounting is concerned.
        get_metrics().counter("bender.programs").inc()
        device = self._host.device
        result = ExecutionResult(start_cycle=device.now)
        self._apply_ops(handle.summary.ops, rows, device, result)
        result.end_cycle = device.now
        return result

    def _apply_ops(self, ops, rows: RowBinding, device,
                   result: ExecutionResult) -> None:
        interpreter = self._host.interpreter
        index = 0
        total = len(ops)
        while index < total:
            op = ops[index]
            index += 1
            if isinstance(op, RowWriteOp):
                # Coalesce a run of same-bank writes: the device's
                # batched form skips the timing checker for the middle
                # triads once the schedule is provably periodic.
                bank_key = (op.channel, op.pseudo_channel, op.bank)
                writes = [(rows[op.row],) +
                          interpreter.lower_payload(op.data) +
                          (op.data,)]
                while index < total:
                    peek = ops[index]
                    if not (isinstance(peek, RowWriteOp) and
                            (peek.channel, peek.pseudo_channel,
                             peek.bank) == bank_key):
                        break
                    writes.append((rows[peek.row],) +
                                  interpreter.lower_payload(peek.data) +
                                  (peek.data,))
                    index += 1
                if len(writes) == 1:
                    row, bits, parity, tag = writes[0]
                    device.apply_row_write(op.channel, op.pseudo_channel,
                                           op.bank, row, bits, parity,
                                           tag=tag)
                else:
                    device.apply_row_writes(op.channel, op.pseudo_channel,
                                            op.bank, writes)
            elif isinstance(op, HammerOp):
                self._apply_hammer(op, rows, device)
            elif isinstance(op, RowReadOp):
                device.activate(op.channel, op.pseudo_channel, op.bank,
                                rows[op.row])
                result.row_reads.append(device.read_open_row(
                    op.channel, op.pseudo_channel, op.bank))
                device.precharge(op.channel, op.pseudo_channel, op.bank)
            elif isinstance(op, RefreshOp):
                for _ in range(op.count):
                    device.refresh(op.channel, op.pseudo_channel)
            elif isinstance(op, IdleOp):
                device.wait(op.cycles)
            elif isinstance(op, BurstOp):
                for _ in range(op.iterations):
                    self._apply_ops(op.ops, rows, device, result)
            else:
                raise EngineError(f"unknown effect op: {op!r}")

    def _apply_hammer(self, op: HammerOp, rows: RowBinding,
                      device) -> None:
        """Mirror of the interpreter's loop policy, op-encoded.

        Same split as :meth:`~repro.bender.interpreter.Interpreter.
        _run_loop`: below the threshold every iteration runs through
        the device's command methods; at or above it, two warm-up
        iterations measure the steady-state period, ``iterations - 3``
        are bulk-applied, and a final slow iteration leaves the exact
        trailing timing state of the unrolled loop.
        """
        steps = op.steps
        resolved = tuple(
            ("act", step[1], step[2], step[3], rows[step[4]])
            if step[0] == "act" else tuple(step)
            for step in steps)

        def run_once() -> None:
            device.apply_hammer_steps(resolved)

        iterations = op.iterations
        if iterations < self._host.interpreter.fast_loop_threshold:
            for _ in range(iterations):
                run_once()
            return
        run_once()
        before_second = device.now
        run_once()
        period = device.now - before_second
        remaining = iterations - 3
        body_acts = [(step[1], step[2], step[3], rows[step[4]])
                     for step in steps if step[0] == "act"]
        device.bulk_activations(body_acts, remaining, remaining * period)
        run_once()
