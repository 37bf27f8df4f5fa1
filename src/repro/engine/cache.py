"""Content-addressed cache of built-and-verified Bender programs.

SoftMC-lineage infrastructures get their throughput from compiling a
hammer program once and replaying it across thousands of rows; the
repo's hot loops instead rebuilt and re-verified a near-identical
program per (row, pattern, repetition).  :class:`ProgramCache` closes
that gap: programs are cached by *shape* — the program with every ACT
row operand and every loop count replaced by a slot ordinal — so
construction, canonicalization, digesting and payload lowering are
paid once per shape.  Each distinct *count binding* of a shape (the
hammer counts an HC_first search probes, say) is verified and
effect-summarized once, and every further execution only patches row
addresses into the bound template.

Soundness of patching
---------------------
Rows and counts transfer differently.

*Rows transfer by renaming.*  All protocol and timing properties the
verifier checks are functions of the command sequence and its
(channel, pseudo channel, bank) coordinates only — never of row
*values* — so a verification report for one row binding holds for any
other.  The single row-sensitive property (declared per-row hammer
counts) is preserved exactly when the substitution keeps distinct
slots distinct within each bank, which :func:`substitute` enforces; a
binding that would alias two slots onto one row raises
:class:`~repro.errors.EngineError` instead of executing with silently
merged activation counts.

*Counts are re-verified per binding.*  A loop count changes the command
stream itself — its length, its REF cadence, and the ACT totals the
caller declares — so no verdict is transferred from one count binding
to another.  The first call with a new ``(shape, counts)`` binding
instantiates the template with that call's rows and counts and runs the
caller's ``verify`` on the instance; a binding whose verification fails
raises and is not memoized, so the next call with it verifies (and
raises) again.

Addressing
----------
Shapes are content-addressed: the digest is ``blake2b`` over the
canonical assembly text of the template plus the timing parameter
table, so two call sites that build the same shape share one entry.
Callers index the store with a cheap structural key (e.g.
``("hammer", ch, pc, bank, aggressors, count == 0)``) to avoid building
a program at all on the hot path; the key maps to a shape and the
shape's bindings to the bound, compiled handle.  A caller whose key
omits a loop count passes the count binding with each call; a caller
whose key determines the counts passes none, and the counts of the
program its key built are used.

The key index and each shape's count bindings are LRUs bounded by
``max_entries``.  Counters, exported through the metrics registry:

* ``engine.cache.hits`` / ``engine.cache.misses`` — a call whose key
  or ``(shape, counts)`` binding is new is a miss;
* ``engine.cache.shape_builds`` — programs built and compiled;
* ``engine.cache.evictions`` — keys and bindings dropped to stay
  within the bound.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.bender import isa
from repro.bender.assembler import disassemble
from repro.bender.program import Program
from repro.errors import EngineError
from repro.obs import get_metrics

#: Ordered distinct row operands of a program (first-occurrence order).
RowBinding = Tuple[int, ...]
#: Loop counts of a program, one per loop in pre-order.
CountBinding = Tuple[int, ...]
#: The (channel, pseudo channel, bank) coordinate of each row slot.
SlotBanks = Tuple[Tuple[int, int, int], ...]

#: Bound on the key index and on each shape's count bindings (a
#: backstop: a campaign's shape keys are few, but an HC_first search
#: probes new hammer counts per row).
DEFAULT_MAX_ENTRIES = 4096


def canonicalize(program: Program
                 ) -> Tuple[Program, RowBinding, SlotBanks, CountBinding]:
    """Split ``program`` into a row- and count-free template and its
    bindings.

    Each distinct (channel, pseudo channel, bank, row) ACT operand is
    assigned a row slot ordinal in first-occurrence order, and each loop
    a count slot ordinal in pre-order; the template carries the ordinals
    in place of the rows and counts.  Returns the template, the row
    binding (original row per slot), each row slot's bank coordinate,
    and the count binding (original count per loop).
    """
    slots: Dict[Tuple[int, int, int, int], int] = {}
    binding: List[int] = []
    slot_banks: List[Tuple[int, int, int]] = []
    counts: List[int] = []

    def walk(instructions) -> Tuple[isa.Instruction, ...]:
        out: List[isa.Instruction] = []
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                slot = len(counts)
                counts.append(instruction.count)
                out.append(isa.Loop(slot, walk(instruction.body)))
            elif isinstance(instruction, isa.Act):
                key = (instruction.channel, instruction.pseudo_channel,
                       instruction.bank, instruction.row)
                slot = slots.get(key)
                if slot is None:
                    slot = len(slots)
                    slots[key] = slot
                    binding.append(instruction.row)
                    slot_banks.append(key[:3])
                out.append(isa.Act(instruction.channel,
                                   instruction.pseudo_channel,
                                   instruction.bank, slot))
            else:
                out.append(instruction)
        return tuple(out)

    template = Program(walk(program.instructions))
    return template, tuple(binding), tuple(slot_banks), tuple(counts)


def substitute(template: Program, slot_banks: SlotBanks,
               rows: RowBinding, counts: CountBinding = ()) -> Program:
    """Instantiate a template with concrete row and count bindings.

    Verification transfers across row bindings only if the binding
    preserves slot distinctness per bank (see module docstring), so
    aliasing bindings are rejected.  ``counts`` must supply one count
    per loop of the template.
    """
    if len(rows) != len(slot_banks):
        raise EngineError(
            f"program shape has {len(slot_banks)} row slot(s), "
            f"binding supplies {len(rows)}")
    bound = {(bank + (row,)) for bank, row in zip(slot_banks, rows)}
    if len(bound) != len(rows):
        raise EngineError(
            f"row binding {rows} aliases two slots of the same bank; "
            "activation counts would no longer match the verified shape")
    loops = 0

    def walk(instructions) -> Tuple[isa.Instruction, ...]:
        nonlocal loops
        out: List[isa.Instruction] = []
        for instruction in instructions:
            if isinstance(instruction, isa.Loop):
                slot = instruction.count
                loops = max(loops, slot + 1)
                count = counts[slot] if slot < len(counts) else 0
                out.append(isa.Loop(count, walk(instruction.body)))
            elif isinstance(instruction, isa.Act):
                out.append(isa.Act(instruction.channel,
                                   instruction.pseudo_channel,
                                   instruction.bank,
                                   rows[instruction.row]))
            else:
                out.append(instruction)
        return tuple(out)

    program = Program(walk(template.instructions))
    if loops != len(counts):
        raise EngineError(
            f"program shape has {loops} count slot(s), "
            f"binding supplies {len(counts)}")
    return program


def shape_digest(template: Program, timing, device_identity: str = "") -> str:
    """blake2b over the template's assembly, timing, and device identity.

    ``device_identity`` is the executing device family's identity string
    (profile name + geometry + TRR policy — see
    :meth:`repro.dram.profiles.DeviceProfile.identity`).  Including it
    keeps verified programs from aliasing across device families that
    happen to share an assembly text and timing table: a verdict is only
    transferable to the device it was verified against.
    """
    payload = (disassemble(template).encode("ascii")
               + b"\x00" + repr(timing).encode("ascii")
               + b"\x00" + device_identity.encode("ascii"))
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class _Shape:
    """One cached shape: a compiled handle and its count bindings."""

    __slots__ = ("handle", "bindings", "__weakref__")

    def __init__(self, handle: "CompiledProgram") -> None:
        self.handle = handle
        #: count binding -> handle bound to it (LRU order).
        self.bindings: "OrderedDict[CountBinding, CompiledProgram]" = \
            OrderedDict()


class ProgramCache:
    """Verified-program store with row-address and count patching.

    One cache serves one station (board): entries are compiled against
    the station's backend and verified against its timing table, so the
    engine session owns construction (see
    :class:`repro.engine.session.EngineSession`).
    """

    def __init__(self, backend, max_entries: int = DEFAULT_MAX_ENTRIES
                 ) -> None:
        self._backend = backend
        self._max_entries = max_entries
        #: key -> (shape, the count binding of the program it built).
        self._keys: "OrderedDict[tuple, Tuple[_Shape, CountBinding]]" = \
            OrderedDict()
        #: digest -> shape, for as long as some key holds the shape.
        self._shapes: "weakref.WeakValueDictionary[str, _Shape]" = \
            weakref.WeakValueDictionary()
        self.hits = 0
        self.misses = 0
        self.shape_builds = 0
        self.evictions = 0

    def __len__(self) -> int:
        """Distinct program shapes held."""
        return len(self._shapes)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def execute(self, key: tuple, rows: RowBinding,
                build: Callable[[], Program],
                verify: Optional[Callable[[Program], object]] = None,
                counts: Optional[CountBinding] = None):
        """Run the program ``build()`` describes, via the cache.

        Args:
            key: structural shape key — must determine the program up
                to its row binding and, when ``counts`` is given, its
                loop counts (callers include every other parameter that
                reaches the builder).
            rows: the program's row binding in first-ACT order.
            build: constructs the program (with whatever build-time
                protocol checking the uncached path performs).  Called
                when ``key`` is new only.
            verify: full static verification of one program instance
                (verify-at-cache-insert).  Called once per new
                ``(shape, counts)`` binding, on the instance with this
                call's rows and counts; row substitutions inherit its
                verdict by the renaming argument in the module
                docstring.  When it returns its
                :class:`~repro.verify.VerificationReport`, the backend
                reuses the report instead of verifying again.
            counts: the program's loop counts, one per loop in
                pre-order, when ``key`` leaves them out; None when the
                key determines them.

        Returns the backend's :class:`~repro.bender.interpreter.
        ExecutionResult`.
        """
        rows = tuple(rows)
        entry = self._keys.get(key)
        if entry is not None:
            self._keys.move_to_end(key)
            shape, key_counts = entry
            if counts is None:
                counts = key_counts
            handle = shape.bindings.get(counts)
            if handle is not None:
                shape.bindings.move_to_end(counts)
                self.hits += 1
                get_metrics().counter("engine.cache.hits").inc()
                return self._backend.execute(handle, rows)
        self.misses += 1
        get_metrics().counter("engine.cache.misses").inc()
        if entry is None:
            handle = self._insert(key, rows, counts, build, verify)
        else:
            handle = self._bind(shape, rows, counts, verify)
        return self._backend.execute(handle, rows)

    def _insert(self, key: tuple, rows: RowBinding,
                counts: Optional[CountBinding], build, verify):
        """Build, verify and compile the program of a new key."""
        self.shape_builds += 1
        get_metrics().counter("engine.cache.shape_builds").inc()
        program = build()
        report = verify(program) if verify is not None else None
        handle = self._backend.compile(program, report=report)
        if handle.source_binding != rows:
            raise EngineError(
                f"cache key {key!r} declared row binding {rows} but "
                f"the built program binds {handle.source_binding}")
        if counts is not None and handle.counts != counts:
            raise EngineError(
                f"cache key {key!r} declared count binding {counts} but "
                f"the built program counts {handle.counts}")
        shape = self._shapes.get(handle.digest)
        if shape is None:
            shape = self._shapes[handle.digest] = _Shape(handle)
        self._remember(shape.bindings, handle.counts, handle)
        self._remember(self._keys, key, (shape, handle.counts))
        return handle

    def _bind(self, shape: _Shape, rows: RowBinding, counts: CountBinding,
              verify):
        """Verify and compile a new count binding of a known shape."""
        template = shape.handle
        report = None
        if verify is not None:
            report = verify(substitute(template.template,
                                       template.slot_banks, rows, counts))
        handle = self._backend.bind(template, counts, report=report)
        self._remember(shape.bindings, counts, handle)
        return handle

    def _remember(self, store: OrderedDict, key, value) -> None:
        store[key] = value
        if len(store) > self._max_entries:
            store.popitem(last=False)
            self.evictions += 1
            get_metrics().counter("engine.cache.evictions").inc()
