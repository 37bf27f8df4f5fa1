"""RowPress sensitivity experiments (the paper's §6 future work).

The paper plans to study "the time an aggressor row remains active" and
the RowPress effect [Luo+ ISCA'23]: holding an aggressor row open beyond
the minimum tRAS amplifies the disturbance each activation inflicts, so
the hammer count to the first bitflip drops — by an order of magnitude
at aggressor-on times in the microseconds.

:class:`RowPressExperiment` sweeps the aggressor-on time: each test
builds a double-sided pattern whose loop body holds every aggressor open
for ``t_aggon`` before precharging::

    LOOP N { ACT a1; WAIT t_aggon; PRE; ACT a2; WAIT t_aggon; PRE }

and measures flips or HC_first.  Because longer-open iterations are also
slower, results report both the hammer count and the *time* to first
flip — RowPress's headline is that the bits/second disturbance rate
still rises.

Note on retention: at microsecond aggressor-on times a fixed hammer
count can exceed the 27 ms retention-safe window (e.g. 40K hammers at
tAggON ~7 us take ~0.5 s).  Flip counts then include a small retention
component — the same contamination real RowPress experiments manage by
bounding tAggON or the hammer count; HC_first searches are unaffected
because their near-threshold probes are short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bender.host import HostInterface
from repro.bender.program import Program, ProgramBuilder
from repro.core.hammer import prepare_neighborhood
from repro.core.patterns import DataPattern, ROWSTRIPE0
from repro.core.rowdata import byte_fill_bits, flip_report
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError
from repro.verify.program import VerifyContext, assert_verified


@dataclass(frozen=True)
class RowPressPoint:
    """One sweep point: behaviour at a given aggressor-on time."""

    aggressor_on_cycles: int
    hammer_count: int
    flips: int
    duration_s: float

    @property
    def flips_per_second(self) -> float:
        if self.duration_s == 0.0:
            return 0.0
        return self.flips / self.duration_s


def build_rowpress_program(victim: DramAddress,
                           aggressor_rows: Sequence[int],
                           hammer_count: int,
                           extra_open_cycles: int) -> Program:
    """Double-sided hammer program with extended aggressor-on time.

    ``extra_open_cycles`` of WAIT are inserted between each ACT and its
    PRE; 0 reduces to the standard hammer kernel.
    """
    if hammer_count < 0:
        raise ExperimentError("hammer_count must be >= 0")
    if extra_open_cycles < 0:
        raise ExperimentError("extra_open_cycles must be >= 0")
    if not aggressor_rows:
        raise ExperimentError("need at least one aggressor row")
    builder = ProgramBuilder()
    if hammer_count > 0:
        with builder.loop(hammer_count):
            for row in aggressor_rows:
                builder.act(victim.channel, victim.pseudo_channel,
                            victim.bank, row)
                if extra_open_cycles:
                    builder.wait(extra_open_cycles)
                builder.pre(victim.channel, victim.pseudo_channel,
                            victim.bank)
    return builder.build()


class RowPressExperiment:
    """Sweeps aggressor-on time at a fixed hammer count."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 pattern: DataPattern = ROWSTRIPE0,
                 verify: bool = True) -> None:
        self._host = host
        self._mapper = mapper
        self._pattern = pattern
        self._verify = verify

    def run_point(self, victim: DramAddress, hammer_count: int,
                  extra_open_cycles: int) -> RowPressPoint:
        """Hammer with a given extra open time; returns the flip count."""
        host = self._host
        geometry = host.device.geometry
        prepare_neighborhood(host, self._mapper, victim, self._pattern)
        aggressors = list(self._mapper.physical_neighbors(victim.row))
        if len(aggressors) < 2:
            raise ExperimentError(
                f"victim {victim} lacks two physical neighbours")
        verify = None
        if self._verify:
            def verify(program: Program):
                expected = {(victim.channel, victim.pseudo_channel,
                             victim.bank, row): hammer_count
                            for row in aggressors}
                # Long aggressor-on times deliberately run past tREFW
                # (the module docstring's retention note), so decay is
                # allowed.
                return assert_verified(
                    program,
                    VerifyContext.for_host(host, expected_hammers=expected,
                                           allow_retention_decay=True),
                    what=f"RowPress program for {victim}")
        execution = host.cached_run(
            ("rowpress", victim.channel, victim.pseudo_channel, victim.bank,
             len(aggressors), hammer_count, extra_open_cycles),
            tuple(aggressors) if hammer_count else (),
            lambda: build_rowpress_program(victim, aggressors, hammer_count,
                                           extra_open_cycles),
            verify=verify)
        read_bits = host.read_row(victim)
        expected = byte_fill_bits(self._pattern.victim_byte,
                                  geometry.row_bytes)
        report = flip_report(read_bits, expected)
        return RowPressPoint(
            aggressor_on_cycles=(host.device.timing.ras_cycles +
                                 extra_open_cycles),
            hammer_count=hammer_count,
            flips=report.flips,
            duration_s=host.device.timing.seconds(
                execution.duration_cycles))

    def sweep(self, victim: DramAddress, hammer_count: int,
              extra_open_cycles: Sequence[int]) -> List[RowPressPoint]:
        """One point per aggressor-on time, same hammer count."""
        return [self.run_point(victim, hammer_count, extra)
                for extra in extra_open_cycles]

    def first_flip_hammers(self, victim: DramAddress,
                           extra_open_cycles: int,
                           max_hammers: int = 256 * 1024,
                           start: int = 512) -> Optional[int]:
        """HC_first under extended aggressor-on time (None if censored).

        Exponential ramp + bisection, as in
        :class:`~repro.core.hcfirst.HcFirstSearch`, but with RowPress
        kernels.
        """
        def flips_at(count: int) -> int:
            return self.run_point(victim, count, extra_open_cycles).flips

        if flips_at(max_hammers) == 0:
            return None
        low, high = 0, max_hammers
        probe = min(start, max_hammers)
        while probe < max_hammers:
            if flips_at(probe) > 0:
                high = probe
                break
            low = probe
            probe *= 2
        while high - low > 1:
            middle = (low + high) // 2
            if flips_at(middle) > 0:
                high = middle
            else:
                low = middle
        return high
