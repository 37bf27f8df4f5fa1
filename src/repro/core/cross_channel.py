"""Cross-channel interference experiment (paper §6, future work 3).

HBM2 stacks DRAM dies, so certain channels sit physically on top of each
other.  The paper asks whether "frequently accessing one or more
aggressor channels can induce bitflips or worsen the reliability
characteristics of other victim channels" — a question with no published
answer.  This module implements the experiment that would answer it.

Design: a **differential measurement**.  The victim row (channel c_v) is
written and left unrefreshed for a fixed wall-clock duration twice:

* *control*: the stack is completely idle for the duration;
* *stressed*: the same wall-clock duration is spent continuously
  activating the same row index in the vertically adjacent channel
  (the wordline physically closest to the victim through the stack).

Any excess flips in the stressed run over the control run are
cross-channel disturbance; retention decay — which both runs experience
identically — cancels out.  On the default device profile (no modelled
inter-die coupling, consistent with the absence of published evidence)
the experiment reports no effect; profiles with hypothesised coupling
validate that the detector works.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bender.host import HostInterface
from repro.bender.program import ProgramBuilder
from repro.core.rowdata import byte_fill_bits, count_flips
from repro.dram.address import DramAddress, RowAddressMapper
from repro.errors import ExperimentError
from repro.verify.program import VerifyContext, assert_verified


@dataclass(frozen=True)
class CrossChannelOutcome:
    """Result of one differential cross-channel measurement."""

    victim: DramAddress
    aggressor_channel: int
    activations: int
    control_flips: int
    stressed_flips: int
    duration_s: float

    @property
    def excess_flips(self) -> int:
        return self.stressed_flips - self.control_flips

    @property
    def interference_detected(self) -> bool:
        return self.excess_flips > 0


class CrossChannelExperiment:
    """Differential aggressor-channel stress test."""

    def __init__(self, host: HostInterface, mapper: RowAddressMapper,
                 fill_byte: int = 0x00, verify: bool = True) -> None:
        self._host = host
        self._mapper = mapper
        self._fill_byte = fill_byte
        self._verify = verify

    def vertical_neighbor_channels(self, channel: int) -> list:
        """Channels stacked directly above/below ``channel``."""
        geometry = self._host.device.geometry
        step = geometry.channels_per_die
        return [candidate for candidate in (channel - step, channel + step)
                if 0 <= candidate < geometry.channels]

    def _measure(self, victim: DramAddress, aggressor_channel: int,
                 activations: int, stressed: bool) -> int:
        """One arm of the differential pair; returns victim flips."""
        host = self._host
        geometry = host.device.geometry
        timing = host.device.timing
        fill = bytes([self._fill_byte]) * geometry.row_bytes
        host.write_row(victim, fill)

        def build():
            builder = ProgramBuilder()
            if stressed:
                # Continuously toggle the same row index in the aggressor
                # channel — the wordline physically adjacent to the victim
                # through the stack.
                with builder.loop(activations):
                    builder.act(aggressor_channel, victim.pseudo_channel,
                                victim.bank, victim.row)
                    builder.pre(aggressor_channel, victim.pseudo_channel,
                                victim.bank)
            else:
                # Idle for exactly the duration the stress arm spends.
                builder.wait(activations * timing.rc_cycles)
            return builder.build()

        verify = None
        if self._verify:
            def verify(program):
                expected = {(aggressor_channel, victim.pseudo_channel,
                             victim.bank, victim.row): activations} \
                    if stressed else None
                # Both arms deliberately leave the victim unrefreshed for
                # the whole duration — decay is the experiment's common
                # mode.
                return assert_verified(
                    program,
                    VerifyContext.for_host(host, expected_hammers=expected,
                                           allow_retention_decay=True),
                    what="cross-channel stress program")
        host.cached_run(
            ("cross_channel", aggressor_channel, victim.pseudo_channel,
             victim.bank, activations, stressed),
            (victim.row,) if stressed else (), build, verify=verify)

        read_bits = host.read_row(victim)
        expected = byte_fill_bits(self._fill_byte, geometry.row_bytes)
        return count_flips(read_bits, expected)

    def run(self, victim: DramAddress, activations: int = 1_000_000,
            aggressor_channel: int = None) -> CrossChannelOutcome:
        """Run the differential pair against one victim row.

        Args:
            victim: the row watched for cross-channel flips.
            activations: aggressor-channel ACT count per arm.  Both arms
                last ``activations * tRC``, so retention decay cancels.
            aggressor_channel: defaults to the vertically adjacent
                channel below (or above, at the stack edge).
        """
        if activations <= 0:
            raise ExperimentError("activations must be positive")
        neighbors = self.vertical_neighbor_channels(victim.channel)
        if not neighbors:
            raise ExperimentError(
                f"channel {victim.channel} has no vertical neighbours")
        if aggressor_channel is None:
            aggressor_channel = neighbors[0]
        elif aggressor_channel not in neighbors:
            raise ExperimentError(
                f"channel {aggressor_channel} is not stacked adjacent to "
                f"channel {victim.channel} (candidates: {neighbors})")

        control = self._measure(victim, aggressor_channel, activations,
                                stressed=False)
        stressed = self._measure(victim, aggressor_channel, activations,
                                 stressed=True)
        timing = self._host.device.timing
        return CrossChannelOutcome(
            victim=victim, aggressor_channel=aggressor_channel,
            activations=activations, control_flips=control,
            stressed_flips=stressed,
            duration_s=timing.seconds(activations * timing.rc_cycles))
