"""Deterministic fault schedules for campaign-resilience testing.

Real bring-up on DRAM Bender-class testers is dominated by
infrastructure hiccups — flaky PCIe links, hung workers, thermal
excursions past the PID envelope — and the paper's methodology only
holds because campaigns survive them.  This module makes those faults
*first-class and reproducible*: a :class:`FaultSpec` names per-category
fault rates, and a :class:`FaultPlan` turns the spec into a seeded,
deterministic schedule using the same keyed counter-based RNG idiom as
the device model (:mod:`repro.rng`) — every fault decision is a pure
function of ``(fault seed, entity path)``, so the same seed produces
the same fault schedule regardless of process count, shard order, or
resume point.

Fault categories:

* **link** (uplink/downlink of the PCIe hop, per transfer index):
  ``corrupt`` mangles the wire text, ``drop`` loses the transfer,
  ``duplicate`` re-sends it (billing twice), ``stall`` adds latency;
  downlink faults poison the readback copy.
* **shard** (per worker attempt, keyed by shard coordinates + attempt
  number so injected failures are transient and retries can succeed):
  ``crash`` kills the worker process, ``hang`` stalls it past the
  shard timeout, ``error`` raises inside the worker, ``poison``
  corrupts the shard's readback (detected by the parent's integrity
  check).
* **thermal** (per measured cell, keyed by physical coordinates so the
  schedule is identical under any sharding): a setpoint excursion of
  ``drift_c`` degC beyond the PID envelope.
* **process** (per worker attempt, same key as shard faults):
  ``worker_sigkill`` delivers a raw SIGKILL inside a pool worker — the
  ungraceful death the crash-recovery layer must survive.  Only fires
  inside pool worker processes, never inline.
* **io** (per durable-artifact write, keyed on (artifact kind, file
  name, per-name write index)): ``torn_write`` truncates the artifact
  at a seeded offset, ``bitflip`` flips one seeded bit, ``enospc``
  simulates a full volume (the write raises
  :class:`~repro.errors.DiskSpaceError` before any bytes land).
  Applied by :mod:`repro.durable`; detected by its checksummed
  envelopes on read-back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple

from repro.envutil import env_str
from repro.errors import ConfigurationError
from repro.rng import uniform_hash01

__all__ = ["FaultSpec", "FaultPlan", "IO_CATEGORIES", "LINK_CATEGORIES",
           "PROCESS_CATEGORIES", "SHARD_CATEGORIES"]

#: Link fault categories, in the (fixed) order they are drawn.
LINK_CATEGORIES = ("drop", "corrupt", "duplicate", "stall")

#: Shard fault categories, in the (fixed) order they are drawn.
#: ``poison`` is drawn separately (it applies after the measurement).
SHARD_CATEGORIES = ("crash", "hang", "error")

#: Process fault categories (ungraceful worker death).
PROCESS_CATEGORIES = ("sigkill",)

#: IO fault categories, in the (fixed) order they are drawn per write.
#: ``enospc`` ranks first: a full disk pre-empts the write entirely,
#: so torn/bit-flipped outcomes only occur on writes that proceed.
IO_CATEGORIES = ("enospc", "torn_write", "bitflip")

#: Domain tag separating fault draws from every device-property stream.
_DOMAIN = "faults.v1"

#: Environment variable holding a global low-rate fault plan (the CI
#: chaos job sets it); consulted wherever no explicit spec is given.
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """Rates and magnitudes of every injectable fault category.

    All rates are probabilities in [0, 1] applied per opportunity
    (per transfer, per shard attempt, per measured cell).  A
    default-constructed spec injects nothing.  Frozen and picklable so
    it can ride inside :class:`~repro.core.sweeps.SweepConfig` and
    :class:`~repro.bender.board.BoardSpec` across process boundaries.
    """

    seed: int = 0
    #: Uplink corruption: the wire text arrives unparseable board-side.
    link_corrupt: float = 0.0
    #: Uplink drop: the transfer is lost (detected as a send timeout).
    link_drop: float = 0.0
    #: Duplicate transfer: payload is sent twice (accounting only).
    link_duplicate: float = 0.0
    #: Link stall: the transfer pays ``stall_s`` extra link time.
    link_stall: float = 0.0
    stall_s: float = 0.005
    #: Downlink poison: the readback copy arrives bit-corrupted.
    link_poison: float = 0.0
    #: Worker crash: the shard's process dies (``os._exit``); run
    #: inline, the attempt fails as a ``crash`` fault instead.
    shard_crash: float = 0.0
    #: Worker hang: the shard stalls ``hang_s`` seconds before running.
    shard_hang: float = 0.0
    hang_s: float = 30.0
    #: Worker error: the shard raises a :class:`~repro.errors.ShardFault`.
    shard_error: float = 0.0
    #: Shard readback poison: one record is corrupted after measurement
    #: (caught by the parent's integrity fingerprint check).
    shard_poison: float = 0.0
    #: Worker SIGKILL: the shard's pool worker dies by raw signal
    #: (never fires inline — see :func:`repro.faults.inject.injure_worker`).
    worker_sigkill: float = 0.0
    #: Torn artifact write: a durable artifact is truncated at a seeded
    #: offset, as if the writer died mid-write on a non-atomic store.
    io_torn_write: float = 0.0
    #: Artifact bit-flip: one seeded bit of a written artifact flips,
    #: as if the medium rotted under it.
    io_bitflip: float = 0.0
    #: Simulated ENOSPC: an artifact write fails cleanly with
    #: :class:`~repro.errors.DiskSpaceError` before any bytes land.
    io_enospc: float = 0.0
    #: Thermal excursion: the plant drifts ``drift_c`` degC mid-campaign.
    thermal_drift: float = 0.0
    drift_c: float = 2.0
    #: Out-of-envelope policy: ``"resettle"`` re-runs the rig to the
    #: target before measuring (measurements stay fault-free);
    #: ``"flag"`` measures at the drifted temperature and tags the rows.
    thermal_policy: str = "resettle"

    _RATE_FIELDS = ("link_corrupt", "link_drop", "link_duplicate",
                    "link_stall", "link_poison", "shard_crash",
                    "shard_hang", "shard_error", "shard_poison",
                    "worker_sigkill", "io_torn_write", "io_bitflip",
                    "io_enospc", "thermal_drift")

    def __post_init__(self) -> None:
        for name in self._RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name} must be in [0, 1], got {rate}")
        if self.stall_s < 0:
            raise ConfigurationError("stall_s must be >= 0")
        if self.hang_s <= 0:
            raise ConfigurationError("hang_s must be positive")
        if self.thermal_policy not in ("resettle", "flag"):
            raise ConfigurationError(
                f"thermal_policy must be 'resettle' or 'flag', "
                f"got {self.thermal_policy!r}")

    # -- category summaries --------------------------------------------
    @property
    def has_link_faults(self) -> bool:
        return any(getattr(self, name) > 0 for name in
                   ("link_corrupt", "link_drop", "link_duplicate",
                    "link_stall", "link_poison"))

    @property
    def has_shard_faults(self) -> bool:
        return any(getattr(self, name) > 0 for name in
                   ("shard_crash", "shard_hang", "shard_error",
                    "shard_poison"))

    @property
    def has_thermal_faults(self) -> bool:
        return self.thermal_drift > 0

    @property
    def has_process_faults(self) -> bool:
        return self.worker_sigkill > 0

    @property
    def has_io_faults(self) -> bool:
        return any(getattr(self, f"io_{name}") > 0
                   for name in ("torn_write", "bitflip", "enospc"))

    @property
    def any_faults(self) -> bool:
        return (self.has_link_faults or self.has_shard_faults
                or self.has_thermal_faults or self.has_process_faults
                or self.has_io_faults)

    # -- construction ---------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from ``key=value,key=value`` text or a JSON file.

        ``text`` naming an existing file (or prefixed with ``@``) is
        read as a JSON object of field values; otherwise it is parsed
        as a comma-separated assignment list, e.g.
        ``"seed=7,link_corrupt=0.01,shard_error=0.02"``.
        """
        text = text.strip()
        if text.startswith("@") or os.path.isfile(text):
            path = Path(text[1:] if text.startswith("@") else text)
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise ConfigurationError(
                    f"cannot read fault spec file {path}: {error}"
                ) from error
            return cls.from_dict(payload)
        values = {}
        for item in filter(None, (part.strip()
                                  for part in text.split(","))):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigurationError(
                    f"fault spec item {item!r} is not key=value")
            values[key.strip()] = value.strip()
        return cls.from_dict(values)

    @classmethod
    def from_dict(cls, values: dict) -> "FaultSpec":
        """Build a spec from a mapping of field names to values."""
        known = {field.name: field.type for field in fields(cls)
                 if not field.name.startswith("_")}
        kwargs = {}
        for key, value in values.items():
            if key not in known:
                raise ConfigurationError(
                    f"unknown fault spec field {key!r} "
                    f"(known: {', '.join(sorted(known))})")
            if key == "thermal_policy":
                kwargs[key] = str(value)
            elif key in ("seed",):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultSpec"]:
        """The global fault plan from ``$REPRO_FAULTS``, if set.

        The hook the CI chaos job uses: exporting a low-rate spec makes
        every sweep in the process inject (and survive) faults without
        touching any call site.
        """
        raw = env_str(ENV_VAR)
        if raw is None:
            return None
        return cls.parse(raw)

    def with_overrides(self, **overrides) -> "FaultSpec":
        return replace(self, **overrides)

    def describe(self) -> str:
        """Compact one-line rendering of the nonzero rates."""
        parts = [f"seed={self.seed}"]
        parts.extend(f"{name}={getattr(self, name):g}"
                     for name in self._RATE_FIELDS
                     if getattr(self, name) > 0)
        return ",".join(parts)


def resolve_fault_spec(explicit: Optional[FaultSpec]) -> Optional[FaultSpec]:
    """``explicit`` if given, else the ``$REPRO_FAULTS`` plan (or None)."""
    if explicit is not None:
        return explicit if explicit.any_faults else None
    return FaultSpec.from_env()


class FaultPlan:
    """A seeded, deterministic fault schedule over a campaign.

    Every decision is a pure hash of ``(spec.seed, entity path)``:

    * link faults key on the transport's transfer index,
    * shard faults key on (channel, pseudo channel, bank, region,
      attempt) — the attempt component makes injected failures
      *transient*, so a retried shard redraws its fate,
    * thermal excursions key on the physical cell coordinates, making
      the schedule independent of sharding and resume points.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def _draw(self, *path) -> float:
        return uniform_hash01(self.spec.seed, (_DOMAIN,) + path)

    # ------------------------------------------------------------------
    def link_fault(self, transfer_index: int) -> Optional[str]:
        """The uplink fault for one transfer (first matching category)."""
        for category in ("drop", "corrupt"):
            rate = getattr(self.spec, f"link_{category}")
            if rate and self._draw("link", category, transfer_index) < rate:
                return category
        return None

    def link_effects(self, transfer_index: int) -> Tuple[str, ...]:
        """Non-fatal link effects (duplicate/stall) for one transfer."""
        effects = []
        for category in ("duplicate", "stall"):
            rate = getattr(self.spec, f"link_{category}")
            if rate and self._draw("link", category, transfer_index) < rate:
                effects.append(category)
        return tuple(effects)

    def readback_poisoned(self, transfer_index: int) -> bool:
        """Whether one downlink readback arrives bit-corrupted."""
        rate = self.spec.link_poison
        return bool(rate and self._draw("link", "poison",
                                        transfer_index) < rate)

    # ------------------------------------------------------------------
    def shard_fault(self, channel: int, pseudo_channel: int, bank: int,
                    region: str, attempt: int) -> Optional[str]:
        """The injury (if any) for one shard execution attempt."""
        for category in SHARD_CATEGORIES:
            rate = getattr(self.spec, f"shard_{category}")
            if rate and self._draw("shard", category, channel,
                                   pseudo_channel, bank, region,
                                   attempt) < rate:
                return category
        return None

    def shard_poisoned(self, channel: int, pseudo_channel: int, bank: int,
                       region: str, attempt: int) -> bool:
        """Whether one shard attempt's readback is poisoned."""
        rate = self.spec.shard_poison
        return bool(rate and self._draw("shard", "poison", channel,
                                        pseudo_channel, bank, region,
                                        attempt) < rate)

    # ------------------------------------------------------------------
    def worker_kill(self, channel: int, pseudo_channel: int, bank: int,
                    region: str, attempt: int) -> bool:
        """Whether one pool-worker attempt dies by SIGKILL at entry."""
        rate = self.spec.worker_sigkill
        return bool(rate and self._draw("process", "sigkill", channel,
                                        pseudo_channel, bank, region,
                                        attempt) < rate)

    # ------------------------------------------------------------------
    def io_fault(self, kind: str, name: str,
                 write_index: int) -> Optional[str]:
        """The IO fault (if any) for one durable-artifact write.

        Keyed on (artifact kind, file name, per-name write index) so the
        schedule is a pure function of *which write this is* — identical
        across process counts, resume points, and directory layouts.
        """
        for category in IO_CATEGORIES:
            rate = getattr(self.spec, f"io_{category}")
            if rate and self._draw("io", category, kind, name,
                                   write_index) < rate:
                return category
        return None

    def torn_offset(self, size: int, kind: str, name: str,
                    write_index: int) -> int:
        """The seeded truncation point for one torn write, in [1, size)."""
        if size <= 1:
            return 0
        fraction = self._draw("io", "torn_offset", kind, name, write_index)
        return max(1, min(size - 1, int(size * fraction)))

    def bitflip_site(self, size: int, kind: str, name: str,
                     write_index: int) -> Tuple[int, int]:
        """The seeded (byte offset, bit index) for one artifact bit-flip."""
        byte = int(self._draw("io", "flip_byte", kind, name,
                              write_index) * size)
        bit = int(self._draw("io", "flip_bit", kind, name,
                             write_index) * 8)
        return min(byte, size - 1), min(bit, 7)

    # ------------------------------------------------------------------
    def thermal_excursion(self, channel: int, pseudo_channel: int,
                          bank: int, row: int) -> Optional[float]:
        """The excursion (drift in degC) before measuring one cell."""
        rate = self.spec.thermal_drift
        if rate and self._draw("thermal", channel, pseudo_channel,
                               bank, row) < rate:
            return self.spec.drift_c
        return None

    # ------------------------------------------------------------------
    def jitter(self, *path) -> float:
        """A deterministic uniform(0, 1) jitter draw for backoff delays."""
        return self._draw("jitter", *path)
