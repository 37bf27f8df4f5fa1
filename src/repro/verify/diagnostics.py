"""Typed diagnostics shared by the program verifier and source lint.

Every analyzer in :mod:`repro.verify` reports :class:`Diagnostic`
objects collected into a :class:`VerificationReport`.  The report maps
onto the CLI exit-code contract (``repro lint ...``):

====  =========================================
0     clean — no diagnostics
1     warnings only
2     at least one violation
====  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# -- diagnostic kinds (program verifier) -------------------------------
#: A command issues before its earliest timing-legal cycle.
TIMING_VIOLATION = "TimingViolation"
#: A command is illegal in the abstract bank state (ACT on an open bank,
#: RD/WR against a closed row, REF with a bank open, ...).
PROTOCOL_VIOLATION = "ProtocolViolation"
#: A pseudo channel the program hammers goes longer than tREFW without
#: a REF, so retention decay can contaminate the measurement.
REFRESH_STARVATION = "RefreshStarvation"
#: Counted ACTs per aggressor row disagree with the declared hammer
#: count, silently mis-attributing BER / HC_first.
HAMMER_COUNT_MISMATCH = "HammerCountMismatch"
#: REF cadence gives the on-die TRR sampler (one victim refresh every 17
#: REFs, paper Sec. 5) enough firing opportunities to rescue victims in
#: a program that assumes TRR is escaped.
TRR_WINDOW_WARNING = "TrrWindowWarning"
#: The abstract interpreter hit its step budget before the program end;
#: later instructions were not analyzed.
ANALYSIS_TRUNCATED = "AnalysisTruncated"

# -- severities --------------------------------------------------------
SEVERITY_WARNING = "warning"
SEVERITY_VIOLATION = "violation"

#: Default severity per diagnostic kind (source-lint rules DET001..DET003
#: register theirs in :mod:`repro.verify.determinism`).
KIND_SEVERITIES = {
    TIMING_VIOLATION: SEVERITY_VIOLATION,
    PROTOCOL_VIOLATION: SEVERITY_VIOLATION,
    REFRESH_STARVATION: SEVERITY_VIOLATION,
    HAMMER_COUNT_MISMATCH: SEVERITY_VIOLATION,
    TRR_WINDOW_WARNING: SEVERITY_WARNING,
    ANALYSIS_TRUNCATED: SEVERITY_WARNING,
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analyzer.

    Attributes:
        kind: diagnostic type (one of the module constants, or a
            ``DETxxx`` rule id from the determinism lint).
        severity: ``"warning"`` or ``"violation"``.
        message: human-readable description.
        location: where the finding anchors — an instruction path like
            ``instructions[2].body[0]`` for programs, ``file:line:col``
            for source files.
        constraint: JEDEC constraint name for timing findings (``tRAS``,
            ``tFAW``, ...), else None.
    """

    kind: str
    severity: str
    message: str
    location: str = ""
    constraint: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
        }
        if self.constraint is not None:
            data["constraint"] = self.constraint
        return data

    def render(self) -> str:
        prefix = f"{self.location}: " if self.location else ""
        constraint = f" [{self.constraint}]" if self.constraint else ""
        return f"{prefix}{self.severity}: {self.kind}{constraint}: " \
               f"{self.message}"


@dataclass
class VerificationReport:
    """All diagnostics of one analysis run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Scheduled program duration in interface cycles, as the abstract
    #: interpreter computed it (None for source lint or truncated runs).
    duration_cycles: Optional[int] = None
    #: The :class:`~repro.verify.program.VerifyContext` a program
    #: report was made under (None for source lint).
    context: Optional[object] = field(default=None, compare=False,
                                      repr=False)

    @property
    def violations(self) -> List[Diagnostic]:
        return [diagnostic for diagnostic in self.diagnostics
                if diagnostic.severity == SEVERITY_VIOLATION]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [diagnostic for diagnostic in self.diagnostics
                if diagnostic.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing (not even a warning) was reported."""
        return not self.diagnostics

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 warnings only, 2 violations."""
        if self.violations:
            return 2
        if self.warnings:
            return 1
        return 0

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "diagnostics": [diagnostic.to_dict()
                            for diagnostic in self.diagnostics],
            "summary": {
                "violations": len(self.violations),
                "warnings": len(self.warnings),
            },
            "exit_code": self.exit_code,
        }
        if self.duration_cycles is not None:
            data["duration_cycles"] = self.duration_cycles
        return data

    def render(self) -> str:
        if self.ok:
            return "clean: no diagnostics"
        lines = [diagnostic.render() for diagnostic in self.diagnostics]
        lines.append(f"{len(self.violations)} violation(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines)
