"""Structured diagnostics for the static-analysis subsystem.

Every finding any analyzer produces is a :class:`Diagnostic` carrying a
stable code (``RP1xx`` filter-set semantics, ``RP2xx`` plugin hot-path
lint, ``RP4xx`` shard safety, ``RP5xx`` exec-codegen audit), a severity derived
from the code registry, the subject it is about (a filter, a plugin
method, a table), an optional source location, and a fix hint.  Codes
are API: tests and CI pin them, and suppression comments name them
(``# rp: ignore[RP201]``), so existing codes must never be renumbered.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: code -> (severity, short title).  The registry is the single source of
#: truth for severities; ``Diagnostic`` derives its severity from it.
CODES: Dict[str, Tuple[str, str]] = {
    # RP1xx — filter-set semantics (repro.analysis.filterset).
    "RP101": (ERROR, "shadowed filter (never matchable)"),
    "RP102": (WARNING, "redundant filter (covered with identical binding)"),
    "RP103": (ERROR, "conflicting bindings on identical filters"),
    "RP104": (WARNING, "ambiguous partial port overlap"),
    "RP105": (WARNING, "instance bound at multiple gates"),
    "RP106": (INFO, "unreachable DAG branch"),
    "RP107": (WARNING, "configuration script line failed"),
    # RP2xx — plugin hot-path lint (repro.analysis.hotpath).
    "RP201": (ERROR, "blocking I/O on the data path"),
    "RP202": (ERROR, "nondeterministic time/random source on the data path"),
    "RP203": (ERROR, "bare except swallows data-path faults"),
    "RP205": (ERROR, "packet-bytes touch without a cost-model charge"),
    "RP209": (ERROR, "process-seeded builtin hash() on packet/flow state"),
    "RP210": (WARNING, "suppression names an unknown diagnostic code"),
    "RP211": (WARNING, "zero-argument super() on a plugin's per-packet path"),
    # RP4xx — shard-safety / concurrency (repro.analysis.concurrency).
    "RP401": (ERROR, "module-global mutable state written from a data-path hook"),
    "RP402": (ERROR, "class-attribute state shared across instances mutated on the data path"),
    # RP5xx — exec-codegen audit (repro.analysis.codegen_audit).
    "RP501": (ERROR, "compiled loop references a name outside its allowlisted closure"),
    "RP505": (ERROR, "compiled lookup structure violates its shape invariants"),
}


def severity_of(code: str) -> str:
    try:
        return CODES[code][0]
    except KeyError as exc:
        raise ValueError(f"unknown diagnostic code {code!r}") from exc


def title_of(code: str) -> str:
    return CODES[code][1]


#: ``# rp: ignore`` or ``# rp: ignore[RP201]`` or ``# rp: ignore[RP201, RP205]``
_SUPPRESS_RE = re.compile(r"#\s*rp:\s*ignore(?:\[([A-Z0-9,\s]*)\])?")


def suppressed_codes(source_line: str) -> Optional[Set[str]]:
    """Codes suppressed by a ``# rp: ignore`` comment on a source line.

    Returns ``None`` when the line has no suppression comment, the empty
    set for a blanket ``# rp: ignore`` (suppress everything), and the
    named code set for the bracketed form.
    """
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    names = match.group(1)
    if names is None:
        return set()
    return {name.strip() for name in names.split(",") if name.strip()}


def is_suppressed(code: str, source_line: str) -> bool:
    codes = suppressed_codes(source_line)
    if codes is None:
        return False
    return not codes or code in codes


def unknown_suppressed_codes(source_line: str) -> Set[str]:
    """Codes a ``# rp: ignore[...]`` comment names that do not exist in
    the registry — a typo there silently fails to suppress anything, so
    the hot-path lint flags it (RP210)."""
    codes = suppressed_codes(source_line)
    if not codes:
        return set()
    return {code for code in codes if code not in CODES}


@dataclass
class Diagnostic:
    """One finding: a coded, located, actionable statement."""

    code: str
    message: str
    subject: Optional[str] = None     # filter id, plugin.method, table name
    file: Optional[str] = None
    line: Optional[int] = None
    hint: Optional[str] = None
    severity: str = field(init=False)

    def __post_init__(self) -> None:
        self.severity = severity_of(self.code)

    def location(self) -> str:
        if self.file is None:
            return self.subject or "<filter table>"
        where = self.file if self.line is None else f"{self.file}:{self.line}"
        return f"{where} ({self.subject})" if self.subject else where

    def render(self) -> str:
        text = f"{self.code} {self.severity}: {self.message} [{self.location()}]"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "title": title_of(self.code),
            "message": self.message,
            "subject": self.subject,
            "file": self.file,
            "line": self.line,
            "hint": self.hint,
        }


class AnalysisReport:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: Optional[Iterable[Diagnostic]] = None):
        self.diagnostics: List[Diagnostic] = list(diagnostics or ())

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {ERROR: 0, WARNING: 0, INFO: 0}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity] += 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"{len(self.diagnostics)} findings "
            f"({counts[ERROR]} errors, {counts[WARNING]} warnings, "
            f"{counts[INFO]} info)"
        )

    def render(self) -> List[str]:
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return lines

    def to_dict(self) -> Dict[str, object]:
        return {
            "findings": [d.to_dict() for d in self.diagnostics],
            "counts": self.counts(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return f"AnalysisReport({self.summary()})"
