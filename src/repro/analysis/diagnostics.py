"""Structured diagnostics for static analysis (model + code).

Every check in :mod:`repro.analysis` reports its findings as
:class:`Diagnostic` records with a *stable code* (``HW002``, ``DET001``,
...) and a severity, so that tooling — the ``lint-model`` / ``lint-code``
CLI subcommands, CI, tests — can match on codes instead of message text.

The full code table lives in :data:`DIAGNOSTIC_CODES`; the README mirrors
it for humans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: code -> (default severity, one-line meaning).  Codes are stable public
#: API: tests and CI match on them, so never renumber — add new ones.
DIAGNOSTIC_CODES: dict[str, tuple[Severity, str]] = {
    # -- HW-graph artifact checks (repro.analysis.validate) -----------------
    "HW001": (Severity.ERROR,
              "dangling reference: a PARENT/BEFORE edge or key membership "
              "points at a group or Intel Key that does not exist"),
    "HW002": (Severity.ERROR,
              "cycle in the BEFORE relation between sibling groups"),
    "HW003": (Severity.ERROR,
              "PARENT relation is not a forest (parent/children mismatch, "
              "duplicate child entry, or parent-pointer cycle)"),
    "HW004": (Severity.WARNING,
              "lifespan of a child group is not contained in its parent "
              "(relation matrix does not support the assigned PARENT)"),
    "HW005": (Severity.ERROR,
              "subroutine references a log key absent from its group"),
    "HW006": (Severity.WARNING,
              "critical key unreachable from any root of the hierarchy"),
    "IK001": (Severity.ERROR,
              "identifier/value slot mismatch in an Intel Key (field "
              "position duplicated, out of range, or unnamed)"),
    "SR001": (Severity.ERROR,
              "empty or non-deterministic subroutine signature"),
    "RT001": (Severity.ERROR,
              "serialization round-trip mismatch: to_dict -> from_dict -> "
              "to_dict did not reproduce the artifact"),
    # -- codebase lint (repro.analysis.astlint) -----------------------------
    "DET001": (Severity.ERROR,
               "unseeded np.random.default_rng() or stdlib random module "
               "use (breaks simulator determinism)"),
    "DET002": (Severity.ERROR,
               "wall-clock time source (time.time / datetime.now / ...) in "
               "library code (breaks replay determinism)"),
    "DET003": (Severity.ERROR,
               "iteration over a set/frozenset expression (or, in "
               "detection and graph, a set-annotated attribute) in an "
               "order-sensitive context (order varies with "
               "PYTHONHASHSEED; sort first)"),
    "PY001": (Severity.ERROR,
              "mutable default argument (list/dict/set literal or call)"),
    "PY002": (Severity.ERROR,
              "bare 'except:' or 'except Exception: pass' swallowing "
              "errors"),
    # -- concurrency analysis (repro.analysis.concurrency) ------------------
    "RACE001": (Severity.ERROR,
                "unguarded write to an attribute that is lock-guarded "
                "elsewhere in the same class (data race on a "
                "thread-shared object)"),
    "RACE002": (Severity.ERROR,
                "lock-order cycle in the acquisition graph, or a "
                "non-reentrant lock re-acquired while held (potential "
                "deadlock)"),
    "RACE003": (Severity.ERROR,
                "fork-unsafe capture: an object holding a lock, open "
                "file, socket or metrics registry is shipped into a "
                "ProcessPoolExecutor worker"),
    "RACE004": (Severity.WARNING,
                "publication after handoff: an object is mutated after "
                "being handed to another thread, queue or executor"),
    "RACE005": (Severity.ERROR,
                "blocking call (sleep, file/socket IO, subprocess) "
                "while holding a lock"),
    # -- suppression pragmas (repro.analysis.suppress) ----------------------
    "SUP001": (Severity.ERROR,
               "unknown or malformed code in a '# repro: allow=' "
               "suppression pragma"),
    "SUP002": (Severity.ERROR,
               "suppression pragma without an inline justification"),
}


def default_severity(code: str) -> Severity:
    """Severity registered for ``code`` (ERROR for unknown codes)."""
    entry = DIAGNOSTIC_CODES.get(code)
    return entry[0] if entry else Severity.ERROR


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of a static check.

    ``subject`` names the artifact element (group label, key id, signature)
    or, for code lint, the offending symbol; ``location`` is free-form
    ("group 'fetcher'", "file.py:12").
    """

    code: str
    message: str
    severity: Severity
    subject: str = ""
    location: str = ""

    @classmethod
    def make(cls, code: str, message: str, *, subject: str = "",
             location: str = "",
             severity: Severity | None = None) -> "Diagnostic":
        return cls(
            code=code,
            message=message,
            severity=severity if severity is not None
            else default_severity(code),
            subject=subject,
            location=location,
        )

    def render(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"{where}{self.code} [{self.severity}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "location": self.location,
        }


@dataclass(slots=True)
class DiagnosticReport:
    """An ordered collection of diagnostics with convenience queries."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, code: str, message: str, *, subject: str = "",
            location: str = "",
            severity: Severity | None = None) -> Diagnostic:
        diag = Diagnostic.make(
            code, message, subject=subject, location=location,
            severity=severity,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def with_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def summary(self) -> str:
        if not self.diagnostics:
            return "0 diagnostics"
        by_sev: dict[Severity, int] = {}
        for diag in self.diagnostics:
            by_sev[diag.severity] = by_sev.get(diag.severity, 0) + 1
        parts = ", ".join(
            f"{count} {sev}{'s' if count != 1 else ''}"
            for sev, count in sorted(by_sev.items(), reverse=True)
        )
        return f"{len(self.diagnostics)} diagnostics ({parts})"

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)

    def to_dict(self) -> dict[str, Any]:
        return {
            "summary": self.summary(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
