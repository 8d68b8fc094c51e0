"""Uniform result records for theorem and lemma checks.

Every verifier returns a CheckReport.  Three statuses only: "pass",
"fail", and "precondition-unmet".  The last one marks instances the
statement does not speak about (hypotheses not satisfied); it never
counts against a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckReport", "PASS", "FAIL", "UNMET", "passed", "failed", "unmet"]

PASS = "pass"
FAIL = "fail"
UNMET = "precondition-unmet"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check on one instance.

    witness is a tuple of (name, value) pairs pinning down a concrete
    counterexample; failing checks and unmet preconditions may carry
    one, passing checks never do.  detail is free-form context (which
    hypothesis was unmet, which stage failed).
    """

    check: str
    status: str
    witness: tuple[tuple[str, int], ...] | None = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, UNMET):
            raise ValueError(f"unknown status {self.status!r}")
        if self.witness is not None and self.status == PASS:
            raise ValueError("a passing check carries no witness")

    @property
    def ok(self) -> bool:
        """True unless the check actually failed."""
        return self.status != FAIL

    def record(self) -> str:
        """One-line machine-stable rendering.

        Field order is fixed so records can be compared byte for byte
        across runs and across process counts.
        """
        if self.witness is None:
            w = "-"
        else:
            w = ",".join(f"{k}={v}" for k, v in self.witness)
        line = f"check={self.check} status={self.status} witness={w}"
        if self.detail:
            line += f" detail={self.detail}"
        return line


def _report(check: str, status: str, witness, detail: str) -> CheckReport:
    # The factories below build a valid report by construction, so they
    # skip the dataclass __init__ and __post_init__, which cost about
    # three times as much as this on the sweep's half a million reports.
    rep = object.__new__(CheckReport)
    fields = rep.__dict__
    fields["check"] = check
    fields["status"] = status
    fields["witness"] = witness
    fields["detail"] = detail
    return rep


def passed(check: str, detail: str = "") -> CheckReport:
    return _report(check, PASS, None, detail)


def failed(
    check: str,
    witness: tuple[tuple[str, int], ...] | None,
    detail: str = "",
) -> CheckReport:
    return _report(check, FAIL, None if witness is None else tuple(witness), detail)


def unmet(
    check: str, detail: str, witness: tuple[tuple[str, int], ...] | None = None
) -> CheckReport:
    return _report(check, UNMET, witness, detail)
