"""Semantic exception hierarchy and the check clause, shared by all modules.

Exit-code mapping used by the CLI: parse problems exit 2, scope problems
exit 3, a surfaced contradiction of a verified inequality exits 4.

``CheckResult`` lives in this bottom module so that every module builds the
check clauses on its own data; reports only print them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """One check clause. It fails when its slack is not finite: NaN or an
    infinity means the quantity it bounds was never computed as a number."""

    name: str
    passed: bool
    slack: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed) and math.isfinite(self.slack))


class OrliczAlgebraError(Exception):
    """Base error for this package."""


class SpecFormatError(OrliczAlgebraError, ValueError):
    """Malformed structured-text input (bad JSON, unknown keys, wrong types)."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ScopeError(OrliczAlgebraError):
    """Input is outside the supported scope (e.g. a finite-group-only check
    applied to an integer window, or a nonabelian group fed to the character
    enumerator)."""


class CapExceededError(OrliczAlgebraError, OverflowError):
    """Evaluation past the numeric domain cap of an N-function."""


class InvalidNFunctionError(OrliczAlgebraError, ValueError):
    """Candidate function fails the N-function axioms (convexity, limits,
    strict monotonicity)."""


class InfeasibleWindowError(OrliczAlgebraError):
    """The window is too small to carry out a construction; carries the
    estimated minimal radius when one is known."""

    def __init__(self, message: str, *, minimal_radius: int | None = None):
        super().__init__(message)
        self.minimal_radius = minimal_radius


class TheoremContradictionError(OrliczAlgebraError):
    """A machine-checked inequality that must hold was violated. Never
    swallowed: the CLI surfaces this with a full state dump and exit code 4."""

    def __init__(self, message: str, state: dict | None = None):
        super().__init__(message)
        self.state = state or {}
