"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class GraphRestrictError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GraphRestrictError):
    """Malformed or out-of-contract input (bad file, bad point, wrong verdict)."""


class ParseError(InputError):
    """Text input failed to parse; carries line/column information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class CapacityError(GraphRestrictError):
    """A configured cap was exceeded; the message names the cap."""

    def __init__(self, cap_name: str, cap_value: int, needed: int | str):
        super().__init__(f"cap '{cap_name}' = {cap_value} exceeded (needed {needed})")
        self.cap_name = cap_name
        self.cap_value = cap_value


class ValidationError(GraphRestrictError):
    """A structural check on a built object failed; the message names the check."""

    def __init__(self, check: str, detail: str = ""):
        super().__init__(f"validation failed: {check}" + (f": {detail}" if detail else ""))
        self.check = check


class TheoryViolationError(GraphRestrictError):
    """A condition that is mathematically forced by earlier verified checks
    failed anyway.  This always indicates a bug, never an input condition."""


class CompletionSearchError(GraphRestrictError):
    """The completion search exhausted its caps.

    Carries the full attempt log so callers can render a structured failure
    report instead of a silent fallback.
    """

    def __init__(self, attempts):
        self.attempts = list(attempts)
        lines = [f"completion search exhausted after {len(self.attempts)} attempts:"]
        for rec in self.attempts:
            lines.append("  " + rec.describe())
        super().__init__("\n".join(lines))
