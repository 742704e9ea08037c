"""Shared exception types, and the strict integer parser behind every count
and label cutpoly reads."""


class CostGuardError(RuntimeError):
    """Raised when a computation would exceed its documented size guard."""


class VerificationError(RuntimeError):
    """Raised when an internal cross-check fails (inconsistent counts, bad certificate)."""


class EdgeListParseError(ValueError):
    """Raised on malformed edge-list input; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def ascii_int(text: str) -> int:
    """The integer spelled by an optional '-' and ASCII digits, nothing else.

    int() also accepts '1_0', '+5', surrounding spaces and non-ASCII digits
    such as '\u0661\u0660'; every count and label cutpoly reads goes through
    this instead.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)
