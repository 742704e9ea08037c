"""Shared exception types, the strict integer parser behind every count and
label cutpoly reads, the vertex-set bitmask behind every side it reads, and
the digit limit behind every guard on what can be printed."""

import sys


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


def as_mask(vertices, vertex_count: int) -> int:
    """Bitmask of a vertex set of {1..vertex_count} (bit v-1 for vertex v),
    given as vertices or as a mask; ValueError on a vertex out of range."""
    if isinstance(vertices, int):
        if vertices < 0 or vertices >= (1 << vertex_count):
            raise ValueError(f"vertex mask {vertices} out of range for {vertex_count} vertices")
        return vertices
    mask = 0
    for v in vertices:
        if not 1 <= v <= vertex_count:
            raise ValueError(f"vertex {v} out of range 1..{vertex_count}")
        mask |= 1 << (v - 1)
    return mask


def int_digit_limit() -> int:
    """The digits Python converts an int to text with: sys.get_int_max_str_digits(),
    read as Python's default, 4,300, when it is 0 (no limit) or absent (Python
    before 3.10.7), so that the guards keyed on it refuse the same sizes
    everywhere."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def shown(value: int | None, bits: int = 0) -> str:
    """A guard's estimate: `value` in decimal or, when it has more digits than
    Python converts to text (sys.get_int_max_str_digits()), the power of two it
    reaches.  A value too large to build is None, with its bit length `bits`.
    When that exponent is itself too long to print, the power of two it
    reaches stands in for it."""
    if value is not None:
        try:
            return str(value)
        except ValueError:
            bits = value.bit_length()
    try:
        return f"2^{bits - 1} or more"
    except ValueError:
        return f"2^(2^{(bits - 1).bit_length() - 1}) or more"
