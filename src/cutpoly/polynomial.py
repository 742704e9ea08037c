"""Exact univariate integer polynomials and the combinatorial polynomials built on them.

Covers dense big-integer polynomial arithmetic, Stirling numbers of the second
kind, Eulerian polynomials by recurrence, the f-polynomial to h-polynomial
transform, and the closed-form h*-polynomial (x+1) * A_{n-2}(x)^2 of cut
polytopes of K_{2,n-2}.
"""

from __future__ import annotations

import math
from functools import lru_cache


# Shortest operand at which `IntPolynomial.__mul__` multiplies by Kronecker
# substitution rather than by the schoolbook loop: on Python 3.11 (2-vCPU VM)
# the two cost about the same at 24 coefficients a side, for coefficients of
# 4 to 1200 bits, and Kronecker substitution wins from there on.
KRONECKER_MIN_LENGTH = 24


def _kronecker_product(a, b) -> list[int]:
    """Coefficients of the product of two nonzero coefficient tuples by
    Kronecker substitution, p(2^w) * q(2^w) = (p * q)(2^w).

    Each side is packed as its positive part less its negative part, one
    little-endian field of `width` bytes (w bits) per coefficient.  Product
    coefficients are at most max|a| * max|b| * min(len) in absolute value,
    which a field holds with a sign bit to spare: adding half a field to
    each keeps it in range, so the sum unpacks field by field.
    """
    length = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    def value(coeffs):
        return pack([max(c, 0) for c in coeffs]) - pack([max(-c, 0) for c in coeffs])

    x = value(a)
    product = x * x if a is b else x * value(b)
    data = (product + pack([half] * length)).to_bytes(length * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, length * width, width)]


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = exponent, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product: the schoolbook double loop, or from
        KRONECKER_MIN_LENGTH coefficients on both sides one big-integer
        product by Kronecker substitution (a squaring for `p * p`)."""
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        if min(len(self.coeffs), len(other.coeffs)) >= KRONECKER_MIN_LENGTH:
            return IntPolynomial(_kronecker_product(self.coeffs, other.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        """self(inner(x)), exact."""
        acc = IntPolynomial(())
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial((c,))
        return acc

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(p: IntPolynomial) -> str:
    """Descending-degree text form, e.g. 'x^5 + 9x^4 + 26x^3 + 26x^2 + 9x + 1'."""
    if not p.coeffs:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coefficient(e)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xpart = "x" if e == 1 else f"x^{e}"
            body = xpart if mag == 1 else f"{mag}{xpart}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# combinatorial polynomials
# ---------------------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), read off the cached row of n.

    Conventions: S(0, 0) = 1, S(n, 0) = 0 for n > 0, and 0 whenever k < 0 or
    k > n.
    """
    if n < 0 or not 0 <= k <= n:
        return 0
    return _stirling_row(n)[k]


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)) by the recurrence S(j, k) = k S(j-1, k) + S(j-1, k-1)."""
    row = [1]
    for j in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, j)] + [1]
    return tuple(row)


@lru_cache(maxsize=None)
def eulerian(n: int) -> IntPolynomial:
    """Eulerian polynomial A_n(x) = sum_k A(n,k) x^k; degree n-1.

    Built row by row from A(1,0) = 1 and the recurrence
    A(j,k) = (k+1) A(j-1,k) + (j-k) A(j-1,k-1).  Cached: the closed form and
    a report of its factor A_n share one computation."""
    if n < 1:
        raise ValueError("eulerian(n) needs n >= 1")
    row = [1]
    for j in range(2, n + 1):
        padded = [0] + row + [0]
        row = [(k + 1) * padded[k + 1] + (j - k) * padded[k] for k in range(j)]
    return IntPolynomial(row)


def f_to_h(f_coeffs, d: int) -> IntPolynomial:
    """h-polynomial of a d-dimensional complex from its f-vector.

    f_coeffs lists (f_{-1}, f_0, ..., f_{d}); the result is
    sum_i f_{i-1} x^i (1-x)^(d+1-i), expanded exactly by Horner's rule in
    (1-x): h <- h (1-x) + f_{i-1} x^i for i = 0..d+1.
    """
    f_coeffs = list(f_coeffs)
    if not f_coeffs or f_coeffs[0] != 1:
        raise ValueError("f-vector must start with f_{-1} = 1")
    if len(f_coeffs) > d + 2:
        raise ValueError(f"f-vector of length {len(f_coeffs)} too long for dimension {d}")
    h = []
    for f in f_coeffs + [0] * (d + 2 - len(f_coeffs)):
        h = [a - b for a, b in zip(h + [f], [0] + h)]
    return IntPolynomial(h)


def hstar_closed_form_k2m(n: int) -> IntPolynomial:
    """Closed-form h*-polynomial (x+1) * A_{n-2}(x)^2 of the cut polytope of K_{2,n-2}."""
    if n < 4:
        raise ValueError("closed form needs n >= 4")
    a = eulerian(n - 2)
    return IntPolynomial((1, 1)) * (a * a)


def is_palindromic(p: IntPolynomial) -> bool:
    """True iff p(x) = x^deg(p) * p(1/x); the zero polynomial passes vacuously."""
    return p.coeffs == tuple(reversed(p.coeffs))


def is_unimodal(p: IntPolynomial) -> bool:
    """True iff the coefficients rise (weakly) then fall (weakly)."""
    coeffs = p.coeffs
    i = 0
    while i + 1 < len(coeffs) and coeffs[i] <= coeffs[i + 1]:
        i += 1
    while i + 1 < len(coeffs) and coeffs[i] >= coeffs[i + 1]:
        i += 1
    return i == len(coeffs) - 1 or not coeffs


def hibi_lower_bound_ok(p: IntPolynomial) -> bool:
    """Check h_i >= h_1 for 1 <= i <= deg(p) - 1 on a candidate h*-polynomial."""
    if p.degree < 2:
        return True
    h1 = p.coefficient(1)
    return all(p.coefficient(i) >= h1 for i in range(1, p.degree))
