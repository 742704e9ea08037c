"""Exact integer linear algebra over column lattices.

A lattice is represented by a basis in column Hermite normal form.  The
convention used everywhere is:

    column echelon: the pivot row of each basis column strictly increases
    left to right; every pivot entry is positive; in each pivot row, entries
    of columns left of the pivot are reduced into [0, pivot).

All arithmetic is exact over Python integers.
"""

from __future__ import annotations

from .record import FrozenRecord


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _first_nonzero(v) -> int | None:
    for i, x in enumerate(v):
        if x:
            return i
    return None


def hnf_columns(columns) -> tuple[list[list[int]], list[int]]:
    """Column Hermite normal form of the integer span of the given columns.

    Returns (basis_columns, pivot_rows) with pivot_rows strictly increasing.
    """
    columns = [list(c) for c in columns]
    if not columns:
        raise ValueError("need at least one column")
    length = len(columns[0])
    if any(len(c) != length for c in columns):
        raise ValueError("columns must share a common length")

    by_pivot: dict[int, list[int]] = {}
    for col in columns:
        v = col
        while True:
            p = _first_nonzero(v)
            if p is None:
                break
            if p not in by_pivot:
                by_pivot[p] = v
                break
            w = by_pivot[p]
            a, b = w[p], v[p]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, w)]
            else:
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                new_w = [s * x + t * y for x, y in zip(w, v)]
                v = [-bg * x + ag * y for x, y in zip(w, v)]
                by_pivot[p] = new_w

    pivots = sorted(by_pivot)
    basis = []
    for p in pivots:
        col = by_pivot[p]
        if col[p] < 0:
            col = [-x for x in col]
        basis.append(col)
    # reduce entries left of each pivot into [0, pivot)
    for j, p in enumerate(pivots):
        pivot_col = basis[j]
        pivot = pivot_col[p]
        for i in range(j):
            q = basis[i][p] // pivot
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], pivot_col)]
    return basis, pivots


class LatticeBasis(FrozenRecord):
    """Basis of an integer column lattice, in column Hermite normal form."""

    __slots__ = ("basis_columns", "pivot_rows")  # tuple[tuple[int, ...], ...], tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis_columns)

    @property
    def length(self) -> int:
        return len(self.basis_columns[0])

    def contains(self, v) -> bool:
        """Exact membership by back-substitution against the echelon columns."""
        v = list(v)
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)} != lattice ambient length {self.length}")
        for p, col in zip(self.pivot_rows, self.basis_columns):
            a = v[p]
            if a:
                pivot = col[p]
                if a % pivot:
                    return False
                q = a // pivot
                v = [x - q * y for x, y in zip(v, col)]
        return not any(v)


def lattice_basis(cfg_or_columns) -> LatticeBasis:
    """LatticeBasis of the integer span of a configuration's (or raw) columns."""
    columns = getattr(cfg_or_columns, "columns", cfg_or_columns)
    basis, pivots = hnf_columns(columns)
    return LatticeBasis(
        basis_columns=tuple(tuple(c) for c in basis),
        pivot_rows=tuple(pivots),
    )


def polytope_dimension(cfg_or_columns) -> int:
    """Dimension of the convex hull of the configuration's columns.

    The columns carry a final homogenizing coordinate, so this is the rational
    rank of the column matrix minus one.
    """
    return lattice_basis(cfg_or_columns).rank - 1

