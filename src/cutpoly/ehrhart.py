"""Dilate counting for cut-polytope configurations, by two independent routes.

Route one counts degree-m semigroup elements (iterated sumsets of the
configuration columns).  Route two counts integer points of the dilated
polytope inside the column lattice, deciding polytope membership by an exact
rational phase-1 simplex.  The two agree exactly when the toric ring is
normal; disagreements are surfaced, never masked.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import CostGuardError, VerificationError
from .graph import fundamental_cycles
from .polynomial import IntPolynomial, stirling2


@dataclass(frozen=True)
class CountSequence:
    """Counts (i(P,0), ..., i(P,M)) for a d-dimensional lattice polytope."""

    dimension: int
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        for value in (self.dimension, *counts):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dimension and counts must be integers, got {value!r}")
        object.__setattr__(self, "counts", counts)
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")
        if not counts or counts[0] != 1:
            raise ValueError("counts must start with i(P,0) = 1")
        if len(counts) < self.dimension + 1:
            raise ValueError(
                f"need counts through dilate {self.dimension}, have {len(counts) - 1}")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError("dilate counts must be nondecreasing")

    @property
    def dilate_max(self) -> int:
        return len(self.counts) - 1

    def to_json(self) -> str:
        return json.dumps({"dimension": self.dimension, "counts": list(self.counts)})

    @classmethod
    def from_json(cls, text: str) -> "CountSequence":
        data = json.loads(text)
        try:
            return cls(dimension=data["dimension"], counts=tuple(data["counts"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed count-sequence JSON: {exc}") from None


# ---------------------------------------------------------------------------
# route one: semigroup sums
# ---------------------------------------------------------------------------

# Sums the new-points sweep may form over all layers before it is refused;
# K_{2,4} at its default budget (dilate 9) forms about 42.6M.
SEMIGROUP_SUM_LIMIT = 100_000_000


def _packed_steps(columns, max_dilate: int) -> list[int]:
    """The nonzero columns without their homogenizing row, packed into ints.

    Coordinate i of a column takes bits [i*w, (i+1)*w) with w the bit length
    of max_dilate.  A point of layer m <= max_dilate has coordinates in
    0..max_dilate, so fields never carry and a sum of columns is one int
    addition.  That needs 0/1 entries and an all-ones last row, checked here.
    """
    for col in columns:
        if len(col) != len(columns[0]) or col[-1] != 1 or not set(col) <= {0, 1}:
            raise ValueError(f"semigroup columns must be 0/1 with last entry 1, got {col!r}")
    width = max(1, max_dilate.bit_length())
    packed = [sum(1 << (i * width) for i, x in enumerate(col[:-1]) if x) for col in columns]
    if 0 not in packed:
        # layer m grows from the new points of layer m-1 only because the
        # zero column makes every layer contain the one before it
        raise VerificationError("configuration has no zero column (the empty cut)")
    return [p for p in packed if p]


def _semigroup_layer_sizes(columns, max_dilate: int) -> list[int]:
    if max_dilate < 0:
        raise ValueError("dilate must be nonnegative")
    steps = _packed_steps(columns, max_dilate)
    layer = {0}
    fresh = {0}
    sizes = [1]
    sums = 0
    for m in range(1, max_dilate + 1):
        # a point new at layer m is s + c with s new at layer m-1
        sums += len(fresh) * len(steps)
        if sums > SEMIGROUP_SUM_LIMIT:
            raise CostGuardError(
                f"semigroup sumset refused at dilate {m}: {sums} sums estimated "
                f"through this layer, over the limit {SEMIGROUP_SUM_LIMIT}")
        fresh = {s + c for s in fresh for c in steps} - layer
        layer |= fresh
        sizes.append(len(layer))
    return sizes


def semigroup_counts(cfg, max_dilate: int | None = None) -> CountSequence:
    """One sumset sweep giving all counts for m = 0..max_dilate (default d+1).

    Raises CostGuardError, before building the layer that would pass it, when
    the sums formed would exceed SEMIGROUP_SUM_LIMIT.
    """
    d = cfg.dimension
    M = d + 1 if max_dilate is None else max_dilate
    return CountSequence(dimension=d, counts=tuple(_semigroup_layer_sizes(cfg.columns, M)))


# ---------------------------------------------------------------------------
# route two: lattice points of the dilate, decided point by point
# ---------------------------------------------------------------------------

def _nonneg_combination_exists(columns, rhs) -> bool:
    """Exact feasibility of { lam >= 0 : sum_j lam_j * column_j = rhs }.

    Phase-1 simplex minimizing the artificial sum, with Bland's rule for
    termination.  The rational tableau is carried fraction-free: an integer
    matrix over a positive common denominator, pivoted exactly.
    """
    ncols = len(columns)
    nrows = len(rhs)
    rows = []
    for i in range(nrows):
        row = [col[i] for col in columns]
        row.append(rhs[i])
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)
    # objective row (reduced costs | -w) for minimizing w = sum of artificials
    obj = [0] * (ncols + 1)
    for row in rows:
        for j in range(ncols + 1):
            obj[j] -= row[j]
    rows.append(obj)
    if obj[ncols] == 0:
        return True
    basis = [ncols + i for i in range(nrows)]  # artificial ids follow the lambda ids
    den = 1
    objrow = nrows
    while True:
        entering = -1
        objc = rows[objrow]
        for j in range(ncols):
            if objc[j] < 0:
                entering = j
                break
        if entering < 0:
            return rows[objrow][ncols] == 0
        # ratio test over rows with positive entry in the entering column
        leave = -1
        for i in range(nrows):
            piv = rows[i][entering]
            if piv <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            lhs = rows[i][ncols] * rows[leave][entering]
            rhs_ = rows[leave][ncols] * piv
            if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise VerificationError("phase-1 objective unbounded; tableau corrupted")
        pivot_row = rows[leave]
        pivot = pivot_row[entering]
        for i in range(nrows + 1):
            if i == leave:
                continue
            row = rows[i]
            factor = row[entering]
            if factor:
                rows[i] = [(pivot * a - factor * b) // den
                           for a, b in zip(row, pivot_row)]
            elif den != 1:
                rows[i] = [(pivot * a) // den for a in row]
            elif pivot != 1:
                rows[i] = [pivot * a for a in row]
        den = pivot
        basis[leave] = entering
        if rows[objrow][ncols] == 0:
            return True


def membership_in_dilate(point, cfg, m: int) -> bool:
    """True iff `point` is a nonnegative rational combination of columns summing to m.

    `point` must have length r+1 and last coordinate m (the homogenizing row of
    the configuration already encodes the combination-weight constraint).
    """
    columns = cfg.columns
    point = tuple(point)
    for x in point:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"coordinates must be integers, got {x!r}")
    if len(point) != len(columns[0]):
        raise ValueError(f"point length {len(point)} != configuration row count {len(columns[0])}")
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    if point[-1] != m:
        raise ValueError(f"last coordinate {point[-1]} must equal the dilate {m}")
    return _nonneg_combination_exists(columns, point)


class _DilatePruner:
    """Lattice membership and cheap necessary conditions for the dilate, per cycle.

    Every cut vector meets a cycle in an even edge set.  So the column lattice
    is L x Z, with L the integer vectors of even sum on every fundamental
    cycle: 2 e_uv = delta({u}) + delta({v}) - delta({u,v}) puts 2Z^E in it, and
    modulo 2 the cut vectors span the cut space (Deza-Laurent, *Geometry of
    Cuts and Metrics*, 1997).  That is `in_lattice`.

    Also, for any cycle C and odd F within it, z(F) - z(C minus F) <=
    (|F| - 1) * m holds on the whole dilate.  For each odd |F| the tightest F
    holds the |F| largest coordinates of the cycle, so one descending sort per
    fundamental cycle tests them all.  That is `admits`: violations are
    rejected before the simplex runs; survivors still go to the exact test.
    """

    def __init__(self, g):
        # a cycle of a simple graph has at least 3 edges, so each getter
        # returns the tuple of the cycle's coordinates
        self._cycles = [itemgetter(*cyc) for cyc in fundamental_cycles(g)]

    def in_lattice(self, z) -> bool:
        """True iff z lies in the column lattice; its last coordinate is free."""
        return all(not sum(cyc(z)) & 1 for cyc in self._cycles)

    def admits(self, z, m: int) -> bool:
        for cyc in self._cycles:
            vals = sorted(cyc(z), reverse=True)
            s = sum(vals)
            twice_top = 0
            for f, v in enumerate(vals):
                # F is the f+1 largest coordinates; only odd |F| gives a bound
                twice_top += 2 * v
                if not f & 1 and twice_top - s > f * m:
                    return False
        return True


def count_lattice_points(cfg, m: int) -> int:
    """|m P' intersect ZA|: integer points of the dilate lying in the column lattice.

    Candidates range over the box [0,m]^r on the slice with last coordinate m;
    each is decided exactly: lattice membership by cycle parity, then the
    cycle inequalities, then polytope membership by the phase-1 simplex.
    """
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    columns = cfg.columns
    r = len(columns[0]) - 1
    pruner = _DilatePruner(cfg.graph)
    total = 0
    for prefix in itertools.product(range(m + 1), repeat=r):
        if not pruner.in_lattice(prefix) or not pruner.admits(prefix, m):
            continue
        if _nonneg_combination_exists(columns, prefix + (m,)):
            total += 1
    return total


# Box candidates the LP route may visit over all dilates before it is refused;
# K_{2,3}, K_4 and C_6 at their default budget (dilate 7) visit 446,964.
LP_CANDIDATE_LIMIT = 1_000_000


def _box_candidates(d: int, max_dilate: int) -> int:
    """Points in the boxes [0,m]^d for m = 0..max_dilate: sum of k^d for k = 1..M+1.

    Read off sum_{k=0}^{n} k^d = sum_j S(d,j) j! C(n+1, j+1) for d >= 1 (a
    cut polytope has an edge), so it takes d terms whatever the budget.
    """
    n = max(max_dilate + 1, 0)
    return sum(stirling2(d, j) * math.factorial(j) * math.comb(n + 1, j + 1)
               for j in range(1, d + 1))


def check_lp_cost(cfg, max_dilate: int | None = None) -> None:
    """Refuse the LP route when its boxes for dilates 0..max_dilate (default d+1)
    hold more than LP_CANDIDATE_LIMIT points."""
    M = cfg.dimension + 1 if max_dilate is None else max_dilate
    candidates = _box_candidates(cfg.dimension, M)
    if candidates > LP_CANDIDATE_LIMIT:
        raise CostGuardError(
            f"lp route refused: {candidates} box candidates for dilates 0..{M}, "
            f"over the limit {LP_CANDIDATE_LIMIT}")


def lattice_point_counts(cfg, max_dilate: int | None = None) -> CountSequence:
    """CountSequence via the lattice-point route (independent of normality).

    Raises CostGuardError, before the first candidate, by check_lp_cost.
    """
    check_lp_cost(cfg, max_dilate)
    d = cfg.dimension
    M = d + 1 if max_dilate is None else max_dilate
    counts = tuple(count_lattice_points(cfg, m=m) for m in range(M + 1))
    return CountSequence(dimension=d, counts=counts)


# ---------------------------------------------------------------------------
# counts <-> h*-polynomial
# ---------------------------------------------------------------------------

def hstar_from_counts(cs: CountSequence) -> IntPolynomial:
    """h*-polynomial from dilate counts: the numerator of the Ehrhart series.

    h*_i = sum_j (-1)^j C(d+1, j) i(P, i-j) for i = 0..d.  Counts beyond the
    dimension must transform to zero; a negative coefficient or a nonzero
    trailing value signals a counting bug or insufficient data and raises.
    """
    d = cs.dimension
    counts = cs.counts
    if cs.dilate_max < d:
        raise ValueError(f"need counts through dilate {d}, have {cs.dilate_max}")
    coeffs = []
    for i in range(cs.dilate_max + 1):
        value = sum((-1) ** j * math.comb(d + 1, j) * counts[i - j]
                    for j in range(0, min(i, d + 1) + 1))
        if i <= d:
            if value < 0:
                raise VerificationError(f"h*_{i} = {value} negative; counts inconsistent")
            coeffs.append(value)
        elif value != 0:
            raise VerificationError(
                f"transform of count at dilate {i} is {value}, expected 0; counts inconsistent")
    return IntPolynomial(coeffs)


def ehrhart_from_hstar(h: IntPolynomial, d: int, m: int) -> int:
    """i(P, m) from h*: sum_i h*_i C(m+d-i, d); exact inverse of hstar_from_counts."""
    if h.degree > d:
        raise ValueError(f"h* degree {h.degree} exceeds dimension {d}")
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    return sum(h.coefficient(i) * math.comb(m + d - i, d) for i in range(d + 1))


def hstar_polynomial(cfg, method: str = "semigroup",
                     max_dilate: int | None = None) -> tuple[IntPolynomial, CountSequence]:
    """Full pipeline: dilate counts by the requested route, then the h*-polynomial.

    The dilate budget defaults to d+1 (the minimum d plus one vanish check);
    an explicit smaller budget is refused with the required count.
    """
    d = cfg.dimension
    needed = d + 1
    M = needed if max_dilate is None else max_dilate
    if M < needed:
        raise CostGuardError(
            f"dilate budget {M} too small: need counts through dilate {needed}")
    if method == "semigroup":
        cs = semigroup_counts(cfg, M)
    elif method == "lp":
        cs = lattice_point_counts(cfg, M)
    else:
        raise ValueError(f"unknown counting method {method!r}")
    return hstar_from_counts(cs), cs
