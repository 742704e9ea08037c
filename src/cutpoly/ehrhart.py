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
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter, mul

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

def _phase1(columns, rhs) -> tuple[bool, list[int]]:
    """Exact feasibility of { lam >= 0 : sum_j lam_j * column_j = rhs }, and the
    final basis: entry i is the column basic in row i, a column id below
    len(columns) or len(columns) + i for row i's artificial.

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
    basis = [ncols + i for i in range(nrows)]  # artificial ids follow the lambda ids
    if obj[ncols] == 0:
        return True, basis
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
            return rows[objrow][ncols] == 0, basis
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
            return True, basis


def _nonneg_combination_exists(columns, rhs) -> bool:
    """Exact feasibility of { lam >= 0 : sum_j lam_j * column_j = rhs }."""
    return _phase1(columns, rhs)[0]


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
    Cuts and Metrics*, 1997).  That is `in_lattice`; `lattice_points` walks
    the lattice points of the box [0,m]^r without testing any other point.

    Also, for any cycle C and odd F within it, z(F) - z(C minus F) <=
    (|F| - 1) * m holds on the whole dilate.  For each odd |F| the tightest F
    holds the |F| largest coordinates of the cycle, so one descending sort per
    fundamental cycle tests them all.  That is `admits`: violations are
    rejected before the simplex runs; survivors still go to the exact test.
    """

    def __init__(self, g):
        cycles = fundamental_cycles(g)
        # a cycle of a simple graph has at least 3 edges, so each getter
        # returns the tuple of the cycle's coordinates
        self._cycles = [itemgetter(*cyc) for cyc in cycles]
        # each cycle closes on an edge of no other fundamental cycle (its
        # non-tree edge always qualifies); the other edges are free
        on_cycles = Counter(e for cyc in cycles for e in cyc)
        closing = [next(e for e in cyc if on_cycles[e] == 1) for cyc in cycles]
        free = [e for e in range(g.edge_count) if e not in closing]
        # a walk point lists the free coordinates, then the closing ones
        position = {e: k for k, e in enumerate(free + closing)}
        self._free_count = len(free)
        # each cycle without its closing edge holds free coordinates only
        self._rests = [[position[e] for e in cyc if e != c] for cyc, c in zip(cycles, closing)]
        self._positions = [position[e] for e in range(g.edge_count)]

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

    def lattice_points(self, m: int):
        """The points of [0,m]^r that `in_lattice` accepts, each once.

        Free coordinates range over 0..m; a closing coordinate steps by 2 from
        the parity of the rest of its cycle, which holds free edges only.
        """
        if not self._rests:
            # a tree: every box point is in the lattice
            yield from itertools.product(range(m + 1), repeat=self._free_count)
            return
        # a graph with a cycle has at least 3 edges, so this returns tuples
        to_edge_order = itemgetter(*self._positions)
        for free in itertools.product(range(m + 1), repeat=self._free_count):
            closers = [range(sum(free[k] for k in rest) & 1, m + 1, 2) for rest in self._rests]
            for closed in itertools.product(*closers):
                yield to_edge_order(free + closed)


def _scaled_inverse(basis_columns) -> list[tuple[int, ...]]:
    """Rows of D * B^-1 with D > 0, for the nonsingular B with these columns.

    Fraction-free Gauss-Jordan on [B | I], as in `_phase1`: row operations
    take B to D * I, so they take I to D * B^-1.
    """
    n = len(basis_columns)
    rows = [[col[i] for col in basis_columns] + [int(i == k) for k in range(n)]
            for i in range(n)]
    den = 1
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            raise VerificationError("certificate basis is singular")
        rows[c], rows[p] = rows[p], rows[c]
        pivot_row = rows[c]
        pivot = pivot_row[c]
        for i in range(n):
            if i != c:
                factor = rows[i][c]
                rows[i] = [(pivot * a - factor * b) // den for a, b in zip(rows[i], pivot_row)]
        den = pivot
    sign = 1 if den > 0 else -1
    inverse = [tuple(sign * x for x in row[n:]) for row in rows]
    for i, row in enumerate(inverse):
        for j, col in enumerate(basis_columns):
            if sum(map(mul, row, col)) != (abs(den) if i == j else 0):
                raise VerificationError("certificate rows are not a scaled basis inverse")
    return inverse


def _independent_extension(chosen, columns) -> list:
    """`chosen` (linearly independent) plus columns that raise the rank, in
    order, until the rank is full."""
    echelon = []
    picked = []
    for col in itertools.chain(chosen, columns):
        v = list(col)
        for p, e in echelon:
            if v[p]:
                v = [e[p] * a - v[p] * b for a, b in zip(v, e)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, v))
            picked.append(col)
            if len(picked) == len(col):
                break
    return picked


class _Certificates:
    """Exact proofs from earlier simplex calls that decide later points.

    A cone is the rows of D * B^-1 (D > 0) for a basis B of configuration
    columns: z with row . z >= 0 for every row is a nonnegative combination of
    B's columns, so z is in the dilate given by its last coordinate.  A
    separator is a Farkas vector s with s . a <= 0 for every column a: z with
    s . z > 0 is in no dilate.  Only the simplex makes new ones, and each is
    checked when it is stored.
    """

    def __init__(self, columns):
        self._columns = columns
        self._cones = []
        self._separators = []

    def in_dilate(self, z) -> bool:
        """Whether z (last coordinate m) lies in the m-th dilate."""
        for s in self._separators:
            if sum(map(mul, s, z)) > 0:
                return False
        cones = self._cones
        for k, cone in enumerate(cones):
            for row in cone:
                if sum(map(mul, row, z)) < 0:
                    break
            else:
                if k:
                    # most recently used first
                    cones.insert(0, cones.pop(k))
                return True
        feasible, basis = _phase1(self._columns, z)
        if feasible:
            self._add_cone(basis, z)
        else:
            self._add_separator(basis, z)
        return feasible

    def _add_cone(self, basis, z) -> None:
        columns = self._columns
        chosen = [columns[j] for j in basis if j < len(columns)]
        cone = _scaled_inverse(_independent_extension(chosen, columns))
        if any(sum(map(mul, row, z)) < 0 for row in cone):
            raise VerificationError(f"feasible point {z} lies outside its basis cone")
        self._cones.insert(0, cone)

    def _add_separator(self, basis, z) -> None:
        columns = self._columns
        n = len(columns)
        # row i's artificial column is the unit vector e_i, negated where
        # _phase1 negated the row for a negative right-hand side
        units = [tuple((-1 if z[i] < 0 else 1) * (i == k) for k in range(len(z)))
                 for i in range(len(z))]
        inverse = _scaled_inverse([columns[j] if j < n else units[j - n] for j in basis])
        # phase-1 duals: the cost row (1 on artificials) times B^-1
        s = [sum(col) for col in zip(*(row for row, j in zip(inverse, basis) if j >= n))]
        if sum(map(mul, s, z)) <= 0 or any(sum(map(mul, s, a)) > 0 for a in columns):
            raise VerificationError(f"phase-1 duals for {z} are not a Farkas certificate")
        self._separators.append(s)


def count_lattice_points(cfg, m: int) -> int:
    """|m P' intersect ZA|: integer points of the dilate lying in the column lattice.

    Candidates are the lattice points of the box [0,m]^r on the slice with
    last coordinate m; each is decided exactly: first by the cycle
    inequalities, then by a cached cone or separator, and otherwise by the
    phase-1 simplex, whose answer is cached as a new certificate.
    """
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    pruner = _DilatePruner(cfg.graph)
    certificates = _Certificates(cfg.columns)
    total = 0
    for prefix in pruner.lattice_points(m):
        if pruner.admits(prefix, m) and certificates.in_dilate(prefix + (m,)):
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
