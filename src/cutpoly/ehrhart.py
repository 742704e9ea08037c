"""Dilate counting for cut-polytope configurations, by two independent routes.

Route one counts degree-m semigroup elements (iterated sumsets of the
configuration columns), each layer held as big-int bitsets over a spanning
tree's coordinates, one per value of the closing edges, and refused before
any layer that would take the bits shifted past a limit.  Route two counts
integer points of the dilated polytope inside the column lattice.  A graph
with at most nine edges on cycles has no K5 minor, so there the dilate is cut
out by the parity and odd-set inequalities of its chordless cycles
(Barahona-Mahjoub), counted by a pruned walk with no simplex call; an exact
rational phase-1 simplex re-decides a few points per dilate, and any
disagreement raises.  Any other graph is refused.  Only about half the
dilates and as many interiors are walked; by Ehrhart-Macdonald reciprocity
they fix the Ehrhart polynomial, every spare count is checked against it, and
the rest are read off it.  The route is read off the graph's cycle edges and
vertices and cached on it; the guard charges its walk over the dilates before
any of them, and either route refuses a budget below the dimension before it
counts.  The two routes agree exactly when the toric ring is normal;
disagreements are surfaced, never masked.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .errors import CostGuardError, VerificationError, shown
from .graph import fundamental_cycles
from .polynomial import IntPolynomial
from .record import FrozenRecord


def _budget(d: int, max_dilate: int | None = None) -> int:
    """The dilate budget M (default d+1); ValueError when M < d."""
    M = d + 1 if max_dilate is None else max_dilate
    if M < 0:
        raise ValueError("dilate must be nonnegative")
    if M < d:
        raise ValueError(f"need counts through dilate {d}, have {M}")
    return M


class CountSequence(FrozenRecord):
    """Counts (i(P,0), ..., i(P,M)) for a d-dimensional lattice polytope."""

    __slots__ = ("dimension", "counts")

    def __init__(self, dimension: int, counts: tuple[int, ...]):
        counts = tuple(counts)
        for value in (dimension, *counts):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dimension and counts must be integers, got {value!r}")
        super().__init__(dimension, counts)
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")
        if not counts or counts[0] != 1:
            raise ValueError("counts must start with i(P,0) = 1")
        _budget(self.dimension, len(counts) - 1)
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

# Bits the new-points sweep may shift over all layers before it is refused;
# K_{2,4} at its default budget (dilate 9) shifts about 4.9e9.
SEMIGROUP_BIT_LIMIT = 1 << 35


def _sumset_step(fresh: dict, shifts: dict) -> dict:
    """The points one nonzero column away from those of `fresh`, as bitsets
    by key."""
    reached = {}
    for key, bits in fresh.items():
        for offset, lows in shifts.items():
            moved = 0
            for lo in lows:
                moved |= bits << lo
            reached[key + offset] = reached.get(key + offset, 0) | moved
    return reached


def _semigroup_layer_sizes(columns, max_dilate: int) -> list[int]:
    """|layer m| for m = 0..max_dilate, each layer a dict of big-int bitsets.

    Columns must be 0/1 with an all-ones last row, which is dropped (it is m
    on layer m).  The low block keeps each coordinate, in order, that raises
    the number of distinct column patterns on those kept: for cut vectors a
    spanning forest, whose cut polytope is a cube.  A point sets bit
    sum_k x_k (max_dilate+1)^k, over its low coordinates x_k, of the int held
    under a key packing its other coordinates into fields of
    max_dilate.bit_length() bits.  Coordinates stay within 0..max_dilate, so
    nothing carries: adding a column shifts the bitset and adds to the key.
    Before each layer the bits it will shift are added to a running total,
    and CostGuardError is raised when the total would pass
    SEMIGROUP_BIT_LIMIT; before layer 1 the same limit is checked against a
    lower bound on the whole sweep.
    """
    for col in columns:
        if len(col) != len(columns[0]) or col[-1] != 1 or not set(col) <= {0, 1}:
            raise ValueError(f"semigroup columns must be 0/1 with last entry 1, got {col!r}")
    points = [col[:-1] for col in columns]
    if all(map(any, points)):
        # layer m grows from the new points of layer m-1 only because the
        # zero column makes every layer contain the one before it
        raise VerificationError("configuration has no zero column (the empty cut)")
    low, patterns, seen = [], [0] * len(points), 1
    for i in range(len(points[0])):
        grown = [pat << 1 | p[i] for pat, p in zip(patterns, points)]
        if len(set(grown)) > seen:
            low.append(i)
            patterns, seen = grown, len(set(grown))
    high = [i for i in range(len(points[0])) if i not in low]
    base, width = max_dilate + 1, max(1, max_dilate.bit_length())
    # nonzero columns as bitset shifts, grouped by their key offset
    shifts = {}
    for p in filter(any, points):
        key = sum(1 << (j * width) for j, i in enumerate(high) if p[i])
        shifts.setdefault(key, []).append(sum(base ** k for k, i in enumerate(low) if p[i]))
    steps, reach = sum(map(len, shifts.values())), sum(map(sum, shifts.values()))
    # for c the column of largest shift, (m-1)c is new at layer m-1 and sets
    # bit (m-1) shift(c), so layer m shifts at least steps ((m-1) shift(c) + 1)
    top = max(map(max, shifts.values()), default=0)
    least = steps * (top * max_dilate * (max_dilate - 1) // 2 + max_dilate)
    if least > SEMIGROUP_BIT_LIMIT:
        raise CostGuardError(
            f"semigroup sumset refused at dilate 1: at least {shown(least)} bits shifted "
            f"through dilate {max_dilate}, over the limit {SEMIGROUP_BIT_LIMIT}")
    layer, fresh = {0: 1}, {0: 1}
    sizes, shifted = [1], 0
    for m in range(1, max_dilate + 1):
        # a point new at layer m is s + c with s new at layer m-1: each new
        # bitset is shifted once per nonzero column
        shifted += steps * sum(b.bit_length() for b in fresh.values()) + len(fresh) * reach
        if shifted > SEMIGROUP_BIT_LIMIT:
            raise CostGuardError(
                f"semigroup sumset refused at dilate {m}: {shifted} bits shifted "
                f"estimated through this layer, over the limit {SEMIGROUP_BIT_LIMIT}")
        reached = _sumset_step(fresh, shifts)
        fresh, born = {}, 0
        # popping frees each reached bitset once its new points are kept
        while reached:
            key, bits = reached.popitem()
            held = layer.get(key, 0)
            if held:
                bits &= ~held
            if bits:
                # a key new to the layer shares its bitset with `fresh`
                fresh[key] = bits
                layer[key] = held | bits if held else bits
                born += bits.bit_count()
        sizes.append(sizes[-1] + born)
    return sizes


def semigroup_counts(cfg, max_dilate: int | None = None) -> CountSequence:
    """One sumset sweep giving all counts for m = 0..max_dilate (default d+1).

    ValueError refuses a budget below d before the first layer; CostGuardError
    one whose bits shifted would pass SEMIGROUP_BIT_LIMIT, before that layer.
    """
    d = cfg.dimension
    M = _budget(d, max_dilate)
    return CountSequence(dimension=d, counts=tuple(_semigroup_layer_sizes(cfg.columns, M)))


# ---------------------------------------------------------------------------
# route two: lattice points of the dilate
# ---------------------------------------------------------------------------

def _phase1(columns, rhs) -> bool:
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
    rows.append([-sum(entries) for entries in zip(*rows)])
    # entry i is the column basic in row i: a column id below ncols, or
    # ncols + i for row i's artificial
    basis = [ncols + i for i in range(nrows)]
    if rows[nrows][ncols] == 0:
        return True
    den = 1
    while True:
        entering = -1
        objc = rows[nrows]
        for j in range(ncols):
            if objc[j] < 0:
                entering = j
                break
        if entering < 0:
            return objc[ncols] == 0
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
        for i, row in enumerate(rows):
            if i != leave:
                factor = row[entering]
                rows[i] = [(pivot * a - factor * b) // den for a, b in zip(row, pivot_row)]
        den = pivot
        basis[leave] = entering
        if rows[nrows][ncols] == 0:
            return True


def _closing_range(rest, m: int) -> tuple[int, int]:
    """[lo, hi]: the x in 0..m that meet every odd-F inequality of a cycle
    whose other coordinates are `rest`.

    On the m-th dilate z(F) - z(C minus F) <= (|F| - 1) * m holds for every
    cycle C and odd F within it.  With j coordinates of `rest` in F the
    tightest F takes the j largest: an even j with x in F bounds x above, an
    odd j with x outside F bounds it below.
    """
    s = sum(rest)
    lo, hi = 0, min(m, s)
    top = 0
    for j, v in enumerate(sorted(rest, reverse=True), 1):
        top += v
        if j & 1:
            lo = max(lo, 2 * top - s - (j - 1) * m)
        else:
            hi = min(hi, j * m - 2 * top + s)
    return lo, hi


def _closing_values(rests, m: int, strict=False) -> range:
    """The values in 0..m of an edge that closes a cycle for each of `rests`
    (the cycle's other coordinates): within every `_closing_range`, and of
    even sum with every rest.  `strict` keeps only the values strictly inside
    every bound, 0 and m included."""
    parities = {sum(rest) & 1 for rest in rests}
    if len(parities) > 1:
        return range(0)
    lo, hi = 0, m
    for rest in rests:
        a, b = _closing_range(rest, m)
        lo, hi = max(lo, a), min(hi, b)
    if strict:
        lo, hi = lo + 1, hi - 1
    if not parities:
        return range(lo, hi + 1)
    return range(lo + ((lo ^ parities.pop()) & 1), hi + 1, 2)


def _chordless_cycles(g) -> list[list[int]]:
    """The chordless cycles of g as sorted edge-index lists.

    They are the members of the cycle space, the XORs of the fundamental
    cycles, that form one cycle which no other edge of g joins twice.  That
    takes 2^(number of fundamental cycles) XORs.
    """
    ends = [(1 << u) | (1 << v) for u, v in g.edges]
    basis = [sum(1 << e for e in cyc) for cyc in fundamental_cycles(g)]
    found = []
    for subset in range(1, 1 << len(basis)):
        members = 0
        for i, cyc in enumerate(basis):
            if subset >> i & 1:
                members ^= cyc
        edges = [e for e in range(len(ends)) if members >> e & 1]
        vertices = 0
        for e in edges:
            vertices |= ends[e]
        # every degree of a cycle-space member is even, so as many edges as
        # vertices makes every degree 2: a union of disjoint cycles
        if len(edges) != vertices.bit_count():
            continue
        # one cycle if connected; a chord is another edge with both ends on it
        reached = ends[edges[0]]
        for _ in edges:
            for e in edges:
                if ends[e] & reached:
                    reached |= ends[e]
        if reached == vertices and not any(
                ends[e] & vertices == ends[e] for e in range(len(ends)) if e not in edges):
            found.append(edges)
    return found


class _CycleWalk:
    """The lattice points of [0,m]^E that meet a family of cycles' parity and
    odd-F inequalities, walked edge by edge.

    Every cut vector meets a cycle in an even edge set.  So the column lattice
    is L x Z, with L the integer vectors of even sum on every cycle of a family
    spanning the cycle space, such as the fundamental or the chordless cycles:
    2 e_uv = delta({u}) + delta({v}) - delta({u,v}) puts 2Z^E in it, and modulo
    2 the cut vectors span the cut space (Deza-Laurent, *Geometry of Cuts and
    Metrics*, 1997).  A point that fails one of a cycle's odd-F inequalities
    (`_closing_range`) is outside the dilate.  When g has no K5 minor and the
    family is every chordless cycle, Cut(g) is cut out by 0 <= x <= 1 and
    those inequalities (Barahona-Mahjoub, "On the cut polytope", Math. Prog.
    36, 1986), so a point of the box is a lattice point of the m-th dilate
    exactly when it `holds`.
    """

    def __init__(self, g, cycles):
        # the walk's edge order places the cycle with the fewest edges still
        # unplaced next, so cycles close early and prune whole subtrees
        order = []
        while True:
            unplaced = [[e for e in cyc if e not in order] for cyc in cycles]
            unplaced = [u for u in unplaced if u]
            if not unplaced:
                break
            order += min(unplaced, key=len)
        self._order, position = order, {e: k for k, e in enumerate(order)}
        # the cycles whose last edge in the order is at position k, each as a
        # getter of its other edges' values (a tuple: a cycle has 3 or more edges)
        self._closing = [[] for _ in order]
        for cyc in cycles:
            last = max(position[e] for e in cyc)
            self._closing[last].append(itemgetter(*(position[e] for e in cyc if position[e] != last)))
        # an edge on no cycle is a bridge, one factor of the count
        self._bridges = g.edge_count - len(order)

    def holds(self, z, m: int) -> bool:
        """True iff `count(m)` counts z, bridges aside: read in walk order,
        each coordinate on a cycle is one of its `_closing_values`."""
        values = [z[e] for e in self._order]
        return all(values[k] in _closing_values([rest(values) for rest in closing], m)
                   for k, closing in enumerate(self._closing))

    def count(self, m: int, strict=False) -> int:
        """Lattice points of [0,m]^E that meet every cycle's parity and odd-F
        inequalities, by a depth-first walk over the cycle edges through
        their `_closing_values`; the last one is counted, not walked.  Each
        bridge multiplies the count by m+1.

        `strict` (for m >= 1) counts the points that meet every inequality
        strictly instead: each edge's values shrink to `_closing_values`
        with `strict`, 1..m-1 for an edge that closes no cycle, and each
        bridge multiplies the count by m-1.
        """
        closing = self._closing
        last = len(closing) - 1
        values = [0] * len(closing)
        # the values of x_k depend on the sorted rest of each cycle closing at
        # k only, which repeats far more often than the rests themselves
        known = {}

        def options(k):
            key = tuple([tuple(sorted(rest(values))) for rest in closing[k]])
            found = known.get(key)
            if found is None:
                found = known[key] = _closing_values(key, m, strict)
            return found

        def walk(k):
            if k == last:
                return len(options(k))
            total = 0
            for v in options(k):
                values[k] = v
                total += walk(k + 1)
            return total

        return (m - 1 if strict else m + 1) ** self._bridges * (walk(0) if closing else 1)


# A K5 minor lies within one block, which then has at least 10 edges, all on
# cycles; so a graph with at most this many edges on cycles has none
K5_MINOR_FREE_EDGES = 9


@lru_cache(maxsize=1)
def _lp_route(g):
    """g's LP route, built once for all dilates: its walk over every
    chordless cycle, and its cut vectors with every bridge (an edge on no
    cycle) at 0, deduplicated in order, each with a last coordinate 1.
    Cut(g) is the cut polytope on its cycle edges times [0,1] per bridge, so a
    point whose bridges are 0 lies in the m-th dilate exactly when these
    columns reach it.  Past K5_MINOR_FREE_EDGES edges on cycles it is
    refused (CostGuardError).  A column reads only the side's cycle vertices:
    the sides are their subsets without vertex 1, ascending, at most 2^9,
    giving the columns in the order the loop over all 2^(n-1) sides does."""
    cycle_edges = {e for cyc in fundamental_cycles(g) for e in cyc}
    if len(cycle_edges) > K5_MINOR_FREE_EDGES:
        raise CostGuardError(
            f"lp route refused: {len(cycle_edges)} edges on cycles, over the {K5_MINOR_FREE_EDGES} "
            "up to which the chordless-cycle walk is exact (no K5 minor)")
    masks = [mask if e in cycle_edges else 0 for e, mask in enumerate(g._edge_masks)]
    free, sides = sum({1 << (v - 1) for e in cycle_edges for v in g.edges[e] if v > 1}), [0]
    while sides[-1] != free:  # the next larger subset of `free`
        sides.append((sides[-1] - free) & free)
    columns = dict.fromkeys(tuple((side & mask).bit_count() & 1 for mask in masks) + (1,)
                            for side in sides)
    return _CycleWalk(g, _chordless_cycles(g)), tuple(columns)


# Lattice points per dilate that the simplex re-decides
SPOT_CHECKS = 16


def _spot_points(columns, m: int) -> list[tuple[int, ...]]:
    """At most SPOT_CHECKS distinct lattice points of [0,m]^E, the same on
    every run.

    Odd draws are sums of m `columns` (last coordinate dropped), so in the
    dilate.  Even ones take a column's parities and raise every coordinate
    that some column sets by an even amount that stays within m, so they fall
    on either side; the others stay 0.  [0,0]^E holds only the origin, and a
    forest's one column, all 0 but its last coordinate, draws only the origin.
    """
    if not m or len(columns) == 1:
        return [(0,) * (len(columns[0]) - 1)]
    rng, live = random.Random(m), list(map(max, zip(*columns)))
    return list(dict.fromkeys(
        tuple(map(sum, zip(*rng.choices(columns, k=m))))[:-1] if k & 1 else
        tuple(c + 2 * rng.randrange((m - c) // 2 + 1) * s
              for c, s in zip(rng.choice(columns)[:-1], live))
        for k in range(SPOT_CHECKS)))


def count_lattice_points(cfg, m: int) -> int:
    """|m P' intersect ZA|: integer points of the dilate lying in the column lattice.

    `_lp_route`'s walk counts them, once the phase-1 simplex has re-decided
    `_spot_points`; any disagreement raises VerificationError.  The simplex
    reads the route's columns and points with every bridge at 0.
    """
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    walk, columns = _lp_route(cfg.graph)
    for z in _spot_points(columns, m):
        if walk.holds(z, m) != _phase1(columns, z + (m,)):
            raise VerificationError(
                f"chordless-cycle inequalities and the simplex disagree on {z} at dilate {m}")
    return walk.count(m)


# Box points the LP walk may span over the dilates it walks before it is
# refused.  At the default budget C_8 and K_{2,4} span at least 210,772 and
# pass (about 1.2 s and 0.3 s); every graph with 9 edges on cycles spans at
# least 1,148,871 and is refused, as C_9 would take about 5 s (2-vCPU VM).
LP_CANDIDATE_LIMIT = 1_000_000


def check_lp_cost(cfg, max_dilate: int | None = None) -> tuple[int, int]:
    """The LP route's plan for dilates 0..M (default d+1): (A, B), to count
    the closed dilates 0..A and the interiors of 1..B.  B = floor(M/2) when
    M >= d, else 0; A = M - B.  ValueError refuses M < 0.

    CostGuardError refuses more than K5_MINOR_FREE_EDGES edges on cycles,
    and a walk whose boxes exceed LP_CANDIDATE_LIMIT points: with w = c - 1
    of the c edges on cycles walked per point (the last is counted), they
    hold sum (m+1)^w over the closed dilates and sum (m-1)^w over the
    interiors, at least ((A+1)^(w+1) + (B-1)^(w+1)) // (w+1).  c is read off
    `_lp_route`, at most 2^9 sides, so this decides before any dilate.
    """
    M = cfg.dimension + 1 if max_dilate is None else max_dilate
    if M < 0:
        raise ValueError("dilate must be nonnegative")
    c = cfg.dimension - _lp_route(cfg.graph)[0]._bridges
    B = M // 2 if M >= cfg.dimension else 0
    A, w = M - B, max(c - 1, 0)
    candidates = ((A + 1) ** (w + 1) + max(B - 1, 0) ** (w + 1)) // (w + 1)
    if candidates > LP_CANDIDATE_LIMIT:
        raise CostGuardError(
            f"lp route refused: at least {shown(candidates)} box candidates on {w} walked edges "
            f"for closed dilates 0..{A} and {B} interiors, over the limit {LP_CANDIDATE_LIMIT}")
    return A, B


def _reciprocal_counts(d: int, closed, interior) -> tuple[int, ...]:
    """i(P, m) for m = 0..M of a d-dimensional lattice polytope P, given
    closed[m] = i(P, m) for m = 0..A and interior[m-1] = i(P°, m) for
    m = 1..B, with M = A + B >= d or B = 0.

    i(P, m) is a polynomial E(m) of degree d, and by Ehrhart-Macdonald
    reciprocity i(P°, m) = (-1)^d E(-m) (Beck-Robins, *Computing the
    Continuous Discretely*, ch. 4).  So the counts give E(-B..A), whose
    `_difference` of order d+1 vanishes past entry d, as `hstar_from_counts`
    checks: VerificationError names the first count that breaks it.  E
    through dilate M is d+1 running sums of that difference and B zeros.
    """
    values = [(-1) ** d * count for count in reversed(interior)] + closed
    difference = _difference(values, d + 1)
    for k in range(d + 1, len(values)):
        if difference[k]:
            m = k - len(interior)
            raise VerificationError(
                f"the {'closed' if m >= 0 else 'interior'} count of dilate {abs(m)} breaks "
                f"Ehrhart reciprocity: E({m}) = {values[k]}, but the {d + 1} values "
                f"before it give {values[k] - difference[k]}")
    difference += [0] * len(interior)
    for _ in range(d + 1):
        difference = list(accumulate(difference))
    return tuple(difference[len(interior):])


def lattice_point_counts(cfg, max_dilate: int | None = None) -> CountSequence:
    """CountSequence via the lattice-point route (independent of normality).

    It refuses a budget below d (ValueError), then walks the plan (A, B) of
    `check_lp_cost`, which raises CostGuardError before any dilate: closed
    dilates 0..A by `count_lattice_points`, the interiors of 1..B by the
    route's walk with `strict`.  `_reciprocal_counts` reads the counts 0..A+B
    off the Ehrhart polynomial they fix, which every spare count must meet.
    """
    A, B = check_lp_cost(cfg, _budget(cfg.dimension, max_dilate))
    closed = [count_lattice_points(cfg, m=m) for m in range(A + 1)]
    walk, d = _lp_route(cfg.graph)[0], cfg.dimension
    interior = [walk.count(m, strict=True) for m in range(1, B + 1)]
    return CountSequence(dimension=d, counts=_reciprocal_counts(d, closed, interior))


# ---------------------------------------------------------------------------
# counts <-> h*-polynomial
# ---------------------------------------------------------------------------

# Bit operations the counts-to-h* transform may be charged before it is
# refused: the d = 2500 simplex's counts are charged about 4.7e10 (1.2 s in
# process on a 2-vCPU VM), d = 20000 ones about 8.0e12.
TRANSFORM_BIT_LIMIT = 10 ** 11


def _difference(values, times: int) -> list[int]:
    """(1-x)^times * sum values[m] x^m through x^(len(values)-1): `times`
    passes of first differences, the entry before the first read as 0.

    A pass at most doubles an entry, so with B the largest entry's bit length
    the passes take at most times * len(values) * (B + times) bit operations;
    CostGuardError refuses more than TRANSFORM_BIT_LIMIT before the first pass."""
    values = list(values)
    cost = times * len(values) * (max(map(abs, values), default=0).bit_length() + times)
    if cost > TRANSFORM_BIT_LIMIT:
        raise CostGuardError(
            f"counts-to-h* transform refused: {shown(cost)} bit operations estimated for "
            f"{times} passes over {len(values)} values, over the limit {TRANSFORM_BIT_LIMIT}")
    for _ in range(times):
        values = [b - a for a, b in zip([0] + values, values)]
    return values


def hstar_from_counts(cs: CountSequence) -> IntPolynomial:
    """h*-polynomial from dilate counts: the numerator of the Ehrhart series,
    h*(x) = (1-x)^(d+1) sum_m i(P, m) x^m (Beck-Robins, ch. 4), read as the
    first d+1 entries of `_difference` of the counts.  A negative one, or a
    nonzero later entry, signals a counting bug or insufficient data and
    raises at the first met.
    """
    d, difference = cs.dimension, _difference(cs.counts, cs.dimension + 1)
    for i, value in enumerate(difference):
        if i <= d and value < 0:
            raise VerificationError(f"h*_{i} = {value} negative; counts inconsistent")
        if i > d and value:
            raise VerificationError(
                f"transform of count at dilate {i} is {value}, expected 0; counts inconsistent")
    return IntPolynomial(difference[:d + 1])


def hstar_polynomial(cfg, method: str = "semigroup",
                     max_dilate: int | None = None) -> tuple[IntPolynomial, CountSequence]:
    """Full pipeline: dilate counts by the requested route, then the h*-polynomial.

    The dilate budget defaults to d+1 (the minimum d plus one vanish check);
    a smaller one is refused with the required count, a negative one (ValueError) by the route.
    """
    needed = cfg.dimension + 1
    M = needed if max_dilate is None else max_dilate
    if 0 <= M < needed:
        raise CostGuardError(f"dilate budget {M} too small: need counts through dilate {needed}")
    if method == "semigroup":
        cs = semigroup_counts(cfg, M)
    elif method == "lp":
        cs = lattice_point_counts(cfg, M)
    else:
        raise ValueError(f"unknown counting method {method!r}")
    return hstar_from_counts(cs), cs
