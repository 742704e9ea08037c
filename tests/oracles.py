"""Independent slow-but-obvious oracles used to pin expected values.

Everything here deliberately avoids the library's own algorithms: ranks and
determinants run rational Gaussian elimination, Stirling numbers enumerate set
partitions, lattice membership does a bounded exhaustive coefficient search,
Eulerian polynomials count descents over all permutations, dilate counts are
read back off an h*-polynomial, convolved into one with a signed binomial row
or extended to negative dilates by Lagrange interpolation, trees are built
from explicit edge lists,
fundamental cycles climb parent pointers to the endpoints' common ancestor,
bridges are the edges without which a search from vertex 1 misses a vertex,
a point meets a cycle's parity and odd-F inequalities when its sum on the
cycle is even and, for each odd k, its k largest coordinates there exceed the
rest by at most (k - 1) m,
semigroup layers are swept as tuple sumsets, the basis-binomial oracle
rebuilds every relation from ordered partition pairs, S-polynomials reduce as
dicts of terms, the chain test compares frozensets, standard monomials are
tested against that oracle's leads (all those of a degree filtered, the
squarefree ones walked), the paper's Table 1 cells read Stirling numbers off
set partitions, and polynomials multiply by the schoolbook double sum.
"""

from fractions import Fraction
import itertools
import math

from cutpoly.errors import CostGuardError
from cutpoly.graph import Graph
from cutpoly.grobner import PartitionMonomial, variable_table
from cutpoly.polynomial import IntPolynomial


def rational_rank(columns) -> int:
    """Rank by fraction-exact Gaussian elimination over the rows."""
    rows = [list(map(Fraction, row)) for row in zip(*[list(c) for c in columns])]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [x / pivot for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rational_determinant(matrix) -> Fraction:
    """Determinant of a square matrix (list of rows) by fraction-exact elimination."""
    rows = [list(map(Fraction, row)) for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for i in range(col + 1, n):
            if rows[i][col]:
                factor = rows[i][col] / pivot
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return det


def stirling2_by_partitions(n: int, k: int) -> int:
    """Count partitions of {1..n} into k nonempty blocks by direct enumeration."""
    if n == 0:
        return 1 if k == 0 else 0

    def rec(element, blocks):
        if element > n:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(element)
            total += rec(element + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([element])
            total += rec(element + 1, blocks)
            blocks.pop()
        return total

    return rec(1, [])


def eulerian_by_descents(n: int) -> IntPolynomial:
    """Descent-count enumeration over all n! permutations; oracle for eulerian()."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n > 10:
        raise CostGuardError(f"descent enumeration over {n}! permutations refused")
    counts = [0] * n
    for w in itertools.permutations(range(n)):
        descents = sum(1 for i in range(n - 1) if w[i] > w[i + 1])
        counts[descents] += 1
    return IntPolynomial(counts)


def ehrhart_from_hstar(h: IntPolynomial, d: int, m: int) -> int:
    """i(P, m) from h*: sum_i h*_i C(m+d-i, d); exact inverse of hstar_from_counts."""
    if h.degree > d:
        raise ValueError(f"h* degree {h.degree} exceeds dimension {d}")
    if m < 0:
        raise ValueError("dilate must be nonnegative")
    return sum(h.coefficient(i) * math.comb(m + d - i, d) for i in range(d + 1))


def hstar_by_signed_row(counts, d: int) -> list[int]:
    """(1-x)^(d+1) sum_m counts[m] x^m through x^(len(counts)-1): entry i is
    sum_j (-1)^j C(d+1, j) counts[i-j], the signed binomial row convolved
    with the counts."""
    row = [(-1) ** j * math.comb(d + 1, j) for j in range(d + 2)]
    return [sum(c * counts[i - j] for j, c in enumerate(row[:i + 1]))
            for i in range(len(counts))]


def interpolated_value(values, x: int) -> Fraction:
    """The polynomial of degree below len(values) through (k, values[k]) for
    k = 0, 1, ..., read at x by Lagrange's formula."""
    total = Fraction(0)
    for k, value in enumerate(values):
        term = Fraction(value)
        for j in range(len(values)):
            if j != k:
                term *= Fraction(x - j, k - j)
        total += term
    return total


def tree_from_edges(edges) -> Graph:
    """Tree from an explicit edge list; vertex count is the largest label."""
    edges = [tuple(e) for e in edges]
    if not edges:
        raise ValueError("tree needs at least one edge")
    m = max(max(e) for e in edges)
    g = Graph(m, edges)  # connectivity checked here
    if g.edge_count != m - 1:
        raise ValueError("edge list is connected but not acyclic")
    return g


def fundamental_cycles_by_climb(g: Graph) -> list[list[int]]:
    """One sorted edge-index cycle per non-tree edge of the BFS tree from
    vertex 1 that takes each vertex's edges in input order: the edge plus the
    tree edges met climbing both endpoints to their common ancestor."""
    adjacency = {v: [] for v in range(1, g.vertex_count + 1)}
    for idx, (u, v) in enumerate(g.edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    parent, depth = {1: (None, None)}, {1: 0}
    queue = [1]
    while queue:
        u = queue.pop(0)
        for w, idx in adjacency[u]:
            if w not in parent:
                parent[w], depth[w] = (u, idx), depth[u] + 1
                queue.append(w)
    tree = {idx for _, idx in parent.values()}
    cycles = []
    for idx, (a, b) in enumerate(g.edges):
        if idx in tree:
            continue
        found = [idx]
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, up = parent[a]
            found.append(up)
        cycles.append(sorted(found))
    return cycles


def bridges_by_removal(g: Graph) -> set[int]:
    """The edge ids of g whose removal disconnects it: each edge is left out
    in turn of a depth-first search from vertex 1."""
    bridges = set()
    for skip in range(g.edge_count):
        reached, stack = {1}, [1]
        while stack:
            u = stack.pop()
            for idx, (a, b) in enumerate(g.edges):
                w = b if a == u else a if b == u else None
                if idx != skip and w is not None and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) < g.vertex_count:
            bridges.add(skip)
    return bridges


def even_on_cycles(cycles, z) -> bool:
    """True iff z sums to an even number on every cycle, a list of edge ids."""
    return all(sum(z[e] for e in cyc) % 2 == 0 for cyc in cycles)


def meets_cycle_inequalities(cycles, z, m: int) -> bool:
    """True iff every coordinate of z lies in 0..m and z meets each cycle's
    odd-F inequalities z(F) - z(C minus F) <= (|F| - 1) m: for every odd k,
    the cycle's k largest coordinates minus the rest total at most (k - 1) m."""
    if not all(0 <= x <= m for x in z):
        return False
    for cyc in cycles:
        values = sorted((z[e] for e in cyc), reverse=True)
        for k in range(1, len(values) + 1, 2):
            if sum(values[:k]) - sum(values[k:]) > (k - 1) * m:
                return False
    return True


def sumset_layer_sizes(columns, max_dilate: int) -> list[int]:
    """|A + ... + A| (m summands) for m = 0..max_dilate, by plain tuple sums.

    Each layer is rebuilt from the whole previous one; nothing is packed and
    no column is assumed to be zero.
    """
    columns = [tuple(c) for c in columns]
    layer = {(0,) * len(columns[0])}
    sizes = [1]
    for _ in range(max_dilate):
        layer = {tuple(a + b for a, b in zip(s, c)) for s in layer for c in columns}
        sizes.append(len(layer))
    return sizes


def bounded_membership_search(columns, target, bound: int) -> bool:
    """Is target an integer combination of columns with coefficients in [-bound, bound]?

    A True answer is a certificate; False only means no small-coefficient
    combination exists, so callers pair it with an independent argument.
    """
    columns = [tuple(c) for c in columns]
    target = tuple(target)
    coeffs = range(-bound, bound + 1)
    for combo in itertools.product(coeffs, repeat=len(columns)):
        candidate = tuple(sum(c * col[i] for c, col in zip(combo, columns))
                          for i in range(len(target)))
        if candidate == target:
            return True
    return False


def fraction_simplex_feasible(columns, rhs) -> bool:
    """Textbook phase-1 simplex over Fractions, Bland's rule, no shortcuts.

    Decides whether rhs is a nonnegative rational combination of the columns;
    cross-validates the library's fraction-free tableau implementation.
    """
    ncols = len(columns)
    nrows = len(rhs)
    rows = []
    for i in range(nrows):
        row = [Fraction(col[i]) for col in columns] + [Fraction(rhs[i])]
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)
    obj = [Fraction(0)] * (ncols + 1)
    for row in rows:
        for j in range(ncols + 1):
            obj[j] -= row[j]
    rows.append(obj)
    basis = [ncols + i for i in range(nrows)]
    while True:
        entering = next((j for j in range(ncols) if rows[nrows][j] < 0), None)
        if entering is None:
            return rows[nrows][ncols] == 0
        leave = None
        best = None
        for i in range(nrows):
            if rows[i][entering] > 0:
                ratio = rows[i][ncols] / rows[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded")
        pivot = rows[leave][entering]
        rows[leave] = [x / pivot for x in rows[leave]]
        for i in range(nrows + 1):
            if i != leave and rows[i][entering]:
                factor = rows[i][entering]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[leave])]
        basis[leave] = entering


def cut_ideal_basis_by_pairs(n: int):
    """Rebuild the three binomial families from scratch over ordered partition pairs.

    Partitions are encoded as frozensets of the side not containing vertex 1.
    Returns a set of (family, lead, trail) with lead and trail being frozensets
    of two encodings each.
    """
    full = frozenset(range(1, n + 1))
    rest = frozenset(range(3, n + 1))

    def canon(side):
        side = frozenset(side)
        return side if 1 not in side else full - side

    found = set()
    # family 1 over ordered splits of {3..n}
    for bits in range(1 << len(rest)):
        members = sorted(rest)
        a = frozenset(members[i] for i in range(len(members)) if bits >> i & 1)
        b = rest - a
        lead = frozenset({canon({1} | a), canon({1} | b)})
        trail = frozenset({canon(frozenset()), canon({1, 2})})
        found.add((1, lead, trail))
    # families 2 and 3 over all ordered pairs of vertex subsets A, C
    for abits in range(1 << n):
        a_set = frozenset(v for v in range(1, n + 1) if abits >> (v - 1) & 1)
        for cbits in range(1 << n):
            c_set = frozenset(v for v in range(1, n + 1) if cbits >> (v - 1) & 1)
            if a_set <= c_set or c_set <= a_set:
                continue
            b_set, d_set = full - a_set, full - c_set
            lead = frozenset({canon(a_set), canon(c_set)})
            trail = frozenset({canon(a_set & c_set), canon(a_set | c_set)})
            if 1 in a_set and 1 in c_set and 2 in b_set and 2 in d_set:
                if not (a_set & c_set == {1} and b_set & d_set == {2}):
                    found.add((2, lead, trail))
            if 1 in a_set & c_set and 2 in a_set & c_set:
                found.add((3, lead, trail))
    return found


def reduce_by_terms(poly, trails) -> dict:
    """Normal form of an integer combination of monomials, {ascending id
    tuple: coefficient}, against a quadratic basis {lead pair: trail pair}.

    Rewrites the largest term that a lead divides, by the smallest such lead,
    until no lead divides any term.  Terms of one degree compare as tuples,
    which is the reverse lexicographic order on ascending ids.
    """
    terms = {m: c for m, c in poly.items() if c}
    while True:
        reducible = {}
        for m in terms:
            dividing = [pair for pair in itertools.combinations(sorted(set(m)), 2)
                        if pair in trails]
            if dividing:
                reducible[m] = min(dividing)
        if not reducible:
            return terms
        m = max(reducible)
        lead = reducible[m]
        rest = list(m)
        for v in lead:
            rest.remove(v)
        new = tuple(sorted(rest + list(trails[lead])))
        total = terms.get(new, 0) + terms.pop(m)
        if total:
            terms[new] = total
        else:
            terms.pop(new, None)


def buchberger_failures_by_terms(gb) -> list[dict]:
    """Every pair a < b of basis binomials whose leads share a variable and
    whose S-polynomial does not reduce to zero by `reduce_by_terms`, in the
    failure format of the Buchberger certificate."""
    trails = {tuple(b.lead): tuple(b.trail) for b in gb}
    failures = []
    for (a, ga), (b, gb_) in itertools.combinations(enumerate(gb), 2):
        if not set(ga.lead) & set(gb_.lead):
            continue
        support = set(ga.lead) | set(gb_.lead)
        plus, minus = (tuple(sorted(list(support - set(g.lead)) + list(g.trail)))
                       for g in (ga, gb_))
        normal_form = reduce_by_terms({plus: 1, minus: -1} if plus != minus else {}, trails)
        if normal_form:
            failures.append({"pair": [a, b], "normal_form": {
                str(m): c for m, c in sorted(normal_form.items())}})
    return failures


def pattern_split(mono):
    """Factor a squarefree monomial into its two variable classes.

    Returns (together-class sides not containing 1 or 2, split-class sets A'
    where the variable's vertex-1 side is {1} u A'), each a frozenset.
    """
    table = variable_table(mono.n)
    rest = frozenset(range(3, mono.n + 1))
    together = []
    split = []
    for i in mono.ids:
        side = frozenset(table.encode(i))  # the side not containing vertex 1
        if 2 in side:
            split.append(rest - (side - {2}))
        else:
            together.append(side)
    return together, split


def chain_characterization_by_sets(mono) -> bool:
    """The nested-chain test on frozensets: both classes strict inclusion
    chains, the split class not running from the empty set to all of {3..n}."""
    def strict_chain(sets):
        ordered = sorted(sets, key=len)
        return all(a < b for a, b in zip(ordered, ordered[1:]))

    together, split = pattern_split(mono)
    if not strict_chain(together) or not strict_chain(split):
        return False
    if split:
        ordered = sorted(split, key=len)
        if ordered[0] == frozenset() and ordered[-1] == frozenset(range(3, mono.n + 1)):
            return False
    return True


def lead_ids_by_pairs(n: int) -> set:
    """The leads of `cut_ideal_basis_by_pairs` as frozensets of two variable ids."""
    table = variable_table(n)
    return {frozenset(map(table.index_of, lead)) for _, lead, _ in cut_ideal_basis_by_pairs(n)}


def standard_count_by_filter(n: int, m: int) -> int:
    """Standard monomials of degree m: every degree-m multiset of the 2^(n-1)
    variables, kept when no lead of the pair oracle divides it (every lead is
    two distinct variables)."""
    leads = lead_ids_by_pairs(n)
    return sum(1 for ids in itertools.combinations_with_replacement(range(len(variable_table(n))), m)
               if not any(frozenset(pair) in leads for pair in itertools.combinations(set(ids), 2)))


def class_pool(n: int, split: bool) -> int:
    """Bitmask of the variable ids of one class: split (vertex 2 on the side
    not containing vertex 1) or 12-together."""
    table = variable_table(n)
    return sum(1 << i for i in range(len(table)) if (2 in table.encode(i)) == split)


def squarefree_standard_walk(n: int, pool: int | None = None):
    """Yield every squarefree standard monomial whose variable ids lie in the
    bitmask `pool` (every variable when None), by a depth-first walk that adds
    a larger id only when it forms no lead of the pair oracle with those
    chosen."""
    leads = lead_ids_by_pairs(n)
    ids = [i for i in range(len(variable_table(n))) if pool is None or pool >> i & 1]

    def walk(chosen, start):
        yield PartitionMonomial(n, chosen)
        for at in range(start, len(ids)):
            if not any(frozenset((i, ids[at])) in leads for i in chosen):
                yield from walk(chosen + (ids[at],), at + 1)

    yield from walk((), 0)


def table1_cells(n: int, k: int) -> dict[str, int]:
    """The paper's Table 1: the 12-together chains of k sets over {3..n},
    split by whether the chain starts at the empty set and ends at all of
    {3..n}.  Padded with those two ends, a chain of j steps is an ordered
    partition of {3..n} into j blocks, so each cell is j! S(n-2, j)."""
    def chains(j):
        return math.factorial(j) * stirling2_by_partitions(n - 2, j) if j >= 0 else 0

    return {
        "min_empty_max_full": chains(k - 1),
        "min_nonempty_max_full": chains(k),
        "min_empty_max_not_full": chains(k),
        "min_nonempty_max_not_full": chains(k + 1),
    }


def poly_mul(a, b) -> list[int]:
    """Coefficients of the product of two coefficient lists (index = exponent)
    by the schoolbook double sum, trailing zeros dropped."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out
