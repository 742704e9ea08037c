"""Graphs, cut vectors, and cut-polytope configurations.

Vertices are labeled 1..m and vertex subsets are held as bitmasks (bit v-1
stands for vertex v).  The edge order of a graph is part of its identity: it
fixes the coordinate order of every cut vector.
"""

from __future__ import annotations

from .errors import CostGuardError, EdgeListParseError, VerificationError, as_mask, ascii_int
from .record import FrozenRecord

MAX_VERTICES = 24  # 2^(m-1) cut vectors are enumerated; keep this desk-scale


def _root_paths(vertex_count: int, edges) -> tuple:
    """Per vertex v (at index v-1), the bitmask of the edge ids on its path from
    vertex 1 in the breadth-first spanning tree that takes each vertex's edges
    in input order; None for a vertex the search does not reach."""
    adjacency = [[] for _ in range(vertex_count + 1)]
    for idx, (u, v) in enumerate(edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    above = [0] + [None] * (vertex_count - 1)
    queue = [1]
    for u in queue:  # the queue grows while it is read: breadth-first order
        for w, idx in adjacency[u]:
            if above[w - 1] is None:
                above[w - 1] = above[u - 1] | 1 << idx
                queue.append(w)
    return tuple(above)


class Graph:
    """Finite connected simple graph with an ordered edge list.

    Edges are unordered pairs {u, v} stored as (u, v) with u < v, in input
    order.  Construction rejects loops, duplicate edges, disconnected graphs,
    and more than MAX_VERTICES vertices.
    """

    __slots__ = ("vertex_count", "edges", "_edge_masks", "_root_paths")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 1:
            raise ValueError("vertex count must be positive")
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex count {vertex_count} exceeds cap {MAX_VERTICES}")
        normalized = []
        seen = set()
        for e in edges:
            u, v = e
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge {e} has endpoints outside 1..{vertex_count}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {{{u},{v}}}")
            seen.add((u, v))
            normalized.append((u, v))
        self.vertex_count = vertex_count
        self.edges = tuple(normalized)
        self._edge_masks = tuple((1 << (u - 1)) | (1 << (v - 1)) for u, v in self.edges)
        self._root_paths = _root_paths(vertex_count, self.edges)
        if None in self._root_paths:
            raise ValueError("graph is not connected")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph({self.vertex_count}, {list(self.edges)})"


class CutConfiguration(FrozenRecord):
    """Matrix whose columns are the cut vectors with an appended coordinate 1."""

    __slots__ = ("columns", "graph")  # tuple[tuple[int, ...], ...], Graph

    @property
    def row_count(self) -> int:
        return len(self.columns[0])

    @property
    def column_count(self) -> int:
        return len(self.columns)

    @property
    def dimension(self) -> int:
        """Dimension of Cut(G): the edge count, read off the graph.

        For an edge uv, 2 e_uv = delta({u}) + delta({v}) - delta({u,v}), so every
        unit vector lies in the span of the cut vectors and Cut(G) is
        full-dimensional (Barahona-Mahjoub, "On the cut polytope", 1986).
        """
        return self.graph.edge_count


def cut_vector(g: Graph, a) -> tuple[int, ...]:
    """Cut vector of the bipartition separating subset `a` from its complement.

    Coordinate i is 1 iff edge e_i has exactly one endpoint in `a`; the result
    is invariant under replacing `a` by its complement.
    """
    mask = as_mask(a, g.vertex_count)
    return tuple(1 if (mask & em).bit_count() == 1 else 0 for em in g._edge_masks)


# Entries one configuration may hold, 2^(m-1) columns of |E| + 1: path(12)
# holds 53,248, path(17) 2,359,296 and path(18) 4,980,736.
CONFIGURATION_ENTRY_LIMIT = 1 << 22


def cut_polytope_vertices(g: Graph) -> list[tuple[int, ...]]:
    """The 2^(m-1) distinct cut vectors of g, one per canonical bipartition.

    Order is deterministic: ascending canonical-mask order of the side not
    containing vertex 1.  Refused before the first vector when the
    configuration would hold more than CONFIGURATION_ENTRY_LIMIT entries.
    """
    if g.vertex_count < 2:
        raise ValueError("cut polytope needs at least 2 vertices")
    entries = (1 << (g.vertex_count - 1)) * (g.edge_count + 1)
    if entries > CONFIGURATION_ENTRY_LIMIT:
        raise CostGuardError(f"configuration refused for {g.vertex_count} vertices and "
                             f"{g.edge_count} edges: {entries} entries estimated, "
                             f"limit {CONFIGURATION_ENTRY_LIMIT}")
    vertices = [cut_vector(g, m << 1) for m in range(1 << (g.vertex_count - 1))]
    distinct = len(set(vertices))
    if distinct != len(vertices):
        # cannot happen for connected graphs; guards the connectivity invariant
        raise VerificationError("cut vectors of a connected graph collided")
    return vertices


def configuration(g: Graph) -> CutConfiguration:
    """Cut vectors of g as matrix columns with a final all-ones row appended."""
    cols = tuple(v + (1,) for v in cut_polytope_vertices(g))
    return CutConfiguration(columns=cols, graph=g)


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with parts {1..p} and {p+1..p+q}; edges in lexicographic (i, j) order."""
    if p < 1 or q < 1:
        raise ValueError("both parts must be nonempty")
    edges = [(i, j) for i in range(1, p + 1) for j in range(p + 1, p + q + 1)]
    return Graph(p + q, edges)


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices; edges {1,2},...,{n-1,n},{1,n}."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, edges)


def path(edge_count: int) -> Graph:
    """Path with the given number of edges (path(1) is a single edge)."""
    if edge_count < 1:
        raise ValueError("path needs at least one edge")
    return Graph(edge_count + 1, [(i, i + 1) for i in range(1, edge_count + 1)])


def fundamental_cycles(g: Graph) -> list[list[int]]:
    """Edge-index cycles from a BFS spanning tree rooted at vertex 1.

    One cycle per non-tree edge: the tree path between its endpoints, the
    symmetric difference of their root paths, plus the edge itself, as
    ascending edge ids.  Empty for trees.
    """
    above = g._root_paths
    cycles = []
    for idx, (u, v) in enumerate(g.edges):
        tree_path = above[u - 1] ^ above[v - 1]
        if tree_path != 1 << idx:  # only a tree edge's endpoints differ by itself
            mask = tree_path | 1 << idx
            cycles.append([e for e in range(mask.bit_length()) if mask >> e & 1])
    return cycles


# ---------------------------------------------------------------------------
# edge-list input
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line m, then one 'u v' per line.

    A loop, a duplicate edge or an endpoint out of range is reported at its
    own line; a bad vertex count or a disconnected graph at the count's line.
    """
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 1:
                raise EdgeListParseError(lineno, "expected a single vertex count")
            try:
                vertex_count = ascii_int(parts[0])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad vertex count {parts[0]!r}") from None
            count_line = lineno
            continue
        if len(parts) != 2:
            raise EdgeListParseError(lineno, "expected two endpoints 'u v'")
        try:
            u, v = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"bad endpoint in {line!r}") from None
        edges.append((lineno, u, v))
    if vertex_count is None:
        raise EdgeListParseError(1, "empty input")
    at = count_line

    def endpoints():
        # Graph reads the edges in order and rejects a bad one before it reads
        # the next, so `at` is the line of the edge it rejects
        nonlocal at
        for at, u, v in edges:
            yield u, v
        at = count_line

    try:
        return Graph(vertex_count, endpoints())
    except ValueError as exc:
        raise EdgeListParseError(at, str(exc)) from None


def read_edge_list(path_) -> Graph:
    with open(path_, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())

