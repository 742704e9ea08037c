import itertools
import random
import time

import pytest

from cutpoly.errors import CostGuardError, EdgeListParseError, as_mask
from cutpoly.graph import (
    Graph,
    complete_bipartite,
    configuration,
    cut_polytope_vertices,
    cut_vector,
    cycle,
    fundamental_cycles,
    parse_edge_list,
    path,
    read_edge_list,
)

from oracles import fundamental_cycles_by_climb, tree_from_edges

# the eight cut vectors of the 4-cycle with edges {1,2},{2,3},{3,4},{1,4}
C4_VERTICES = {
    (0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1),
}

# reference configuration of Cut(K_{2,3}) under edge order
# (1,3),(2,3),(1,4),(2,4),(1,5),(2,5); the final all-ones row is implicit
K23_REFERENCE_ROWS = [
    "0 0 0 0 1 1 1 1 0 0 0 0 1 1 1 1",
    "0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1",
    "0 0 1 1 1 1 0 0 1 1 0 0 0 0 1 1",
    "0 0 1 1 0 0 1 1 0 0 1 1 0 0 1 1",
    "0 1 0 1 1 0 1 0 1 0 1 0 0 1 0 1",
    "0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1",
]
# positions of the reference rows in the constructor's lexicographic edge order
# (1,3),(1,4),(1,5),(2,3),(2,4),(2,5)
K23_ROW_REMAP = (0, 2, 4, 1, 3, 5)


def _random_connected_graph(rng, m):
    edges = [(rng.randrange(1, i), i) for i in range(2, m + 1)]  # random spanning tree
    extra = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
             if (u, v) not in set(edges)]
    rng.shuffle(extra)
    edges.extend(extra[: rng.randrange(0, len(extra) + 1)])
    return Graph(m, edges)


class TestGraphConstruction:
    def test_rejects_loops_duplicates_disconnection(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 2), (2, 1), (2, 3)])
        with pytest.raises(ValueError):
            Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])

    def test_named_constructors(self):
        k23 = complete_bipartite(2, 3)
        assert k23.vertex_count == 5 and k23.edge_count == 6
        assert k23.edges == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
        assert path(1) == Graph(2, [(1, 2)])
        assert cycle(4).edges == ((1, 2), (2, 3), (3, 4), (1, 4))
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)

    def test_tree_from_edges(self):
        t = tree_from_edges([(1, 2), (2, 3), (2, 4)])
        assert t.vertex_count == 4 and t.edge_count == 3
        with pytest.raises(ValueError):
            tree_from_edges([(1, 2), (2, 3), (1, 3)])  # cycle
        with pytest.raises(ValueError):
            tree_from_edges([])

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Graph(25, [(i, i + 1) for i in range(1, 25)])


class TestPartition:
    """A bipartition is named by its canonical side, the side not containing
    vertex 1, as an even mask; the vertices are listed in that mask order."""

    def test_canonical_side_excludes_vertex_1(self):
        g = complete_bipartite(2, 3)
        side = as_mask({2, 4, 5}, 5)
        assert side & 1 == 0
        assert as_mask({1, 3}, 5) == side ^ 0b11111
        assert cut_vector(g, {1, 3}) == cut_vector(g, {2, 4, 5}) == cut_vector(g, side)
        assert cut_polytope_vertices(g)[side >> 1] == cut_vector(g, {1, 3})

    def test_all_partitions_count(self):
        for n in (2, 3, 4, 5):
            vertices = cut_polytope_vertices(path(n - 1))  # a tree's cuts are distinct
            assert len(vertices) == 2 ** (n - 1)
            assert len(set(vertices)) == len(vertices)

    def test_rejects_bad_vertices(self):
        for bad in ({5}, {0}, 1 << 4, -1):
            with pytest.raises(ValueError):
                as_mask(bad, 4)


class TestCutVectors:
    def test_c4_worked_example(self):
        g = cycle(4)
        assert tuple(cut_vector(g, {1, 2})) == (0, 1, 0, 1)
        assert tuple(cut_vector(g, {1})) == (1, 0, 0, 1)
        assert tuple(cut_vector(g, set())) == (0, 0, 0, 0)

    def test_complement_invariance_random(self):
        rng = random.Random(7)
        for _ in range(25):
            m = rng.randrange(2, 9)
            g = _random_connected_graph(rng, m)
            subset = {v for v in range(1, m + 1) if rng.random() < 0.5}
            complement = set(range(1, m + 1)) - subset
            assert cut_vector(g, subset) == cut_vector(g, complement)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cut_vector(cycle(4), {9})

    def test_c4_vertex_set(self):
        assert {tuple(v) for v in cut_polytope_vertices(cycle(4))} == C4_VERTICES

    def test_k2_vertices(self):
        assert {tuple(v) for v in cut_polytope_vertices(path(1))} == {(0,), (1,)}

    def test_vertex_count_random(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rng.randrange(2, 10)
            g = _random_connected_graph(rng, m)
            vertices = cut_polytope_vertices(g)
            assert len(vertices) == 2 ** (m - 1)
            assert len({tuple(v) for v in vertices}) == len(vertices)

    def test_vertex_count_up_to_twelve(self):
        rng = random.Random(13)
        for m in (10, 11, 12):
            g = _random_connected_graph(rng, m)
            vertices = cut_polytope_vertices(g)
            assert len(vertices) == 2 ** (m - 1)
            assert len({tuple(v) for v in vertices}) == len(vertices)


class TestConfiguration:
    def test_shape_and_ones_row(self):
        cfg = configuration(cycle(4))
        assert cfg.row_count == 5 and cfg.column_count == 8
        for col in cfg.columns:
            assert col[-1] == 1
            assert all(x in (0, 1) for x in col[:-1])

    def test_k2_configuration(self):
        cfg = configuration(path(1))
        assert sorted(cfg.columns) == [(0, 1), (1, 1)]

    def test_c4_column_sums(self):
        # column sum is 1 + (cut size); recompute cut sizes directly
        g = cycle(4)
        cfg = configuration(g)
        expected = sorted(
            1 + sum(cut_vector(g, m)) for m in range(0, 1 << 4, 2))
        assert sorted(sum(col) for col in cfg.columns) == expected

    def test_columns_in_canonical_partition_order(self):
        g = complete_bipartite(2, 3)
        assert cut_polytope_vertices(g) == [cut_vector(g, m) for m in range(0, 1 << 5, 2)]

    def test_entry_guard_refuses_before_the_first_vector(self):
        # 2^(m-1) columns of |E| + 1 entries: path(12) holds 53,248 and is
        # built; path(18) and K_{10,10} are refused over the limit 2^22
        assert configuration(path(12)).column_count == 4096
        for g, entries in ((path(18), 4980736), (complete_bipartite(10, 10), 52953088)):
            start = time.perf_counter()
            with pytest.raises(CostGuardError, match=f": {entries} entries estimated, limit 4194304"):
                configuration(g)
            assert time.perf_counter() - start < 1

    def test_k23_reference_matrix(self, k23_config):
        ref_cols = list(zip(*[list(map(int, row.split())) for row in K23_REFERENCE_ROWS]))
        remapped = {tuple(col[i] for i in K23_ROW_REMAP) + (1,) for col in ref_cols}
        assert set(k23_config.columns) == remapped
        assert k23_config.column_count == 16


class TestFundamentalCycles:
    def test_tree_has_none(self):
        assert fundamental_cycles(path(3)) == []

    def test_c4_single_cycle(self):
        assert fundamental_cycles(cycle(4)) == [[0, 1, 2, 3]]

    def test_k23_cycle_count_and_parity(self):
        g = complete_bipartite(2, 3)
        cycles = fundamental_cycles(g)
        assert len(cycles) == g.edge_count - g.vertex_count + 1 == 2
        # every cut vector meets every cycle evenly
        for v in cut_polytope_vertices(g):
            for cyc in cycles:
                assert sum(v[i] for i in cyc) % 2 == 0

    def test_every_connected_graph_up_to_five_vertices_in_both_edge_orders(self):
        checked = 0
        for m in range(1, 6):
            pairs = list(itertools.combinations(range(1, m + 1), 2))
            for bits in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                try:
                    Graph(m, edges)
                except ValueError:
                    continue  # disconnected
                for order in (edges, edges[::-1]):
                    g = Graph(m, order)
                    assert fundamental_cycles(g) == fundamental_cycles_by_climb(g)
                checked += 1
        assert checked == 1 + 1 + 4 + 38 + 728  # connected labelled graphs, OEIS A001187


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        text = "5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"
        assert parse_edge_list(text) == complete_bipartite(2, 3)
        target = tmp_path / "k23.txt"
        target.write_text(text, encoding="utf-8")
        assert read_edge_list(target) == complete_bipartite(2, 3)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("3\n1 2\n2 x\n")
        assert exc.value.line_number == 3
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("3\n1 2 3\n")
        assert exc.value.line_number == 2
        with pytest.raises(EdgeListParseError):
            parse_edge_list("")
        # each edge is reported at its own line, the whole graph at its count's
        for text, line, message in (
                ("4\n1 2\n2 3\n3 4\n1 2\n", 5, "duplicate edge {1,2}"),
                ("4\n1 2\n\n2 3\n3 3\n3 4\n", 5, "loop at vertex 3"),
                ("4\n1 2\n2 3\n3 5\n", 4, "edge (3, 5) has endpoints outside 1..4"),
                ("\n4\n1 2\n2 3\n", 2, "graph is not connected"),
                ("4 1\n1 2\n", 1, "expected a single vertex count"),
                ("\n\n0\n", 3, "vertex count must be positive"),
                ("25\n1 2\n", 1, "vertex count 25 exceeds cap 24")):
            with pytest.raises(EdgeListParseError) as exc:
                parse_edge_list(text)
            assert str(exc.value) == f"line {line}: {message}", text
