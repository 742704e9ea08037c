import random

import pytest

from cutpoly.graph import Graph, complete_bipartite, configuration, fundamental_cycles, path
from cutpoly.lattice import (
    hnf_columns,
    lattice_basis,
    polytope_dimension,
)

from oracles import (
    bounded_membership_search,
    even_on_cycles,
    rational_determinant,
    rational_rank,
)


class TestHermiteNormalForm:
    def test_k2_basis_is_identity(self, k2_config):
        basis = lattice_basis(k2_config)
        assert basis.rank == 2
        assert basis.basis_columns == ((1, 0), (0, 1))
        assert basis.pivot_rows == (0, 1)

    def test_shape_convention(self, c4_config):
        basis = lattice_basis(c4_config)
        for j, (p, col) in enumerate(zip(basis.pivot_rows, basis.basis_columns)):
            assert col[p] > 0
            assert all(col[i] == 0 for i in range(p))
            for left in basis.basis_columns[:j]:
                assert 0 <= left[p] < col[p]
        assert list(basis.pivot_rows) == sorted(basis.pivot_rows)

    def test_idempotent(self, k23_config):
        first, pivots = hnf_columns(k23_config.columns)
        second, pivots2 = hnf_columns(first)
        assert first == second and pivots == pivots2

    def test_rank_against_rational_elimination(self, c4_config, k23_config):
        assert lattice_basis(c4_config).rank == rational_rank(c4_config.columns) == 5
        assert lattice_basis(k23_config).rank == rational_rank(k23_config.columns) == 7

    def test_pivot_product_matches_determinant(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(1, 5)
            matrix = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
            det = rational_determinant(matrix)
            if det == 0:
                continue
            columns = [list(col) for col in zip(*matrix)]
            basis, pivots = hnf_columns(columns)
            product = 1
            for p, col in zip(pivots, basis):
                product *= col[p]
            assert product == abs(det)

    def test_column_permutation_invariance(self, k23_config):
        rng = random.Random(5)
        shuffled = list(k23_config.columns)
        rng.shuffle(shuffled)
        b1 = lattice_basis(k23_config)
        b2 = lattice_basis(shuffled)
        # same lattice: mutual membership of the two bases
        assert all(b2.contains(c) for c in b1.basis_columns)
        assert all(b1.contains(c) for c in b2.basis_columns)
        assert b1.basis_columns == b2.basis_columns  # HNF is canonical

    def test_rejects_ragged_or_empty(self):
        with pytest.raises(ValueError):
            hnf_columns([])
        with pytest.raises(ValueError):
            hnf_columns([(1, 0), (1,)])


class TestMembership:
    def test_zero_vector(self, k23_basis):
        assert k23_basis.contains((0,) * 7)

    def test_k2_difference(self, k2_config):
        basis = lattice_basis(k2_config)
        # (1,1) - (0,1) = (1,0)
        assert basis.contains((1, 0))

    def test_every_column_round_trips(self, k23_config, c4_config):
        for cfg in (k23_config, c4_config):
            basis = lattice_basis(cfg)
            assert all(basis.contains(col) for col in cfg.columns)

    def test_c4_membership_against_bounded_search(self, c4_config):
        basis = lattice_basis(c4_config)
        # (1,0,0,0,1) has odd cut-parity sum, so no combination exists
        assert not basis.contains((1, 0, 0, 0, 1))
        assert not bounded_membership_search(c4_config.columns, (1, 0, 0, 0, 1), 2)
        # even-parity targets found by the bounded search must be members
        probe = (2, 0, 1, 1, 0)
        assert basis.contains(probe) == bounded_membership_search(
            c4_config.columns, probe, 2)

    def test_membership_random_combinations(self, k23_config):
        rng = random.Random(9)
        basis = lattice_basis(k23_config)
        cols = k23_config.columns
        for _ in range(50):
            combo = [rng.randrange(-3, 4) for _ in cols]
            vector = tuple(sum(c * col[i] for c, col in zip(combo, cols))
                           for i in range(7))
            assert basis.contains(vector)

    def test_dimension_mismatch(self, k23_basis):
        with pytest.raises(ValueError):
            k23_basis.contains((1, 2, 3))


class TestPolytopeDimension:
    def test_known_dimensions(self, k2_config, c4_config, k22_config, k23_config):
        assert polytope_dimension(k2_config) == 1
        assert polytope_dimension(c4_config) == 4
        assert polytope_dimension(k22_config) == 4
        assert polytope_dimension(k23_config) == 6

    def test_tree_dimension_is_edge_count(self):
        for e in (1, 2, 3, 4):
            assert polytope_dimension(configuration(path(e))) == e


def _random_connected_graph(rng):
    """Connected, at most 7 vertices, random labels and edge order."""
    n = rng.randrange(2, 8)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [(label[rng.randrange(0, i)], label[i]) for i in range(1, n)]
    extra = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u, v) not in edges and (v, u) not in edges]
    rng.shuffle(extra)
    edges += extra[:rng.randrange(0, len(extra) + 1)]
    rng.shuffle(edges)
    return Graph(n, edges)


class TestCutLatticeFromGraph:
    """The dimension and lattice read off the graph, against the HNF."""

    def test_dimension_and_cycle_parity_match_hnf(self):
        k5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
        petersen = Graph(10, [(i, i % 5 + 1) for i in range(1, 6)]
                         + [(i, i + 5) for i in range(1, 6)]
                         + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])
        rng = random.Random(1986)
        graphs = [k5, complete_bipartite(3, 3), petersen]
        graphs += [_random_connected_graph(rng) for _ in range(40)]
        for g in graphs:
            cfg = configuration(g)
            basis = lattice_basis(cfg)
            assert basis.rank - 1 == cfg.dimension, g
            cycles = fundamental_cycles(g)
            cols = cfg.columns
            for _ in range(200):
                # a random point, and a lattice point with one coordinate
                # possibly moved by one; every last coordinate is allowed
                z = [rng.randrange(-4, 5) for _ in cols[0]]
                picked = [(rng.randrange(-2, 3), rng.choice(cols)) for _ in range(3)]
                combo = [sum(w * c[i] for w, c in picked) for i in range(len(cols[0]))]
                combo[rng.randrange(len(combo))] += rng.randrange(0, 2)
                combo[-1] = rng.randrange(-4, 5)
                for point in (z, combo):
                    assert basis.contains(point) == even_on_cycles(cycles, point), (g, point)
