import itertools
import json
import random
import time
from types import SimpleNamespace

import pytest

from cutpoly import cli, ehrhart
from cutpoly import graph as graph_module
from cutpoly.errors import CostGuardError, VerificationError
from cutpoly.ehrhart import (
    CountSequence,
    count_lattice_points,
    hstar_from_counts,
    hstar_polynomial,
    lattice_point_counts,
    semigroup_counts,
)
from cutpoly.graph import (
    CutConfiguration,
    Graph,
    complete_bipartite,
    configuration,
    cycle,
    fundamental_cycles,
    path,
)
from cutpoly.lattice import lattice_basis
from cutpoly.polynomial import (
    IntPolynomial,
    eulerian,
    hibi_lower_bound_ok,
    hstar_closed_form_k2m,
    is_palindromic,
)

from oracles import (
    bridges_by_removal,
    ehrhart_from_hstar,
    even_on_cycles,
    hstar_by_signed_row,
    interpolated_value,
    meets_cycle_inequalities,
)


class TestCountSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountSequence(dimension=1, counts=(2, 3))
        with pytest.raises(ValueError):
            CountSequence(dimension=1, counts=(1, 5, 3))
        with pytest.raises(ValueError):
            CountSequence(dimension=-1, counts=(1,))

    def test_json_round_trip(self):
        cs = CountSequence(dimension=2, counts=(1, 4, 9, 16))
        assert CountSequence.from_json(cs.to_json()) == cs


class TestSemigroupCounts:
    def test_dilate_zero_is_one(self, k23_counts, c4_config):
        assert k23_counts.counts[0] == 1
        assert semigroup_counts(c4_config).counts[0] == 1

    def test_k2_by_hand(self, k2_config):
        # sums of two columns of ((0,1),(1,1)): (0,2),(1,2),(2,2)
        assert semigroup_counts(k2_config, 2).counts[2] == 3

    def test_k23_dilate_one_counts_vertices(self, k23_counts):
        assert k23_counts.counts[1] == 16

    def test_rejects_negative(self, k2_config):
        with pytest.raises(ValueError):
            semigroup_counts(k2_config, -1)

    def test_unit_cube_counts(self):
        # trees give unit cubes: i(P,m) = (m+1)^edges
        for edges in (1, 2, 3):
            cfg = configuration(path(edges))
            cs = semigroup_counts(cfg)
            assert cs.counts == tuple((m + 1) ** edges for m in range(edges + 2))


def _random_small_graph(rng, max_edges=6, max_vertices=5):
    """Connected, at most max_vertices vertices and at most max_edges edges."""
    n = rng.randrange(3, max_vertices + 1)
    edges = [(rng.randrange(1, i), i) for i in range(2, n + 1)]  # random spanning tree
    extra = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u, v) not in edges]
    rng.shuffle(extra)
    edges += extra[:rng.randrange(0, max_edges - len(edges) + 1)]
    return Graph(n, edges)


class TestPackedSumset:
    """The packed, new-points-only sweep against the plain tuple sumset oracle."""

    def test_random_graphs_match_tuple_sweep(self):
        from oracles import sumset_layer_sizes
        rng = random.Random(2008)
        for _ in range(20):
            cfg = configuration(_random_small_graph(rng))
            M = lattice_basis(cfg).rank
            assert semigroup_counts(cfg, M).counts == \
                tuple(sumset_layer_sizes(cfg.columns, M)), cfg.graph

    def test_field_width_boundaries(self):
        # max_dilate 1..9 packs path(3) into fields of 1, 2, 3 and 4 bits
        columns = configuration(path(3)).columns
        for M in range(1, 10):
            assert ehrhart._semigroup_layer_sizes(columns, M) == \
                [(m + 1) ** 3 for m in range(M + 1)]

    def test_rejects_columns_it_cannot_pack(self, c4_config):
        # C_4's columns at its default budget, dilate 5, broken three ways
        cols = c4_config.columns
        assert cols[0] == (0, 0, 0, 0, 1)
        with pytest.raises(VerificationError):
            ehrhart._semigroup_layer_sizes(cols[1:], 5)
        for bad in ((2,) + cols[1][1:], cols[1][:-1] + (0,)):
            with pytest.raises(ValueError):
                ehrhart._semigroup_layer_sizes((cols[0], bad) + cols[2:], 5)

    def test_cost_guard_refuses_before_the_layer(self, monkeypatch, k23_config, layers_built):
        # at its default budget (dilate 7) K_{2,3} shifts an estimated
        # 750,975 bits through dilate 4 and 1,740,300 through dilate 5
        monkeypatch.setattr(ehrhart, "SEMIGROUP_BIT_LIMIT", 750_975)
        assert ehrhart._semigroup_layer_sizes(k23_config.columns, 4) == [1, 16, 117, 544, 1885]
        layers_built[0] = 0
        with pytest.raises(CostGuardError) as exc:
            semigroup_counts(k23_config)
        message = str(exc.value)
        assert "dilate 5" in message
        assert "1740300 bits" in message and "750975" in message
        assert layers_built == [4]


def _leading_edges_close_a_cycle(g) -> bool:
    """True iff the first n-1 edges of g are not a spanning tree."""
    component = list(range(g.vertex_count + 1))
    for u, v in g.edges[:g.vertex_count - 1]:
        cu, cv = component[u], component[v]
        if cu == cv:
            return True
        component = [cu if c == cv else c for c in component]
    return False


class TestBitsetSumset:
    """The bitset kernel, whose low block is a spanning forest found in edge
    order, against the plain tuple sumset oracle."""

    def test_shuffled_edge_orders_match_tuple_sweep(self):
        from oracles import sumset_layer_sizes
        rng = random.Random(2019)
        shuffled = closing = 0
        for _ in range(24):
            n = rng.randrange(3, 7)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            edges = [tuple(sorted((labels[rng.randrange(i)], labels[i]))) for i in range(1, n)]
            extra = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in edges]
            edges += rng.sample(extra, rng.randrange(0, min(3, len(extra)) + 1))
            rng.shuffle(edges)
            g = Graph(n, edges)
            shuffled += _leading_edges_close_a_cycle(g)
            closing += g.edge_count - (n - 1) >= 2
            M = min(5, 9 - n)
            columns = configuration(g).columns
            assert ehrhart._semigroup_layer_sizes(columns, M) == \
                sumset_layer_sizes(columns, M), g.edges
        # the sample holds graphs whose tree edges are not the leading ones
        # and graphs with two or more closing edges
        assert shuffled >= 4 and closing >= 4

    def test_random_01_configurations_match_tuple_sweep(self):
        # 0/1 columns that are not cut vectors: distinct low patterns, random
        # high bits whose parities need not follow from the low ones, so a
        # high field too narrow for max_dilate would merge distinct points
        from oracles import sumset_layer_sizes
        rng = random.Random(1986)
        for _ in range(40):
            low, high = rng.randrange(2, 4), rng.randrange(1, 4)
            patterns = rng.sample(range(1, 1 << low), rng.randrange(2, (1 << low)))
            columns = [(0,) * (low + high) + (1,)] + [
                tuple([p >> i & 1 for i in range(low)]
                      + [rng.randrange(2) for _ in range(high)] + [1])
                for p in patterns]
            M = rng.randrange(1, 6)
            assert ehrhart._semigroup_layer_sizes(columns, M) == \
                sumset_layer_sizes(columns, M), columns

    def test_low_base_and_field_width_boundaries(self, c4_config, k23_config):
        # max_dilate 1..9: low base M+1 from 2 to 10, high fields of 1 to 4
        # bits over one closing edge (C_4) and two (K_{2,3}, whose counts are
        # read off the closed form's h*)
        from oracles import sumset_layer_sizes
        c4 = sumset_layer_sizes(c4_config.columns, 9)
        k23 = [ehrhart_from_hstar(hstar_closed_form_k2m(5), 6, m) for m in range(10)]
        for M in range(1, 10):
            assert ehrhart._semigroup_layer_sizes(c4_config.columns, M) == c4[:M + 1]
            assert ehrhart._semigroup_layer_sizes(k23_config.columns, M) == k23[:M + 1]

    def test_small_configurations_match_tuple_sweep(self):
        # C_5, K_{2,3}, K_4 with its tree edges out of order, and 0/1
        # non-cut columns whose high coordinates have free parities
        from oracles import sumset_layer_sizes
        rng = random.Random(1997)
        configs = [configuration(g).columns for g in (
            cycle(5), complete_bipartite(2, 3),
            Graph(4, [(3, 4), (1, 3), (2, 4), (1, 2), (2, 3), (1, 4)]))]
        for _ in range(6):
            patterns = rng.sample(range(1, 8), 5)
            configs.append([(0, 0, 0, 0, 0, 1)] + [
                tuple([p >> i & 1 for i in range(3)]
                      + [rng.randrange(2), rng.randrange(2), 1]) for p in patterns])
        for columns in configs:
            for M in (1, 3, 5):
                assert ehrhart._semigroup_layer_sizes(columns, M) == \
                    sumset_layer_sizes(columns, M), (columns, M)

    def test_one_long_bitset(self):
        # path(1) holds one point per layer, at bit m of one int
        M = 20_000
        assert ehrhart._semigroup_layer_sizes(configuration(path(1)).columns, M) == \
            list(range(1, M + 2))


class TestMembershipInDilate:
    """The phase-1 simplex decides whether a point, its last coordinate m,
    lies in the m-th dilate."""

    def test_vertex_dilates(self, c4_config):
        for m in (1, 2, 5):
            for col in c4_config.columns[:3]:
                point = tuple(m * x for x in col)
                assert ehrhart._phase1(c4_config.columns, point)

    def test_two_column_sums(self, k23_config):
        cols = k23_config.columns
        point = tuple(a + b for a, b in zip(cols[2], cols[9]))
        assert ehrhart._phase1(cols, point)

    def test_all_twos_in_double_c4(self, c4_config):
        assert ehrhart._phase1(c4_config.columns, (2, 2, 2, 2, 2))

    def test_box_violation_is_outside(self, c4_config):
        assert not ehrhart._phase1(c4_config.columns, (3, 0, 0, 0, 2))

    def test_odd_parity_point_is_outside(self, c4_config):
        # a cut meets the 4-cycle evenly, so (1,0,0,0) cannot lie in 1*P
        assert not ehrhart._phase1(c4_config.columns, (1, 0, 0, 0, 1))

    def test_random_certificates(self, k23_config):
        rng = random.Random(17)
        cols = k23_config.columns
        for _ in range(40):
            weights = [rng.randrange(0, 3) for _ in cols]
            m = sum(weights)
            point = tuple(sum(w * c[i] for w, c in zip(weights, cols)) for i in range(7))
            if m == 0:
                continue
            assert ehrhart._phase1(cols, point)

    def test_simplex_against_fraction_oracle(self, c4_config, k23_config):
        from oracles import fraction_simplex_feasible
        rng = random.Random(41)
        for cfg in (c4_config, k23_config):
            r = cfg.row_count
            for _ in range(120):
                m = rng.randrange(0, 4)
                point = tuple(rng.randrange(0, m + 1) for _ in range(r - 1)) + (m,)
                assert ehrhart._phase1(cfg.columns, point) == \
                    fraction_simplex_feasible(cfg.columns, point), point


class TestLatticePointCounts:
    def test_k2_dilate_one(self, k2_config):
        assert count_lattice_points(k2_config, 1) == 2

    def test_agreement_small_graphs(self):
        # normal cases: both routes must produce identical counts through d+1;
        # the guard charges C_4 with a pendant path of 3 edges its 4 cycle
        # edges' boxes (15,333 points through dilate 8), not all 7 (8,080,425)
        c4_tail = Graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6), (6, 7)])
        for g in (path(1), path(2), path(3), cycle(4), complete_bipartite(2, 2), c4_tail):
            cfg = configuration(g)
            semi = semigroup_counts(cfg)
            lp = lattice_point_counts(cfg)
            assert semi == lp, g

    def test_builds_no_cut_vector(self, monkeypatch, capsys):
        # the route reads the graph alone: path(20), whose 2^19 columns of 21
        # entries the configuration guard refuses, is counted with no cut
        # vector built, to h* = A_20
        def refuse(g):
            raise AssertionError(f"cut vectors of {g} built")

        monkeypatch.setattr(graph_module, "cut_polytope_vertices", refuse)
        cfg = configuration(path(20))
        assert count_lattice_points(cfg, 2) == 3 ** 20
        assert hstar_from_counts(lattice_point_counts(cfg)) == eulerian(20)
        assert cli.main(["hstar", "--path", "20", "--method", "lp", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["lp"]["coefficients"] == list(eulerian(20).coeffs)

    def test_c4_dilate_two_matches_semigroup(self, c4_config):
        assert count_lattice_points(c4_config, 2) == \
            semigroup_counts(c4_config).counts[2]

    def test_cost_guard_refuses_before_the_first_candidate(self, monkeypatch):
        # K_{3,3} at dilates 0..10: 9 edges on cycles, an exact walk over 8 of
        # them, closed dilates 0..5 and interiors 1..5: (6^9 + 4^9) // 9.  The
        # guard reads the route it builds, but walks no dilate and runs no
        # simplex
        walked = []
        monkeypatch.setattr(ehrhart._CycleWalk, "count", lambda *args: walked.append(args))
        calls = _count_simplex_calls(monkeypatch)
        with pytest.raises(CostGuardError) as exc:
            lattice_point_counts(configuration(complete_bipartite(3, 3)))
        assert str(exc.value) == (
            "lp route refused: at least 1148871 box candidates on 8 walked edges for closed "
            f"dilates 0..5 and 5 interiors, over the limit {ehrhart.LP_CANDIDATE_LIMIT}")
        assert walked == [] and calls[0] == 0

    def test_cost_guard_plans(self):
        # (A, B): B = floor(M/2) with M >= d, else 0; the 7- and 8-cycle-edge
        # graphs pass, K_5's 10 edges on cycles are refused at any budget, and
        # a negative budget is no plan at all
        cases = ((cycle(7), None, (4, 4)), (cycle(8), None, (5, 4)),
                 (complete_bipartite(2, 4), None, (5, 4)), (cycle(4), 4, (2, 2)),
                 (cycle(4), 3, (3, 0)))
        for g, M, plan in cases:
            assert ehrhart.check_lp_cost(configuration(g), M) == plan, (g, M)
        for call in (ehrhart.check_lp_cost, lattice_point_counts):
            with pytest.raises(ValueError, match="dilate must be nonnegative"):
                call(configuration(path(3)), -5)
        for M in (0, 2, None):
            with pytest.raises(CostGuardError, match="10 edges on cycles, over the 9 "):
                ehrhart.check_lp_cost(configuration(K5), M)

    def test_cost_guard_is_quick_on_a_huge_budget(self):
        # a single edge at dilates 0..10^12 is a bridge: one point per closed
        # dilate 0..5*10^11 and interior 1..5*10^11; a triangle walks 2 edges,
        # bounded below in two powers rather than a loop over the dilates
        half = 5 * 10 ** 11
        with pytest.raises(CostGuardError) as exc:
            lattice_point_counts(configuration(path(1)), 10 ** 12)
        assert f"at least {10 ** 12} box candidates on 0 walked edges" in str(exc.value)
        with pytest.raises(CostGuardError) as exc:
            lattice_point_counts(configuration(cycle(3)), 10 ** 12)
        assert f"at least {((half + 1) ** 3 + (half - 1) ** 3) // 3} box" in str(exc.value)

    def test_pruner_only_rejects_infeasible_points(self, k23_config):
        # every point the cycle-inequality pruner drops must fail the exact test
        k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        cases = [configuration(cycle(4)), configuration(cycle(5)), configuration(cycle(6)),
                 k23_config, configuration(k4)]
        for cfg in cases:
            cycles = fundamental_cycles(cfg.graph)
            r = cfg.row_count - 1
            for m in (1, 2):
                for prefix in itertools.product(range(m + 1), repeat=r):
                    if not meets_cycle_inequalities(cycles, prefix, m):
                        assert not ehrhart._phase1(cfg.columns, prefix + (m,))


K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
PETERSEN = Graph(10, [(i, i % 5 + 1) for i in range(1, 6)]
                 + [(i, i + 5) for i in range(1, 6)]
                 + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])


K5 = Graph(5, list(itertools.combinations(range(1, 6), 2)))
K5_MINUS_EDGE = Graph(5, [e for e in K5.edges if e != (4, 5)])
PRISM = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])


def _plain_count(cfg, m):
    """Lattice points of the box that the simplex puts in the m-th dilate."""
    cycles = fundamental_cycles(cfg.graph)
    return sum(1 for z in itertools.product(range(m + 1), repeat=cfg.dimension)
               if even_on_cycles(cycles, z) and ehrhart._phase1(cfg.columns, z + (m,)))


def _count_simplex_calls(monkeypatch):
    """Count the calls to ehrhart._phase1 in a one-element list."""
    calls = [0]
    phase1 = ehrhart._phase1

    def counted(columns, rhs):
        calls[0] += 1
        return phase1(columns, rhs)

    monkeypatch.setattr(ehrhart, "_phase1", counted)
    return calls


def _walk_graphs():
    """The seeded random graphs shared by the walk and LP-count tests."""
    rng = random.Random(1997)
    return [_random_small_graph(rng, max_edges=7) for _ in range(20)]


class TestLatticeWalk:
    """The walk over lattice points, against the box filtered by cycle parity
    and the cycles' odd-F inequalities."""

    def test_walk_is_the_box_filtered_by_in_lattice(self):
        # over any cycle family, here the fundamental cycles, the walk counts
        # the box's lattice points that meet the family's inequalities, each
        # bridge a factor m+1
        cases = [(g, 3) for g in (cycle(4), cycle(5), K4, complete_bipartite(2, 3))]
        cases.append((PETERSEN, 1))
        cases += [(g, 3) for g in _walk_graphs()]
        for g, top in cases:
            cycles = fundamental_cycles(g)
            walk = ehrhart._CycleWalk(g, cycles)
            for m in range(top + 1):
                box = [z for z in itertools.product(range(m + 1), repeat=g.edge_count)
                       if even_on_cycles(cycles, z) and meets_cycle_inequalities(cycles, z, m)]
                assert walk.count(m) == len(box), (g, m)

    def test_holds_is_the_cycle_rule(self):
        # the walk's rule, read point by point, is the parity and odd-F rule
        # of its family on every box point, in the lattice or not
        tail = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
        for g in (cycle(4), cycle(5), K4, complete_bipartite(2, 3), tail):
            for cycles in (fundamental_cycles(g), ehrhart._chordless_cycles(g)):
                walk = ehrhart._CycleWalk(g, cycles)
                for m in range(3):
                    for z in itertools.product(range(m + 1), repeat=g.edge_count):
                        assert walk.holds(z, m) == (even_on_cycles(cycles, z) and
                                                    meets_cycle_inequalities(cycles, z, m)), \
                            (g, m, z)


class TestCertificates:
    """The LP route's counts against the simplex: per point, per dilate, and
    through the spot check that guards the chordless-cycle count."""

    def test_counts_match_a_plain_per_point_count(self):
        for g in _walk_graphs() + [K4, cycle(5), complete_bipartite(2, 3)]:
            cfg = configuration(g)
            cycles = fundamental_cycles(g)
            for m in range(5):
                plain = sum(1 for z in itertools.product(range(m + 1), repeat=g.edge_count)
                            if even_on_cycles(cycles, z) and meets_cycle_inequalities(cycles, z, m)
                            and ehrhart._phase1(cfg.columns, z + (m,)))
                assert count_lattice_points(cfg, m) == plain, (g, m)

    def test_simplex_calls_at_the_default_budget(self, monkeypatch, k23_config):
        calls = [0]
        phase1 = ehrhart._phase1

        def counted(columns, rhs):
            calls[0] += 1
            return phase1(columns, rhs)

        monkeypatch.setattr(ehrhart, "_phase1", counted)
        # without the caches: 58,140, 8,482 and 12,138 calls
        cases = [(k23_config, 28288, 1000), (configuration(K4), 3312, 200),
                 (configuration(cycle(5)), 7028, 500)]
        for cfg, top_count, limit in cases:
            calls[0] = 0
            assert lattice_point_counts(cfg).counts[-1] == top_count
            assert calls[0] < limit, (cfg.graph, calls[0])

    def test_wrong_simplex_answers_are_refused(self, monkeypatch, c4_config):
        phase1 = ehrhart._phase1

        def flipped(columns, rhs):
            return not phase1(columns, rhs)

        monkeypatch.setattr(ehrhart, "_phase1", flipped)
        with pytest.raises(VerificationError, match="disagree"):
            count_lattice_points(c4_config, 2)

    def test_a_widened_walk_is_refused(self, monkeypatch):
        # the spot check asks the walk's own rule: with every closed range
        # widened to the box (parity kept) the walk overcounts C_5 at dilate
        # 2, and the simplex refuses a spot point the widened rule holds
        values = ehrhart._closing_values

        def widened(rests, m, strict=False):
            found = values(rests, m, strict)
            return found if strict or not found else range(found.start % found.step, m + 1,
                                                           found.step)

        monkeypatch.setattr(ehrhart, "_closing_values", widened)
        with pytest.raises(VerificationError, match="disagree"):
            count_lattice_points(configuration(cycle(5)), 2)

    def test_a_forest_draws_no_spot_columns(self, monkeypatch):
        # a forest's one column makes every spot point the origin, so no
        # column is drawn at any dilate
        drawn = []
        for name in ("choice", "choices"):
            def logged(self, *args, name=name, draw=getattr(random.Random, name), **kwargs):
                drawn.append(name)
                return draw(self, *args, **kwargs)

            monkeypatch.setattr(random.Random, name, logged)
        cfg = configuration(path(3))
        assert [count_lattice_points(cfg, m) for m in range(6)] == [(m + 1) ** 3 for m in range(6)]
        assert drawn == []

    def test_inequality_rule_matches_the_simplex(self):
        # every lattice point of the box, accepted or not; in K_4 and K_{2,3}
        # some chordless cycles are not fundamental
        k23 = complete_bipartite(2, 3)
        assert len(ehrhart._chordless_cycles(K4)) == 4 > len(fundamental_cycles(K4))
        assert len(ehrhart._chordless_cycles(k23)) == 3 > len(fundamental_cycles(k23))
        cases = [(g, 3) for g in (cycle(4), cycle(5), cycle(6), K4, k23)]
        cases += [(g, 2) for g in _walk_graphs()]
        for g, top in cases:
            cfg = configuration(g)
            cycles = ehrhart._chordless_cycles(g)
            rule = ehrhart._CycleWalk(g, cycles)
            for m in range(top + 1):
                inside = 0
                for z in itertools.product(range(m + 1), repeat=g.edge_count):
                    if not even_on_cycles(cycles, z):
                        continue
                    admitted = meets_cycle_inequalities(cycles, z, m)
                    assert admitted == ehrhart._phase1(cfg.columns, z + (m,)), (g, m, z)
                    inside += admitted
                assert rule.count(m) == inside, (g, m)

    def test_counts_on_seven_to_nine_edges(self):
        # the largest graphs that take the chordless-cycle count
        from cutpoly.ehrhart import K5_MINOR_FREE_EDGES
        for g in (complete_bipartite(2, 4), PRISM, K5_MINUS_EDGE):
            assert 7 <= g.edge_count <= K5_MINOR_FREE_EDGES
            cfg = configuration(g)
            for m in range(3):
                assert count_lattice_points(cfg, m) == _plain_count(cfg, m), (g, m)

    def test_closed_form_count_matches_the_simplex_on_every_walked_point(self):
        # the chordless-cycle count, its last edge counted in closed form,
        # against the simplex deciding each lattice point of the box
        graphs = _walk_graphs() + [cycle(5), K4, complete_bipartite(2, 3),
                                   complete_bipartite(2, 4), PRISM, K5_MINUS_EDGE]
        for g in graphs:
            cfg = configuration(g)
            rule = ehrhart._CycleWalk(g, ehrhart._chordless_cycles(g))
            for m in range(3):
                assert rule.count(m) == _plain_count(cfg, m), (g, m)

    def test_bridges_on_ten_or_more_edges(self, monkeypatch):
        # a pendant edge multiplies the count by m+1.  K_{3,3} with one has
        # 10 edges, 9 on cycles, so the chordless-cycle count takes it with
        # spot checks only; K_5 with one has 10 on cycles and is refused
        calls = _count_simplex_calls(monkeypatch)
        g = Graph(7, list(complete_bipartite(3, 3).edges) + [(6, 7)])
        on_cycles = g.edge_count - len(bridges_by_removal(g))
        assert g.edge_count > ehrhart.K5_MINOR_FREE_EDGES == on_cycles
        cfg = configuration(g)
        counts = [count_lattice_points(cfg, m) for m in range(3)]
        assert calls[0] <= 3 * ehrhart.SPOT_CHECKS
        assert counts == [_plain_count(cfg, m) for m in range(3)]
        k5_tail = Graph(6, list(K5.edges) + [(5, 6)])
        with pytest.raises(CostGuardError, match="lp route refused: 10 edges on cycles"):
            count_lattice_points(configuration(k5_tail), 1)

    def test_simplex_sees_bridges_at_zero(self, monkeypatch):
        # Cut(G) is the cut polytope on its cycle edges times [0,1] per
        # bridge: every column and point the simplex reads holds its bridges
        # at 0, the columns are distinct, and a tree's 2^|E| fold into one
        triangle_tail = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
        plain = [_plain_count(configuration(triangle_tail), m) for m in range(3)]
        seen = []
        phase1 = ehrhart._phase1

        def logged(columns, rhs):
            seen.append((columns, rhs))
            return phase1(columns, rhs)

        monkeypatch.setattr(ehrhart, "_phase1", logged)
        cases = ((path(8), [(m + 1) ** 8 for m in range(3)]), (triangle_tail, plain))
        for g, expected in cases:
            bridges = bridges_by_removal(g)
            cfg = configuration(g)
            for m in range(3):
                seen.clear()
                assert count_lattice_points(cfg, m) == expected[m], (g, m)
                assert seen, (g, m)
                for columns, rhs in seen:
                    assert len(set(columns)) == len(columns) == \
                        2 ** (g.vertex_count - 1 - len(bridges)), (g, m)
                    assert not any(col[e] or rhs[e] for col in columns for e in bridges), (g, m)

    def test_spot_points_are_pinned(self, monkeypatch):
        # the simplex re-decides the same points on every run: a triangle
        # with a pendant path at dilate 3 draws 16, every bridge at 0, and
        # keeps the 10 distinct ones in order
        cfg = configuration(Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]))
        plain = _plain_count(cfg, 3)
        seen = []
        phase1 = ehrhart._phase1

        def logged(columns, rhs):
            seen.append(rhs)
            return phase1(columns, rhs)

        monkeypatch.setattr(ehrhart, "_phase1", logged)
        assert count_lattice_points(cfg, 3) == plain
        assert seen == [z + (0, 0, 3) for z in (
            (1, 3, 2), (2, 2, 2), (3, 3, 2), (1, 2, 3), (0, 0, 0),
            (3, 2, 3), (2, 0, 2), (0, 2, 2), (2, 1, 1), (2, 3, 1))]

    def test_a_tree_takes_one_simplex_call_a_dilate(self, monkeypatch):
        # every spot point of a tree is the origin once its bridges are 0
        calls = _count_simplex_calls(monkeypatch)
        counts = lattice_point_counts(configuration(path(12))).counts
        assert counts == tuple((m + 1) ** 12 for m in range(14))
        assert calls[0] == 8  # closed dilates 0..7; interiors 1..6 take none

    def test_columns_zeroed_once_per_configuration(self, monkeypatch):
        # the route, its cycle edges and its zeroed columns, is built once for
        # all dilates of a graph, not once per dilate
        for g in (path(6), cycle(5)):
            cfg = configuration(g)
            counts = [count_lattice_points(cfg, m) for m in range(3)]
            assert counts == [_plain_count(cfg, m) for m in range(3)], g
        assert ehrhart._lp_route.cache_info().misses == 2

    def test_route_columns_are_the_zeroed_configuration(self):
        # the columns read off the cycle vertices' sides are, in order, the
        # configuration's columns with every bridge at 0, deduplicated: on
        # seeded graphs with bridges, vertex 1 on a cycle and off every one
        rng = random.Random(2028)
        seen = set()
        for _ in range(40):
            n = rng.randrange(3, 9)
            edges = [(rng.randrange(1, i), i) for i in range(2, n + 1)]
            extra = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                     if (u, v) not in edges]
            edges += rng.sample(extra, rng.randrange(0, min(3, len(extra)) + 1))
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            g = Graph(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])
            bridges = bridges_by_removal(g)
            if not bridges or g.edge_count - len(bridges) > ehrhart.K5_MINOR_FREE_EDGES:
                continue
            zeroed = dict.fromkeys(tuple(0 if e in bridges else x for e, x in enumerate(col))
                                   for col in configuration(g).columns)
            assert ehrhart._lp_route(g)[1] == tuple(zeroed), g
            seen.add(any(1 in g.edges[e] for e in set(range(g.edge_count)) - bridges))
        assert seen == {True, False}

    def test_a_long_tail_builds_at_once(self):
        # a triangle at the end of a 21-edge tail: of the 2^23 sides the route
        # reads the 2^3 of the triangle's vertices, for 4 distinct columns
        g = Graph(24, [(i, i + 1) for i in range(1, 24)] + [(22, 24)])
        start = time.perf_counter()
        walk, columns = ehrhart._lp_route(g)
        assert time.perf_counter() - start < 1
        assert walk._bridges == 21 and len(columns) == 4

    def test_simplex_runs_only_for_the_spot_check(self, monkeypatch):
        calls = _count_simplex_calls(monkeypatch)
        for g, top in ((cycle(6), 7), (K4, 7), (complete_bipartite(2, 4), 4)):
            cfg = configuration(g)
            for m in range(top + 1):
                calls[0] = 0
                count_lattice_points(cfg, m)
                assert 1 <= calls[0] <= ehrhart.SPOT_CHECKS, (g, m, calls[0])

    def test_k5_is_refused(self, monkeypatch):
        # 10 edges: the chordless cycles are the triangles, and all twos at
        # dilate 3 meets every triangle inequality, but its sum 20 exceeds 3
        # times the maximum cut of 6 edges.  So the walk would overcount, and
        # the route is refused before it is built
        cfg = configuration(K5)
        twos = (2,) * K5.edge_count
        assert meets_cycle_inequalities(ehrhart._chordless_cycles(K5), twos, 3)
        assert not ehrhart._phase1(cfg.columns, twos + (3,))
        calls = _count_simplex_calls(monkeypatch)
        for m in range(3):
            with pytest.raises(CostGuardError) as exc:
                count_lattice_points(cfg, m)
            assert str(exc.value) == (
                "lp route refused: 10 edges on cycles, over the 9 up to which the "
                "chordless-cycle walk is exact (no K5 minor)")
        assert calls[0] == 0


class TestReciprocity:
    """The interior walk, and the counts read off the Ehrhart polynomial that
    reciprocity fixes, against the semigroup route and every dilate's count."""

    def test_interior_walk_is_the_ehrhart_polynomial_at_minus_m(self):
        # i(P°, m) = (-1)^d E(-m), with E fitted through the semigroup
        # route's counts at dilates 0..d
        for g in (cycle(4), cycle(5), K4, complete_bipartite(2, 3)):
            cfg = configuration(g)
            d = cfg.dimension
            counts = semigroup_counts(cfg, d).counts
            rule = ehrhart._CycleWalk(g, ehrhart._chordless_cycles(g))
            for m in range(1, d + 2):
                assert rule.count(m, strict=True) == \
                    (-1) ** d * interpolated_value(counts, -m), (g, m)

    def test_interior_walk_multiplies_bridges_by_m_minus_1(self):
        # path(3) is the cube [0,1]^3: (m-1)^3 interior points; C_4 with a
        # pendant edge has C_4's interior times m-1
        walk = ehrhart._CycleWalk(path(3), [])
        c4 = ehrhart._CycleWalk(cycle(4), ehrhart._chordless_cycles(cycle(4)))
        tail = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)])
        with_tail = ehrhart._CycleWalk(tail, ehrhart._chordless_cycles(tail))
        for m in range(1, 6):
            assert walk.count(m, strict=True) == (m - 1) ** 3
            assert with_tail.count(m, strict=True) == (m - 1) * c4.count(m, strict=True)

    def test_seeded_graphs_match_every_dilate_and_the_semigroup_route(self):
        # connected graphs on at most 6 vertices and 9 edges; a budget the LP
        # guard refuses (each has 9 edges on cycles) is skipped, as counting
        # every dilate under it would take minutes
        rng = random.Random(1904)
        checked = 0
        for _ in range(30):
            cfg = configuration(_random_small_graph(rng, max_edges=9, max_vertices=6))
            for M in (cfg.dimension + 1, cfg.dimension + 3):
                try:
                    ehrhart.check_lp_cost(cfg, M)
                except CostGuardError:
                    continue
                counts = lattice_point_counts(cfg, M).counts
                assert counts == tuple(count_lattice_points(cfg, m) for m in range(M + 1)), \
                    (cfg.graph, M)
                assert counts == semigroup_counts(cfg, M).counts, (cfg.graph, M)
                checked += 1
        assert checked >= 56

    def test_dilates_walked(self, monkeypatch):
        # closed dilates 0..ceil(M/2) by count_lattice_points, interiors
        # 1..floor(M/2) by the strict walk
        walked = []
        count = ehrhart._CycleWalk.count

        def logged(self, m, strict=False):
            walked.append((m, strict))
            return count(self, m, strict)

        monkeypatch.setattr(ehrhart._CycleWalk, "count", logged)
        for M, closed, interior in ((5, 3, 2), (6, 3, 3), (9, 5, 4)):
            walked.clear()
            assert lattice_point_counts(configuration(cycle(4)), M).counts == \
                semigroup_counts(configuration(cycle(4)), M).counts
            assert walked == [(m, False) for m in range(closed + 1)] + \
                [(m, True) for m in range(1, interior + 1)], M

    def test_a_budget_below_d_is_refused_before_counting(self, monkeypatch, layers_built):
        # C_4 (d = 4) at budgets 0..3: the LP plan is closed dilates 0..M and
        # no interior, but M+1 counts cannot fix a polynomial of degree 4, so
        # either route refuses before its first walk or layer
        walked = []
        monkeypatch.setattr(ehrhart._CycleWalk, "count", lambda *args: walked.append(args))
        calls = _count_simplex_calls(monkeypatch)
        cfg = configuration(cycle(4))
        assert ehrhart.check_lp_cost(cfg, 3) == (3, 0)
        for M in range(4):
            for route in (lattice_point_counts, semigroup_counts):
                with pytest.raises(ValueError, match=f"need counts through dilate 4, have {M}$"):
                    route(cfg, M)
        assert (walked, calls[0], layers_built[0]) == ([], 0, 0)

    def test_one_walk_per_configuration(self, monkeypatch):
        # the closed dilates and the interiors share the route's one walk
        built = []
        init = ehrhart._CycleWalk.__init__

        def logged(self, g, cycles):
            built.append(g)
            init(self, g, cycles)

        monkeypatch.setattr(ehrhart._CycleWalk, "__init__", logged)
        for g, M in ((cycle(5), None), (K4, None), (cycle(5), 9)):
            lattice_point_counts(configuration(g), M)
        assert built == [cycle(5), K4, cycle(5)]

    def test_route_built_once_per_graph(self, monkeypatch):
        # the route is cached on the graph, which hashes its edges: equal
        # configurations share one build, and no configuration (all 2^(n-1)
        # columns) is ever hashed
        built = []
        init = ehrhart._CycleWalk.__init__

        def logged(self, g, cycles):
            built.append(g)
            init(self, g, cycles)

        monkeypatch.setattr(ehrhart._CycleWalk, "__init__", logged)
        monkeypatch.setattr(CutConfiguration, "__hash__", lambda self: pytest.fail("hashed"))
        cfg, other = configuration(cycle(5)), configuration(cycle(5))
        assert other == cfg and other is not cfg
        assert lattice_point_counts(cfg) == semigroup_counts(cfg)
        assert lattice_point_counts(other, 9) == semigroup_counts(other, 9)
        assert ehrhart._lp_route(other.graph) is ehrhart._lp_route(cfg.graph)
        assert built == [cycle(5)]

    def test_a_count_off_by_one_is_refused(self, monkeypatch):
        # one interior or closed count one too high, at each walked dilate in
        # turn, contradicts the spare equation
        count = ehrhart._CycleWalk.count
        for g in (cycle(4), cycle(5), K4, complete_bipartite(2, 3)):
            cfg = configuration(g)
            M = cfg.dimension + 1
            for wrong in [(m, True) for m in range(1, M // 2 + 1)] + \
                    [(m, False) for m in range((M + 1) // 2 + 1)]:
                def off(self, m, strict=False, wrong=wrong):
                    return count(self, m, strict) + ((m, strict) == wrong)

                monkeypatch.setattr(ehrhart._CycleWalk, "count", off)
                with pytest.raises(VerificationError, match="breaks Ehrhart reciprocity"):
                    lattice_point_counts(cfg)

    def test_reciprocal_counts_of_a_known_polytope(self):
        # the unit square: i(P, m) = (m+1)^2 and i(P°, m) = (m-1)^2, so
        # E(-4..4) = 9, 4, 1, 0, 1, 4, 9, 16, 25; the values are checked
        # from the fourth on, each against the three before it
        assert ehrhart._reciprocal_counts(2, [1, 4, 9, 16, 25], [0, 1, 4, 9]) == \
            tuple((m + 1) ** 2 for m in range(9))
        for closed, interior, message in (
                ([1, 4, 9, 17, 25], [0, 1, 4, 9],
                 "the closed count of dilate 3 breaks Ehrhart reciprocity: E(3) = 17, "
                 "but the 3 values before it give 16"),
                ([1, 4, 9, 16, 25], [1, 1, 4, 9],
                 "the interior count of dilate 1 breaks Ehrhart reciprocity: E(-1) = 1, "
                 "but the 3 values before it give 0")):
            with pytest.raises(VerificationError) as exc:
                ehrhart._reciprocal_counts(2, closed, interior)
            assert str(exc.value) == message


def _outcome(transform, *args):
    """What the transform returns, or the message of its VerificationError."""
    try:
        return transform(*args)
    except VerificationError as exc:
        return str(exc)


def _predicted_hstar(d, counts):
    """`hstar_from_counts` as the signed-row oracle reads it."""
    row = hstar_by_signed_row(counts, d)
    for i, value in enumerate(row):
        if i <= d and value < 0:
            return f"h*_{i} = {value} negative; counts inconsistent"
        if i > d and value:
            return f"transform of count at dilate {i} is {value}, expected 0; counts inconsistent"
    return IntPolynomial(row[:d + 1])


def _predicted_reciprocal(d, closed, interior):
    """`_reciprocal_counts` by Lagrange interpolation: each value of E(-B..A)
    past the first d+1 must be the one the d+1 values before it fit."""
    values = [(-1) ** d * count for count in reversed(interior)] + closed
    for k in range(d + 1, len(values)):
        fitted = interpolated_value(values[k - d - 1:k], d + 1)
        if values[k] != fitted:
            m = k - len(interior)
            return (f"the {'closed' if m >= 0 else 'interior'} count of dilate {abs(m)} breaks "
                    f"Ehrhart reciprocity: E({m}) = {values[k]}, but the {d + 1} values "
                    f"before it give {fitted}")
    return tuple(int(interpolated_value(values[:d + 1], len(interior) + m))
                 for m in range(len(closed) + len(interior)))


class TestHstarTransforms:
    def test_seeded_transforms_match_the_oracles(self):
        # counts of a random h* of degree <= d through dilate M, read by both
        # transforms, then each closed or interior count moved by a nonzero
        # amount in turn: the transforms return, or raise, what the oracles
        # predict.  The counts enter hstar_from_counts as a bare record, so
        # that no perturbation is refused by CountSequence's own checks.
        rng = random.Random(30)
        for d in range(9):
            for M in range(d, d + 6):
                h = IntPolynomial([1] + [rng.randint(0, 4) for _ in range(d)])
                counts = [ehrhart_from_hstar(h, d, m) for m in range(M + 1)]
                assert hstar_from_counts(CountSequence(d, counts)) == h
                for at in range(M + 1):
                    moved = counts[:]
                    moved[at] += rng.choice((-2, -1, 1, 3))
                    assert _outcome(hstar_from_counts, SimpleNamespace(dimension=d, counts=moved)) \
                        == _predicted_hstar(d, moved), (d, M, at)
                for B in (0, rng.randint(1, M)) if M else (0,):
                    closed = counts[:M - B + 1]
                    interior = [(-1) ** d * int(interpolated_value(counts[:d + 1], -m))
                                for m in range(1, B + 1)]
                    assert ehrhart._reciprocal_counts(d, closed, interior) == tuple(counts)
                    for side, at in [(0, at) for at in range(len(closed))] + \
                            [(1, at) for at in range(B)]:
                        moved = [closed[:], interior[:]]
                        moved[side][at] += rng.choice((-2, -1, 1, 3))
                        assert _outcome(ehrhart._reciprocal_counts, d, *moved) == \
                            _predicted_reciprocal(d, *moved), (d, M, B, side, at)

    def test_transform_guard_refuses_before_the_first_pass(self, monkeypatch):
        # d+1 passes over the counts, each entry at most doubling: the d = 2
        # simplex's counts 1, 3, 6, 10 are charged 3 * 4 * (4 + 3) = 84 bit
        # operations, by either transform
        cs = CountSequence(dimension=2, counts=(1, 3, 6, 10))
        monkeypatch.setattr(ehrhart, "TRANSFORM_BIT_LIMIT", 84)
        assert hstar_from_counts(cs) == IntPolynomial([1])
        assert ehrhart._reciprocal_counts(2, [1, 3, 6, 10], []) == cs.counts
        monkeypatch.setattr(ehrhart, "TRANSFORM_BIT_LIMIT", 83)
        for transform, args in ((hstar_from_counts, (cs,)),
                                (ehrhart._reciprocal_counts, (2, [1, 3, 6, 10], []))):
            with pytest.raises(CostGuardError, match="84 bit operations estimated for 3 passes "
                                                     "over 4 values, over the limit 83"):
                transform(*args)

    def test_k23_reproduces_published_hstar(self, k23_counts):
        assert hstar_from_counts(k23_counts).coeffs == (1, 9, 26, 26, 9, 1)

    def test_unit_segment(self):
        cs = CountSequence(dimension=1, counts=(1, 2, 3, 4))
        assert hstar_from_counts(cs) == IntPolynomial([1])

    def test_tree_path2(self):
        h, _ = hstar_polynomial(configuration(path(2)))
        assert h == IntPolynomial([1, 1]) == eulerian(2)

    def test_needs_counts_through_dimension(self):
        with pytest.raises(ValueError):
            hstar_from_counts(CountSequence(dimension=3, counts=(1, 5)))

    def test_negative_coefficient_raises(self):
        with pytest.raises(VerificationError):
            hstar_from_counts(CountSequence(dimension=1, counts=(1, 1, 5)))

    def test_nonvanishing_tail_raises(self):
        with pytest.raises(VerificationError):
            hstar_from_counts(CountSequence(dimension=1, counts=(1, 2, 10)))

    def test_ehrhart_from_hstar_examples(self):
        assert ehrhart_from_hstar(IntPolynomial([1]), 1, 5) == 6
        h23 = hstar_closed_form_k2m(5)
        assert ehrhart_from_hstar(h23, 6, 1) == 16

    def test_round_trip(self, k23_counts):
        h = hstar_from_counts(k23_counts)
        for m in range(k23_counts.dilate_max + 1):
            assert ehrhart_from_hstar(h, 6, m) == k23_counts.counts[m]

    def test_degree_check(self):
        with pytest.raises(ValueError):
            ehrhart_from_hstar(IntPolynomial([1, 1, 1]), 1, 2)


class TestPipeline:
    def test_budget_refusal_names_required_dilates(self, c4_config):
        with pytest.raises(CostGuardError) as exc:
            hstar_polynomial(c4_config, max_dilate=3)
        assert "5" in str(exc.value)

    def test_negative_budget_is_a_value_error(self, c4_config):
        # a budget below 0 names no dilate to count: not a cost refusal
        for method in ("semigroup", "lp"):
            with pytest.raises(ValueError, match="dilate must be nonnegative"):
                hstar_polynomial(c4_config, method, -5)

    def test_unknown_method(self, c4_config):
        with pytest.raises(ValueError):
            hstar_polynomial(c4_config, method="magic")

    def test_c4_both_routes_give_closed_form_n4(self, c4_config):
        expected = hstar_closed_form_k2m(4)
        for method in ("semigroup", "lp"):
            h, cs = hstar_polynomial(c4_config, method)
            assert h == expected
            assert cs.dilate_max == 5

    def test_computed_hstars_satisfy_structure(self):
        for g in (path(1), path(2), path(3), cycle(4), complete_bipartite(2, 2)):
            h, _ = hstar_polynomial(configuration(g))
            assert is_palindromic(h)
            assert hibi_lower_bound_ok(h)
