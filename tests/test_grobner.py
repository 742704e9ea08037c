import ast
import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from cutpoly import grobner
from cutpoly.errors import CostGuardError, VerificationError
from cutpoly.grobner import (
    PartitionMonomial,
    basis_payload,
    buchberger_check,
    count_standard_by_degree,
    count_type1,
    count_type2,
    enumerate_squarefree_standard,
    f_vector,
    format_binomial,
    generate_gb,
    is_standard,
    monomial,
    monomial_order_cmp,
    squarefree_standard_counts,
    variable_table,
)
from cutpoly.ehrhart import semigroup_counts
from cutpoly.graph import complete_bipartite, cut_vector
from cutpoly.polynomial import hstar_closed_form_k2m

from oracles import (
    buchberger_failures_by_terms,
    chain_characterization_by_sets,
    class_pool,
    cut_ideal_basis_by_pairs,
    pattern_split,
    squarefree_standard_walk,
    standard_count_by_filter,
    table1_cells,
)

# the nineteen basis binomials of the cut ideal for n = 5, as displayed:
# ((lead variable sides), (trail variable sides)), one side per partition
LISTED_N5 = [
    (((1,), (2,)), ((), (1, 2))),
    (((1, 3), (2, 3)), ((), (1, 2))),
    (((1, 4), (2, 4)), ((), (1, 2))),
    (((1, 5), (2, 5)), ((), (1, 2))),
    (((3,), (4, 5)), ((), (1, 2))),
    (((5,), (3, 4)), ((), (1, 2))),
    (((4,), (3, 5)), ((), (1, 2))),
    (((4,), (5,)), ((), (4, 5))),
    (((3,), (5,)), ((), (3, 5))),
    (((3,), (4,)), ((), (3, 4))),
    (((3, 5), (4, 5)), ((5,), (1, 2))),
    (((3, 4), (3, 5)), ((3,), (1, 2))),
    (((3, 4), (4, 5)), ((4,), (1, 2))),
    (((1, 4), (1, 5)), ((1,), (2, 3))),
    (((1, 3), (1, 5)), ((1,), (2, 4))),
    (((2, 3), (2, 4)), ((2,), (1, 5))),
    (((1, 3), (1, 4)), ((1,), (2, 5))),
    (((2, 3), (2, 5)), ((2,), (1, 4))),
    (((2, 4), (2, 5)), ((2,), (1, 3))),
]


def canonical_binomial_set(binomials):
    """Binomials as ((sorted lead encodings), (sorted trail encodings)) pairs."""
    out = set()
    for b in binomials:
        table = variable_table(b.lead.n)
        out.add((
            tuple(sorted(table.encode(i) for i in b.lead.ids)),
            tuple(sorted(table.encode(i) for i in b.trail.ids)),
        ))
    return out


def listed_n5_canonical():
    table = variable_table(5)

    def canon(sides):
        return tuple(sorted(table.encode(table.index_of(s)) for s in sides))

    return {(canon(lead), canon(trail)) for lead, trail in LISTED_N5}


def side_classes(n):
    """Per variable of [n], (smaller side's size, class), read off its encoding,
    the side not containing vertex 1."""
    table = variable_table(n)
    return [(min(len(side), n - len(side)), "1-and-2-split" if 2 in side else "12-together")
            for side in map(table.encode, range(len(table)))]


class TestVariableOrder:
    def test_counts(self):
        for n in (2, 3, 4, 5, 6):
            table = variable_table(n)
            assert len(table) == 2 ** (n - 1)
            assert len({table.encode(i) for i in range(len(table))}) == len(table)

    def test_empty_partition_is_smallest(self):
        table = variable_table(5)
        assert table.encode(0) == ()
        assert side_classes(5)[0][0] == 0

    def test_min_size_is_primary(self):
        sizes = [size for size, _ in side_classes(5)]
        assert sizes == sorted(sizes)

    def test_split_precedes_together_within_min_size(self):
        by_class = side_classes(5)
        for size in (1, 2):
            patterns = [p for s, p in by_class if s == size]
            boundary = patterns.index("12-together")
            assert all(p == "1-and-2-split" for p in patterns[:boundary])
            assert all(p == "12-together" for p in patterns[boundary:])

    def test_index_of_reads_either_side_as_vertices_or_mask(self):
        table = variable_table(5)
        i = table.index_of({1, 3})
        assert table.encode(i) == (2, 4, 5)
        assert table.index_of({2, 4, 5}) == table.index_of(0b11010) == table.index_of(0b00101) == i
        for bad in ({5, 6}, {0}, 1 << 5, -1):
            with pytest.raises(ValueError):
                table.index_of(bad)


class TestPartitionMonomial:
    def test_slotted_and_frozen(self):
        mono = PartitionMonomial(5, (7, 2, 2))
        assert mono.ids == (2, 2, 7)
        assert not hasattr(mono, "__dict__")
        same = PartitionMonomial(5, (2, 7, 2))
        assert mono == same and hash(mono) == hash(same)
        assert mono != PartitionMonomial(6, (2, 2, 7))
        assert len({mono, same, PartitionMonomial(5, (2, 7))}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            mono.ids = (1,)

    def test_the_monomial_is_its_ids_tuple(self):
        mono = PartitionMonomial(5, (7, 2))
        assert mono.ids is mono
        assert sys.getsizeof(mono) == sys.getsizeof(tuple(mono))
        assert mono == (2, 7) and (2, 7) == mono and hash(mono) == hash((2, 7))
        other = PartitionMonomial(6, (2, 7))
        assert other != mono and not other == mono and mono != other
        assert other.n == 6 and mono.n == 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del mono.n
        with pytest.raises(dataclasses.FrozenInstanceError):
            mono.extra = 1

    def test_pickle_deepcopy_and_repr(self):
        for mono in (PartitionMonomial(5, (7, 2, 2)), PartitionMonomial(6, ())):
            for copied in (pickle.loads(pickle.dumps(mono)), copy.deepcopy(mono)):
                assert copied == mono and type(copied) is type(mono)
            assert repr(mono) == f"PartitionMonomial(n={mono.n}, ids={tuple(mono)!r})"
        assert repr(PartitionMonomial(6, ())) == "PartitionMonomial(n=6, ids=())"


class TestMonomialOrder:
    def test_variable_comparison_by_min_size(self):
        empty = monomial(5, [()])
        singleton_1 = monomial(5, [(1,)])
        assert monomial_order_cmp(empty, singleton_1) == -1

    def test_equal_monomials(self):
        a = monomial(5, [(1, 3), (2,)])
        assert monomial_order_cmp(a, a) == 0

    def test_first_listed_lead_beats_trail(self):
        lead = monomial(5, [(1,), (2,)])
        trail = monomial(5, [(), (1, 2)])
        assert monomial_order_cmp(lead, trail) == 1

    def test_total_order_on_samples(self):
        rng = random.Random(23)
        table = variable_table(5)
        monos = [PartitionMonomial(5, tuple(sorted(rng.choices(range(len(table)), k=2))))
                 for _ in range(30)]
        for a, b in itertools.combinations(monos, 2):
            assert monomial_order_cmp(a, b) == -monomial_order_cmp(b, a)
        # transitivity spot check via sorting stability
        import functools
        ordered = sorted(monos, key=functools.cmp_to_key(monomial_order_cmp))
        for x, y in zip(ordered, ordered[1:]):
            assert monomial_order_cmp(x, y) <= 0

    def test_multiplicative_on_equal_degrees(self):
        rng = random.Random(29)
        table = variable_table(5)
        for _ in range(40):
            a = PartitionMonomial(5, tuple(sorted(rng.choices(range(len(table)), k=2))))
            b = PartitionMonomial(5, tuple(sorted(rng.choices(range(len(table)), k=2))))
            w = PartitionMonomial(5, tuple(sorted(rng.choices(range(len(table)), k=1))))
            aw = PartitionMonomial(5, a.ids + w.ids)
            bw = PartitionMonomial(5, b.ids + w.ids)
            assert monomial_order_cmp(a, b) == monomial_order_cmp(aw, bw)


class TestGenerateBasis:
    def test_n5_equals_listed_set(self):
        assert canonical_binomial_set(generate_gb(5)) == listed_n5_canonical()
        assert len(generate_gb(5)) == 19

    def test_family_breakdown_n5(self):
        fams = Counter(b.family for b in generate_gb(5))
        assert fams == {1: 4, 2: 6, 3: 9}

    def test_n4_against_pair_oracle(self):
        got = {
            (b.family,
             frozenset(frozenset(variable_table(4).encode(i)) for i in b.lead.ids),
             frozenset(frozenset(variable_table(4).encode(i)) for i in b.trail.ids))
            for b in generate_gb(4)
        }
        expected = {
            (family, frozenset(lead), frozenset(trail))
            for family, lead, trail in cut_ideal_basis_by_pairs(4)
        }
        assert got == expected
        assert len(generate_gb(4)) == 3

    def test_n5_against_pair_oracle(self):
        got = {
            (b.family,
             frozenset(frozenset(variable_table(5).encode(i)) for i in b.lead.ids),
             frozenset(frozenset(variable_table(5).encode(i)) for i in b.trail.ids))
            for b in generate_gb(5)
        }
        expected = {
            (family, frozenset(lead), frozenset(trail))
            for family, lead, trail in cut_ideal_basis_by_pairs(5)
        }
        assert got == expected

    def test_leads_squarefree_and_greater(self):
        # and the conflict masks, formed without the basis, join its leads
        for n in range(4, 10):
            basis = generate_gb(n)
            bad = [0] * len(variable_table(n))
            for i, j in (b.lead.ids for b in basis):
                bad[i] |= 1 << j
                bad[j] |= 1 << i
            assert grobner._conflict_masks(n) == tuple(bad), n
            for b in basis:
                assert b.lead.squarefree
                assert monomial_order_cmp(b.lead, b.trail) == 1

    def test_reversed_variable_order_raises(self, monkeypatch):
        # with the ids reversed some lead falls below its trail
        table = grobner.VariableTable(5)
        top = len(table) - 1
        table._index_by_mask = {mask: top - i for mask, i in table._index_by_mask.items()}
        monkeypatch.setattr(grobner, "variable_table", lambda n: table)
        grobner._conflict_masks.cache_clear()
        grobner._generate_gb_ids.cache_clear()
        with pytest.raises(VerificationError, match="not greater than trail"):
            grobner._conflict_masks(5)
        with pytest.raises(VerificationError, match="not greater than trail"):
            generate_gb(5)

    def test_family1_includes_empty_side_instance(self):
        leads = canonical_binomial_set(
            [b for b in generate_gb(4) if b.family == 1])
        assert (((2,), (2, 3, 4)), ((), (3, 4))) in leads

    @staticmethod
    def off_the_cut_ideal(n, gb):
        """Binomials whose lead and trail differ in their sum of cut vectors
        of K_{2,n-2} (variable i cuts off its side table.encode(i))."""
        g = complete_bipartite(2, n - 2)
        table = variable_table(n)
        cuts = [cut_vector(g, table.encode(i)) for i in range(len(table))]

        def image(ids):
            return tuple(map(sum, zip(*(cuts[i] for i in ids))))

        return [k for k, b in enumerate(gb) if image(b.lead) != image(b.trail)]

    def test_binomials_lie_in_the_cut_ideal(self):
        for n in range(4, 11):
            assert self.off_the_cut_ideal(n, generate_gb(n)) == [], n
        # binomial 4's trail replaced by q_0^2
        gb = generate_gb(5)
        gb[4] = grobner.CutBinomial(family=gb[4].family, lead=gb[4].lead,
                                    trail=PartitionMonomial(5, (0, 0)))
        assert self.off_the_cut_ideal(5, gb) == [4]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_gb(3)

    def test_deterministic_order(self):
        assert [format_binomial(b) for b in generate_gb(5)] == \
            [format_binomial(b) for b in generate_gb(5)]


class TestReduction:
    # normal forms of single monomials: the basis is binomial, so each rewrite
    # of a monomial by a lead yields one monomial
    def trails(self, n):
        return {tuple(b.lead): tuple(b.trail) for b in generate_gb(n)}

    def test_trail_is_normal_form(self):
        trails = self.trails(5)
        for b in generate_gb(5)[:6]:
            assert grobner._normal_form(tuple(b.trail), trails) == tuple(b.trail)

    def test_lead_rewrites_to_trail(self):
        lead = monomial(5, [(1,), (2,)])
        assert grobner._normal_form(tuple(lead), self.trails(5)) == \
            tuple(monomial(5, [(), (1, 2)]))

    def test_overlapping_family3_spair_reduces_to_zero(self):
        # (lcm/lead_a) trail_a and (lcm/lead_b) trail_b share a normal form
        trails = self.trails(5)
        fam3 = [b for b in generate_gb(5) if b.family == 3]
        overlapping = [
            (a, b) for a, b in itertools.combinations(fam3, 2)
            if set(a.lead.ids) & set(b.lead.ids)
        ]
        assert overlapping
        for a, b in overlapping:
            support = set(a.lead) | set(b.lead)
            sides = {grobner._normal_form(tuple(sorted([*support - set(g.lead), *g.trail])),
                                          trails) for g in (a, b)}
            assert len(sides) == 1, (a, b)

    def test_binomial_difference_vanishes(self):
        # a lead and its trail share a normal form
        trails = self.trails(5)
        for b in generate_gb(5):
            assert grobner._normal_form(tuple(b.lead), trails) == \
                grobner._normal_form(tuple(b.trail), trails)


class TestBuchberger:
    def test_n4_passes(self):
        ok, certificate = buchberger_check(4)
        assert ok
        assert certificate["failures"] == []
        assert certificate["pairs_total"] == 3
        assert certificate["pairs_skipped_coprime"] + certificate["pairs_reduced"] == 3

    def test_n5_passes(self):
        ok, certificate = buchberger_check(5)
        assert ok
        assert certificate["pairs_total"] == 19 * 18 // 2
        assert certificate["failures"] == []

    def test_n6_passes(self):
        ok, certificate = buchberger_check(6)
        assert ok
        assert certificate["basis_size"] == 111
        assert certificate["pairs_total"] == 111 * 110 // 2

    def test_n7_passes(self):
        # leads sharing a variable: sum over the variables of C(deg, 2)
        ok, certificate = buchberger_check(7)
        assert ok
        assert certificate["basis_size"] == 571
        assert certificate["pairs_total"] == math.comb(571, 2)
        assert certificate["pairs_reduced"] == 10500
        assert certificate["pairs_skipped_coprime"] == math.comb(571, 2) - 10500

    def test_guards(self):
        # the S-pair count is read off the conflict graph before the basis is built
        start = time.perf_counter()
        with pytest.raises(CostGuardError, match="1178436 lead-sharing S-pairs estimated, "
                                                 "limit 200000"):
            buchberger_check(9)
        assert time.perf_counter() - start < 1
        with pytest.raises(CostGuardError, match="binomials estimated, limit 1000000"):
            buchberger_check(13)
        with pytest.raises(ValueError):
            buchberger_check(3)

    def test_corrupted_trail_fails_in_pair_order(self, monkeypatch):
        # binomial 4's trail replaced by q_0^2; the failures, in ascending
        # pair order, are those of a loop over all pairs of the basis
        real = grobner.generate_gb

        def corrupted(n):
            gb = real(n)
            gb[4] = grobner.CutBinomial(family=gb[4].family, lead=gb[4].lead,
                                        trail=PartitionMonomial(n, (0, 0)))
            return gb

        monkeypatch.setattr(grobner, "generate_gb", corrupted)
        ok, certificate = buchberger_check(5)
        assert not ok
        assert (certificate["pairs_total"], certificate["pairs_reduced"]) == (171, 36)
        assert certificate["failures"] == [
            {"pair": [1, 4], "normal_form": {"(0, 0, 10)": -1, "(0, 9, 13)": 1}},
            {"pair": [1, 7], "normal_form": {"(0, 0, 2)": -1, "(0, 7, 13)": 1}},
            {"pair": [3, 4], "normal_form": {"(0, 0, 8)": -1, "(0, 6, 13)": 1}},
            {"pair": [3, 6], "normal_form": {"(0, 0, 2)": -1, "(0, 7, 13)": 1}},
            {"pair": [4, 5], "normal_form": {"(0, 0, 11)": 1, "(0, 1, 13)": -1}},
            {"pair": [4, 9], "normal_form": {"(0, 0, 11)": 1, "(0, 1, 13)": -1}},
        ]

    def test_corrupted_trails_fail_as_the_term_reducer(self, monkeypatch):
        # random trails, each below its lead, at n = 5 and 6: the failures are
        # those of reducing every lead-sharing S-polynomial as a dict of terms
        real = grobner.generate_gb
        rng = random.Random(21)
        failing = 0
        for trial in range(12):
            n = 5 if trial < 8 else 6
            gb = real(n)
            for i in rng.sample(range(len(gb)), rng.randint(1, 3)):
                lead = tuple(gb[i].lead)
                trail = tuple(sorted(rng.choices(range(lead[1] + 1), k=2)))
                if trail >= lead:
                    trail = (lead[0], lead[0])
                gb[i] = grobner.CutBinomial(family=gb[i].family, lead=gb[i].lead,
                                            trail=PartitionMonomial(n, trail))
            monkeypatch.setattr(grobner, "generate_gb", lambda m, gb=gb: list(gb))
            ok, certificate = buchberger_check(n)
            assert certificate["failures"] == buchberger_failures_by_terms(gb), (n, trial)
            assert ok == (not certificate["failures"])
            failing += not ok
        assert failing >= 8


class TestStandardMonomials:
    def test_unit_monomial_standard(self):
        assert is_standard(PartitionMonomial(5, ()))

    def test_listed_lead_not_standard(self):
        assert not is_standard(monomial(5, [(1,), (2,)]))

    def test_listed_trail_standard(self):
        assert is_standard(monomial(5, [(), (1, 2)]))

    def test_degree_one_all_standard(self):
        assert squarefree_standard_counts(5)[1] == 16
        assert len(enumerate_squarefree_standard(5, 1)) == 16

    def test_degree_zero(self):
        assert enumerate_squarefree_standard(5, 0) == [PartitionMonomial(5, ())]

    def test_walk_result_memory(self):
        # 81,180 monomials of 72 bytes each; a record around its ids tuple made
        # each 120 bytes and the traced peak 9.97 MiB
        enumerate_squarefree_standard(7, 1)  # the cached tables, built untraced
        tracemalloc.start()
        try:
            monos = enumerate_squarefree_standard(7, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(monos) == 81180
        assert peak <= 7.5 * 2**20, peak

    def test_enumeration_matches_is_standard(self):
        n = 4
        table = variable_table(n)
        for k in range(2 * n - 1):
            via_enum = {m.ids for m in enumerate_squarefree_standard(n, k)}
            via_filter = {
                ids for ids in itertools.combinations(range(len(table)), k)
                if is_standard(PartitionMonomial(n, ids))
            }
            assert via_enum == via_filter, k
        assert enumerate_squarefree_standard(n, 2 * n - 2) == []

    def test_chain_characterization_agrees_with_divisibility(self):
        # every support of n = 5 up to degree 4 and of n = 6 up to degree 3
        for n, top in ((5, 4), (6, 3)):
            table = variable_table(n)
            for k in range(top + 1):
                for ids in itertools.combinations(range(len(table)), k):
                    mono = PartitionMonomial(n, ids)
                    assert chain_characterization_by_sets(mono) == is_standard(mono), (n, ids)

    def test_chain_characterization_agrees_with_set_oracle(self):
        # both chain conditions are pairwise, so the walk's table decides them:
        # its bit for i, j is the set test on q_i q_j
        for n in range(4, 9):
            compat = grobner._chain_compatible(n)
            for i, j in itertools.combinations(range(len(compat)), 2):
                fits = chain_characterization_by_sets(PartitionMonomial(n, (i, j)))
                assert bool(compat[i] >> j & 1) == bool(compat[j] >> i & 1) == fits, (n, i, j)

    def test_enumeration_checks_every_result(self, monkeypatch):
        # clear one compatible pair (i, j) of the chain table in both
        # directions: the check before the walk must name that pair
        i, j = enumerate_squarefree_standard(5, 3)[7].ids[:2]
        compat = list(grobner._chain_compatible(5))
        compat[i] &= ~(1 << j)
        compat[j] &= ~(1 << i)
        monkeypatch.setattr(grobner, "_chain_compatible", lambda n: tuple(compat))
        with pytest.raises(VerificationError) as caught:
            enumerate_squarefree_standard(5, 3)
        message = str(caught.value)
        prefix = "chain characterization failed for "
        assert message.startswith(prefix)
        support = ast.literal_eval(message[len(prefix):])
        assert {i, j} <= set(support)
        # the support is a chain: only the cleared pair refused it
        assert chain_characterization_by_sets(PartitionMonomial(5, support))

    def test_enumeration_checks_both_directions(self, monkeypatch):
        # mark one conflicting pair (i, j) chain-compatible: the walk never
        # reaches a support holding both, so only the check of the whole
        # table against the conflict graph can refuse it
        bad = grobner._conflict_masks(5)
        i = next(v for v, mask in enumerate(bad) if mask)
        j = (bad[i] & -bad[i]).bit_length() - 1
        compat = list(grobner._chain_compatible(5))
        compat[i] |= 1 << j
        compat[j] |= 1 << i
        monkeypatch.setattr(grobner, "_chain_compatible", lambda n: tuple(compat))
        with pytest.raises(VerificationError, match=rf"^chain characterization failed for \({i}, {j}\)$"):
            enumerate_squarefree_standard(5, 3)

    def test_chain_table_is_the_conflict_graph_complement(self):
        # the chain description of the quadratic basis, pair by pair: two
        # distinct variables are chain-compatible iff no initial monomial is
        # their product (n = 8 is beyond every enumeration test)
        for n in range(4, 9):
            compat = grobner._chain_compatible(n)
            bad = grobner._conflict_masks(n)
            everyone = (1 << len(bad)) - 1
            for i, fits in enumerate(compat):
                assert fits == everyone & ~bad[i] & ~(1 << i), (n, i)

    def test_cost_guard(self):
        # the basis guard, not a cap on n, bounds the counts: n = 9 runs and
        # n = 13's 3,842,059 binomials are refused
        assert len(enumerate_squarefree_standard(9, 1)) == 256
        assert squarefree_standard_counts(9)[:3] == [1, 256, 20501]
        with pytest.raises(CostGuardError, match="3842059 binomials estimated, limit 1000000"):
            squarefree_standard_counts(13)
        # n = 8's counts run, but this walk would visit 19,802,028 supports
        # and is refused before the first one
        with pytest.raises(CostGuardError, match="19802028 supports"):
            enumerate_squarefree_standard(8, 6)


class TestChainCount:
    def test_second_intransitive_triple_raises(self, monkeypatch):
        # a conflict between the 12-together variables {} and {3..n} adds a
        # second class of intransitive triples beside the split class's
        n = 6
        table = variable_table(n)
        low, high = table.index_of(()), table.index_of(range(3, n + 1))
        bad = list(grobner._conflict_masks(n))
        bad[low] |= 1 << high
        bad[high] |= 1 << low
        monkeypatch.setattr(grobner, "_conflict_masks", lambda n: tuple(bad))
        grobner._independent_set_counts.cache_clear()
        with pytest.raises(VerificationError, match="second intransitive triple"):
            squarefree_standard_counts(n)

    def test_reads_no_chain_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the chain count read the chain description")

        monkeypatch.setattr(grobner, "_chain_masks", refuse)
        monkeypatch.setattr(grobner, "_chain_compatible", refuse)
        grobner._independent_set_counts.cache_clear()
        for n in (5, 7):
            assert squarefree_standard_counts(n) == f_vector(n), n

    def test_basis_guard_refuses_before_building(self):
        calls = (lambda: squarefree_standard_counts(30),
                 lambda: is_standard(PartitionMonomial(30, ())),
                 lambda: generate_gb(13))
        for call in calls:
            start = time.perf_counter()
            with pytest.raises(CostGuardError, match="binomials estimated, limit 1000000"):
                call()
            assert time.perf_counter() - start < 1


class TestCountingFormulas:
    def test_known_values_n5_k1(self):
        assert count_type1(5, 1) == 8
        assert count_type2(5, 1) == 8

    def test_k0_is_empty_product(self):
        for n in (4, 5, 6):
            assert count_type1(n, 0) == 1
            assert count_type2(n, 0) == 1

    def test_formulas_match_enumeration(self):
        for n in range(4, 10):
            type1 = list(grobner._independent_set_counts(n, class_pool(n, split=False)))
            type2 = list(grobner._independent_set_counts(n, class_pool(n, split=True)))
            top = 2 * n - 3
            assert type1 == [count_type1(n, k) for k in range(len(type1))]
            assert type2 == [count_type2(n, k) for k in range(len(type2))]
            assert len(type1) - 1 <= top and len(type2) - 1 <= top

    def test_table1_cells_match_classification(self):
        for n in (5, 6):
            rest = frozenset(range(3, n + 1))
            observed = {}
            for mono in squarefree_standard_walk(n, class_pool(n, split=False)):
                together, split = pattern_split(mono)
                assert not split
                k = mono.degree
                if k == 0:
                    key = "min_nonempty_max_not_full"  # empty chain: no endpoints
                else:
                    chain = sorted(together, key=len)
                    key = ("min_empty" if chain[0] == frozenset() else "min_nonempty") \
                        + ("_max_full" if chain[-1] == rest else "_max_not_full")
                observed.setdefault(k, Counter())[key] += 1
            for k, cells in observed.items():
                expected = table1_cells(n, k)
                for key, value in expected.items():
                    assert cells.get(key, 0) == value, (n, k, key)

    def test_type2_excludes_full_range_chains(self):
        # split-class standard monomials never span from {} to {3..n}
        rest = frozenset(range(3, 5 + 1))
        for mono in squarefree_standard_walk(5, class_pool(5, split=True)):
            _, split = pattern_split(mono)
            if split:
                chain = sorted(split, key=len)
                assert not (chain[0] == frozenset() and chain[-1] == rest)


class TestFVector:
    def test_leading_entry(self):
        for n in (4, 5, 6, 9):
            assert f_vector(n)[0] == 1

    def test_vertex_count_entry(self):
        assert f_vector(5)[1] == 16
        assert f_vector(4)[1] == 8

    def test_matches_enumeration(self):
        for n in range(4, 10):
            assert f_vector(n) == squarefree_standard_counts(n), n

    def test_top_degree(self):
        for n in (4, 5, 6):
            f = f_vector(n)
            assert len(f) == 2 * n - 2
            assert f[-1] > 0  # faces of top degree 2n-3 exist

    def test_total_face_count_two_routes(self):
        # per degree and per variable class, the oracle's walk tallies the counts
        for n in (4, 5, 6):
            everyone = (1 << len(variable_table(n))) - 1
            for pool in (everyone, class_pool(n, split=False), class_pool(n, split=True)):
                by_degree = Counter(m.degree for m in squarefree_standard_walk(n, pool))
                walked = [by_degree[k] for k in range(max(by_degree) + 1)]
                assert walked == list(grobner._independent_set_counts(n, pool)), (n, pool)
            assert sum(f_vector(n)) == sum(1 for _ in squarefree_standard_walk(n))

    def test_h_polynomial_equals_closed_form(self):
        from cutpoly.polynomial import f_to_h, hstar_closed_form_k2m
        for n in range(4, 8):
            assert f_to_h(f_vector(n), 2 * n - 4) == hstar_closed_form_k2m(n), n

    def test_product_equals_the_direct_convolution(self):
        for n in range(4, 61):
            top = 2 * n - 3
            type1 = [count_type1(n, k) for k in range(top + 1)]
            type2 = [count_type2(n, k) for k in range(top + 1)]
            assert f_vector(n) == [sum(type1[a] * type2[k - a] for a in range(k + 1))
                                   for k in range(top + 1)], n


class TestHilbertConsistency:
    def test_degree_zero_and_one(self):
        assert count_standard_by_degree(5, 0) == 1
        assert count_standard_by_degree(5, 1) == 16

    def test_matches_semigroup_counts(self, k23_config, k22_config):
        for n, cfg in ((4, k22_config), (5, k23_config)):
            counts = semigroup_counts(cfg).counts
            for m in range(0, 4):
                assert count_standard_by_degree(n, m) == counts[m], (n, m)

    def test_walk_matches_filter(self):
        for n, top in ((4, 4), (5, 4), (6, 3)):
            for m in range(top + 1):
                assert count_standard_by_degree(n, m) == standard_count_by_filter(n, m), (n, m)

    def test_n6_matches_closed_form(self):
        # i(P, m) = sum_i h*_i C(m + d - i, d) with d = 2n - 4, through m = 2n - 3
        for n, known in ((6, 60960), (7, 695616)):
            h = hstar_closed_form_k2m(n)
            d = 2 * n - 4
            expected = [sum(h.coefficient(i) * math.comb(m + d - i, d) for i in range(d + 1))
                        for m in range(d + 2)]
            assert expected[5] == known
            assert [count_standard_by_degree(n, m) for m in range(d + 2)] == expected, n

    def test_cost_guards(self):
        with pytest.raises(CostGuardError):
            count_standard_by_degree(13, 1)


class TestInterchange:
    def test_json_schema(self):
        payload = basis_payload(generate_gb(4))
        assert len(payload) == 3
        for item in payload:
            assert set(item) == {"family", "lead", "trail"}
            for side in item["lead"] + item["trail"]:
                assert side == sorted(side)
                assert 1 not in side  # encoding is the side without vertex 1

    def test_payloads_share_no_list(self):
        # a call shares one list per variable across its binomials, but two
        # calls share none, and mutating one leaves the other and the table's
        # encodings and names intact
        basis = generate_gb(5)
        first, second = basis_payload(basis), basis_payload(basis)
        assert first == second
        ids = {id(side) for item in first for side in item["lead"] + item["trail"]}
        assert not ids & {id(side) for item in second for side in item["lead"] + item["trail"]}
        for item in first:
            for side in item["lead"] + item["trail"]:
                side.append(99)
        assert second == basis_payload(basis)
        assert all(99 not in side for item in second for side in item["lead"] + item["trail"])
        table = variable_table(5)
        assert [format_binomial(b) for b in basis] == [
            " - ".join("*".join("q(" + ",".join(map(str, table.encode(i))) + ")" for i in side)
                       for side in (b.lead, b.trail)) for b in basis]

    def test_format_binomial(self):
        b = generate_gb(4)[0]
        text = format_binomial(b)
        assert " - " in text and text.count("q(") == 4
