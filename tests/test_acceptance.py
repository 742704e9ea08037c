"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All comparisons are exact integer/polynomial equality; the stated runtime
budgets are asserted as well.
"""

import math
import time
from collections import Counter

from cutpoly import grobner
from cutpoly.ehrhart import (
    hstar_from_counts,
    hstar_polynomial,
    lattice_point_counts,
    semigroup_counts,
)
from cutpoly.graph import complete_bipartite, configuration, cycle, path
from cutpoly.grobner import (
    buchberger_check,
    count_standard_by_degree,
    count_type1,
    count_type2,
    f_vector,
    generate_gb,
)
from cutpoly.polynomial import (
    IntPolynomial,
    eulerian,
    f_to_h,
    hibi_lower_bound_ok,
    hstar_closed_form_k2m,
    is_palindromic,
)

from oracles import (
    class_pool,
    eulerian_by_descents,
    pattern_split,
    squarefree_standard_walk,
    table1_cells,
)
from test_grobner import canonical_binomial_set, listed_n5_canonical


def report(number, description, condition):
    verdict = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict}: {description}")
    assert condition, f"criterion {number} failed: {description}"


def test_criterion_01_k23_exact_hstar(k23_counts):
    started = time.perf_counter()
    assert k23_counts.dimension == 6 and k23_counts.dilate_max == 7
    h = hstar_from_counts(k23_counts)
    elapsed = time.perf_counter() - started
    ok = h.coeffs == (1, 9, 26, 26, 9, 1) and elapsed < 10
    report(1, "semigroup route reproduces h*(Cut(K_{2,3})) = "
              f"x^5+9x^4+26x^3+26x^2+9x+1 in {elapsed:.2f}s", ok)


def test_criterion_02_three_way_agreement(k23_counts):
    started = time.perf_counter()
    ok = True
    for n in (4, 5):
        if n == 5:
            h_ehrhart = hstar_from_counts(k23_counts)
        else:
            h_ehrhart, _ = hstar_polynomial(configuration(complete_bipartite(2, n - 2)))
        h_gb = f_to_h(f_vector(n), 2 * n - 4)
        h_closed = hstar_closed_form_k2m(n)
        ok = ok and (h_ehrhart == h_gb == h_closed)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60
    report(2, "ehrhart route = gb-f-vector route = closed form (x+1)A_{n-2}(x)^2 "
              f"for n = 4, 5 in {elapsed:.2f}s", ok)


def test_criterion_03_basis_fidelity():
    ok = canonical_binomial_set(generate_gb(5)) == listed_n5_canonical()
    report(3, "generate_gb(5) equals the 19 listed binomials (leads and trails)", ok)


def test_criterion_04_buchberger():
    started = time.perf_counter()
    ok4, cert4 = buchberger_check(4)
    ok5, cert5 = buchberger_check(5)
    elapsed = time.perf_counter() - started
    ok = ok4 and ok5 and not cert4["failures"] and not cert5["failures"] and elapsed < 300
    report(4, f"all {cert4['pairs_total']} + {cert5['pairs_total']} S-pairs reduce "
              f"to zero for n = 4, 5 in {elapsed:.2f}s", ok)


def test_criterion_05_counting_formulas():
    ok = True
    for n in range(4, 8):
        type1 = grobner._independent_set_counts(n, class_pool(n, split=False))
        type2 = grobner._independent_set_counts(n, class_pool(n, split=True))
        for k in range(2 * n - 3 + 1):
            got1 = type1[k] if k < len(type1) else 0
            got2 = type2[k] if k < len(type2) else 0
            ok = ok and got1 == count_type1(n, k) and got2 == count_type2(n, k)
        # classify every 12-together chain into the four endpoint cells
        rest = frozenset(range(3, n + 1))
        observed = {}
        for mono in squarefree_standard_walk(n, class_pool(n, split=False)):
            sides, split = pattern_split(mono)
            k = mono.degree
            if k == 0:
                key = "min_nonempty_max_not_full"
            else:
                chain = sorted(sides, key=len)
                key = ("min_empty" if chain[0] == frozenset() else "min_nonempty") \
                    + ("_max_full" if chain[-1] == rest else "_max_not_full")
            observed.setdefault(k, Counter())[key] += 1
        for k, cells in observed.items():
            for key, expected in table1_cells(n, k).items():
                ok = ok and cells.get(key, 0) == expected
    report(5, "type-1/type-2 counting formulas and the four endpoint-case cells "
              "match brute-force enumeration for n = 4..7, all degrees", ok)


def test_criterion_06_tree_baseline():
    ok = True
    for edges in (1, 2, 3):
        h, _ = hstar_polynomial(configuration(path(edges)))
        ok = ok and h == eulerian(edges)
    report(6, "h*(path with e edges) equals the Eulerian polynomial A_e for e = 1, 2, 3", ok)


def test_criterion_07_normalized_volume(k23_counts):
    h5 = hstar_from_counts(k23_counts)
    h4, _ = hstar_polynomial(configuration(complete_bipartite(2, 2)))
    ok = (h5.evaluate(1) == 72 == 2 * math.factorial(3) ** 2
          and h4.evaluate(1) == 8 == 2 * math.factorial(2) ** 2)
    report(7, "h*(1) = 2((n-2)!)^2 from the ehrhart route for n = 4 (8) and n = 5 (72)", ok)


def test_criterion_08_hilbert_consistency(k23_config, k22_config):
    ok = True
    for n, cfg in ((4, k22_config), (5, k23_config)):
        counts = semigroup_counts(cfg).counts
        for m in range(0, 5):
            ok = ok and count_standard_by_degree(n, m) == counts[m]
    report(8, "standard-monomial counts equal semigroup counts for n = 4, 5 and m <= 4", ok)


def test_criterion_09_method_independence(k23_config, k2_config, c4_config):
    ok = True
    for cfg in (k2_config, configuration(path(2)), c4_config, k23_config):
        semi = semigroup_counts(cfg)
        lp = lattice_point_counts(cfg)
        ok = ok and semi == lp
    report(9, "count_semigroup = count_lattice_points (LP route) on K_2, path(2), "
              "C4, K_{2,3} for all m <= d+1", ok)


def test_criterion_10_property_suite(k23_counts):
    ok = True
    # Eulerian polynomials: identity construction vs descent enumeration
    for n in range(1, 10):
        ok = ok and eulerian(n) == eulerian_by_descents(n)
    # palindromicity and the lower-bound inequality on every computed h*
    computed = [hstar_from_counts(k23_counts)]
    for g in (path(1), path(2), path(3), cycle(4), complete_bipartite(2, 2)):
        computed.append(hstar_polynomial(configuration(g))[0])
    computed.extend(hstar_closed_form_k2m(n) for n in range(4, 10))
    for h in computed:
        ok = ok and is_palindromic(h) and hibi_lower_bound_ok(h)
    # generating-polynomial identities behind the closed form, as exact algebra:
    # sum_k B_k X^(n-k-1) = x^2 A_{n-2}(x) and sum_k C_k X^(n-k-2) = (1+x) A_{n-2}(x)
    x_minus_1 = IntPolynomial([-1, 1])
    for n in range(4, 10):
        a = eulerian(n - 2)
        in_x_b = IntPolynomial(
            [count_type1(n, n - 1 - j) for j in range(n)]).compose(x_minus_1)
        in_x_c = IntPolynomial(
            [count_type2(n, n - 2 - j) for j in range(n - 1)]).compose(x_minus_1)
        ok = ok and in_x_b == a.shifted(2)
        ok = ok and in_x_c == IntPolynomial([1, 1]) * a
    report(10, "Eulerian identity vs descents (n <= 9); palindromicity and "
               "h*_i >= h*_1 on every computed h*; chain-count generating "
               "identities hold exactly for 4 <= n <= 9", ok)


def test_criterion_11_k24_by_semigroup():
    started = time.perf_counter()
    h, cs = hstar_polynomial(configuration(complete_bipartite(2, 4)))
    elapsed = time.perf_counter() - started
    ok = cs.dilate_max == 9 and h == hstar_closed_form_k2m(6) and elapsed < 10
    report(11, "semigroup route reproduces h*(Cut(K_{2,4})) = (x+1)A_4(x)^2 "
               f"through dilate 9 in {elapsed:.2f}s", ok)
