import math

import pytest

from cutpoly.errors import CostGuardError
from cutpoly.polynomial import (
    IntPolynomial,
    eulerian,
    eulerian_by_descents,
    f_to_h,
    format_polynomial,
    hibi_lower_bound_ok,
    hstar_closed_form_k2m,
    is_palindromic,
    is_unimodal,
    stirling2,
)

from oracles import stirling2_by_partitions


class TestArithmetic:
    def test_normalization(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial([]).degree == -1

    def test_ring_operations(self):
        one_plus_x = IntPolynomial([1, 1])
        assert (one_plus_x * one_plus_x).coeffs == (1, 2, 1)
        assert (one_plus_x + 2).coeffs == (3, 1)
        assert (one_plus_x - one_plus_x).coeffs == ()
        assert (3 * one_plus_x).coeffs == (3, 3)
        assert (one_plus_x ** 3).coeffs == (1, 3, 3, 1)
        assert one_plus_x.shifted(2).coeffs == (0, 0, 1, 1)

    def test_evaluate_uses_big_integers(self):
        p = IntPolynomial([1] * 30)
        assert p.evaluate(10) == int("1" * 30)
        assert eulerian(3).evaluate(1) == math.factorial(3)

    def test_compose_with_shift(self):
        # expanding A_3 in powers of (x-1) and substituting back is the identity
        a3 = eulerian(3)
        x_minus_1 = IntPolynomial([-1, 1])
        x_plus_1 = IntPolynomial([1, 1])
        assert a3.compose(x_minus_1).compose(x_plus_1) == a3

    def test_immutability(self):
        p = IntPolynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (5,)

    def test_formatting(self):
        assert format_polynomial(hstar_closed_form_k2m(5)) == \
            "x^5 + 9x^4 + 26x^3 + 26x^2 + 9x + 1"
        assert format_polynomial(IntPolynomial([])) == "0"
        assert format_polynomial(IntPolynomial([-1, 0, 2])) == "2x^2 - 1"


class TestStirling:
    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(2, 5) == 0
        assert stirling2(4, -1) == 0

    def test_ones_column(self):
        for n in range(1, 9):
            assert stirling2(n, 1) == 1

    def test_against_partition_enumeration(self):
        for n in range(0, 8):
            for k in range(0, n + 2):
                assert stirling2(n, k) == stirling2_by_partitions(n, k), (n, k)

    def test_row_sums_are_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for n, expected in enumerate(bell):
            assert sum(stirling2(n, k) for k in range(n + 1)) == expected


class TestEulerian:
    def test_small_polynomials(self):
        assert eulerian(1).coeffs == (1,)
        assert eulerian(2).coeffs == (1, 1)
        assert eulerian(3).coeffs == (1, 4, 1)
        assert eulerian(4).coeffs == (1, 11, 11, 1)

    def test_identity_matches_descent_enumeration(self):
        for n in range(1, 8):
            assert eulerian(n) == eulerian_by_descents(n), n

    def test_coefficients_sum_to_factorial(self):
        for n in range(1, 10):
            assert eulerian(n).evaluate(1) == math.factorial(n)

    def test_palindromic_and_unimodal(self):
        for n in range(1, 10):
            a = eulerian(n)
            assert is_palindromic(a)
            assert is_unimodal(a)
            assert a.degree == n - 1

    def test_descent_oracle_guard(self):
        with pytest.raises(CostGuardError):
            eulerian_by_descents(11)
        with pytest.raises(ValueError):
            eulerian(0)


class TestFtoH:
    def test_point_and_interval(self):
        assert f_to_h([1], 0) == IntPolynomial([1, -1])
        assert f_to_h([1, 1], 0) == IntPolynomial([1])
        assert f_to_h([1, 3, 2], 1) == IntPolynomial([1, 1])

    def test_rejects_bad_f_vector(self):
        with pytest.raises(ValueError):
            f_to_h([2, 1], 1)
        with pytest.raises(ValueError):
            f_to_h([1, 1, 1, 1], 1)


class TestClosedForm:
    def test_known_cases(self):
        assert hstar_closed_form_k2m(5).coeffs == (1, 9, 26, 26, 9, 1)
        assert hstar_closed_form_k2m(4).coeffs == (1, 3, 3, 1)

    def test_degree_and_volume(self):
        for n in range(4, 11):
            h = hstar_closed_form_k2m(n)
            assert h.degree == 2 * n - 5
            assert h.evaluate(1) == 2 * math.factorial(n - 2) ** 2
            assert is_palindromic(h)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            hstar_closed_form_k2m(3)


class TestHstarPredicates:
    def test_palindromic(self):
        assert is_palindromic(IntPolynomial([1, 4, 1]))
        assert not is_palindromic(IntPolynomial([1, 2]))
        assert is_palindromic(IntPolynomial([]))
        assert is_palindromic(hstar_closed_form_k2m(6))

    def test_unimodal(self):
        assert is_unimodal(IntPolynomial([1, 2, 2, 1]))
        assert not is_unimodal(IntPolynomial([2, 1, 2]))

    def test_hibi_lower_bound(self):
        assert hibi_lower_bound_ok(IntPolynomial([1, 2, 5, 2, 1]))
        assert not hibi_lower_bound_ok(IntPolynomial([1, 3, 2, 3, 1]))
        assert hibi_lower_bound_ok(IntPolynomial([1, 1]))
