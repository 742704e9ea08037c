import itertools
import math
import random

import pytest

from cutpoly.errors import CostGuardError
from cutpoly.polynomial import (
    KRONECKER_MIN_LENGTH,
    IntPolynomial,
    eulerian,
    f_to_h,
    format_polynomial,
    hibi_lower_bound_ok,
    hstar_closed_form_k2m,
    is_palindromic,
    is_unimodal,
    stirling2,
)

from oracles import eulerian_by_descents, poly_mul, stirling2_by_partitions


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
        # the last squarings of (1 - x)^70 pass the Kronecker crossover
        assert (IntPolynomial([1, -1]) ** 70).coeffs == \
            tuple((-1) ** k * math.comb(70, k) for k in range(71))
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


class TestProduct:
    """`IntPolynomial.__mul__` on both sides of the Kronecker crossover, against
    the schoolbook oracle."""

    @staticmethod
    def random_coeffs(rng, length, bound):
        coeffs = [rng.randint(-bound, bound) for _ in range(length)]
        coeffs[-1] = coeffs[-1] or 1
        return coeffs

    def test_seeded_signed_products(self):
        rng = random.Random(41)
        lengths = [1, 2, 3, KRONECKER_MIN_LENGTH - 1, KRONECKER_MIN_LENGTH,
                   KRONECKER_MIN_LENGTH + 1, 60]
        for bound in (1, 9, 2**31, 10**40):
            for la, lb in itertools.product(lengths, repeat=2):
                a = self.random_coeffs(rng, la, bound)
                b = self.random_coeffs(rng, lb, bound)
                expected = poly_mul(a, b)
                assert (IntPolynomial(a) * IntPolynomial(b)).coeffs == tuple(expected), \
                    (bound, la, lb)
                p = IntPolynomial(a)
                assert (p * p).coeffs == tuple(poly_mul(a, a)), (bound, la)

    def test_one_sign_and_mixed_signs(self):
        rng = random.Random(43)
        for length in (KRONECKER_MIN_LENGTH, 60):
            positive = [rng.randint(1, 10**40) for _ in range(length)]
            negative = [-c for c in positive]
            for a, b in itertools.product((positive, negative), repeat=2):
                assert (IntPolynomial(a) * IntPolynomial(b)).coeffs == tuple(poly_mul(a, b))
            alternating = [c if i % 2 else -c for i, c in enumerate(positive)]
            p = IntPolynomial(alternating)
            assert (p * p).coeffs == tuple(poly_mul(alternating, alternating))

    def test_coefficients_at_the_bound(self):
        # the middle coefficient of (M + M x + ... + M x^63)^2 is 64 M^2, the
        # bound max|a| * max|b| * min(len) itself; for M = 2^e - 1 with
        # e = 1 mod 4 it has 2e + 6 bits, a whole number of bytes, so only
        # the spare sign bit keeps it in its field
        for e in (5, 9, 33, 129):
            top = [2**e - 1] * 64
            bottom = [-c for c in top]
            for a, b in ((top, top), (top, bottom), (bottom, bottom)):
                product = IntPolynomial(a) * IntPolynomial(b)
                assert product.coeffs == tuple(poly_mul(a, b)), e
                assert abs(product.coeffs[63]) == 64 * (2**e - 1) ** 2
            p = IntPolynomial(bottom)
            assert (p * p).coeffs == tuple(poly_mul(bottom, bottom)), e

    def test_zero_and_trailing_zeros(self):
        long = [3] * 40 + [0, 0]
        zero = IntPolynomial([0, 0, 0])
        assert (IntPolynomial(long) * zero).coeffs == ()
        assert (zero * IntPolynomial(long)).coeffs == ()
        assert (zero * zero).coeffs == ()
        # interior zeros and a zero constant term survive; a trailing zero
        # of the input is dropped
        gaps = [0, 5, 0, 0, -7] * 8 + [0]
        product = IntPolynomial(gaps) * IntPolynomial(gaps)
        assert product.coeffs == tuple(poly_mul(gaps, gaps))
        assert product.coeffs[0] == 0 and product.coeffs[-1] != 0

    def test_int_times_polynomial(self):
        p = IntPolynomial(range(1, 50))
        assert (3 * p).coeffs == (p * 3).coeffs == tuple(3 * c for c in range(1, 50))
        assert (0 * p).coeffs == ()
        assert (-(10**40) * p).coeffs == tuple(poly_mul([-(10**40)], list(range(1, 50))))

    def test_closed_form_against_the_oracle(self):
        for n in range(4, 61):
            a = list(eulerian(n - 2).coeffs)
            expected = poly_mul(poly_mul([1, 1], a), a)
            assert hstar_closed_form_k2m(n).coeffs == tuple(expected), n


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

    def test_horner_equals_term_by_term_expansion(self):
        rng = random.Random(43)
        one_minus_x = IntPolynomial((1, -1))
        for _ in range(200):
            d = rng.randint(-1, 30)
            f = [1] + [rng.choice((0, rng.randint(-10**30, 10**30)))
                       for _ in range(rng.randint(0, d + 1))]
            expected = IntPolynomial(())
            for i, c in enumerate(f):
                expected = expected + (c * one_minus_x ** (d + 1 - i)).shifted(i)
            assert f_to_h(f, d) == expected, (f, d)


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
