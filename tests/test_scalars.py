import random
from fractions import Fraction

import pytest

from qaw.scalars import (SYMBOLIC, CycloFrac, ForbiddenPointError,
                         LaurentPoly, NonCyclotomicError, PointDomain,
                         PoleError, RatFunc, cyclotomic, evaluate_scalar,
                         laurent_divexact, laurent_gcd, q_factorial,
                         q_integer, r_series_coefficient,
                         random_admissible_point)
from qaw.scalars import _root_table


def P(terms):
    return LaurentPoly(terms)


class TestLaurentPoly:
    def test_cancellation(self):
        assert P({2: 1, 0: 1}) + P({0: -1}) == P({2: 1})

    def test_exponent_addition(self):
        assert P({-2: 1}) * P({2: 1}) == LaurentPoly.one()

    def test_difference_of_squares(self):
        a = P({2: 1, -2: -1})
        b = P({2: 1, -2: 1})
        assert a * b == P({4: 1, -4: -1})

    def test_zero_is_canonical(self):
        assert P({3: 0}).is_zero()
        assert not P({3: 0})
        assert (P({1: 2}) - P({1: 2})).is_zero()

    def test_pow(self):
        a = P({1: 1, 0: 1})
        assert a ** 0 == LaurentPoly.one()
        assert a ** 3 == a * a * a
        assert P({2: 1}) ** -2 == P({-4: 1})
        assert P({1: -1}) ** -3 == P({-3: -1})
        with pytest.raises(ValueError):
            a ** -1

    def test_text_ascending(self):
        assert P({4: 1, -2: 3}).text() == "3*s^-2 + 1*s^4"
        assert LaurentPoly.zero().text() == "0"

    def test_evaluate(self):
        a = P({2: 1, -2: 1})
        assert a.evaluate(Fraction(2)) == Fraction(17, 4)

    def test_ring_laws_random(self):
        rng = random.Random(7)

        def rand_poly():
            return LaurentPoly({rng.randint(-5, 5): rng.randint(-9, 9)
                                for _ in range(rng.randint(0, 4))})

        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        for _ in range(200):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a

    def test_divexact_and_gcd(self):
        a = P({2: 1, -2: -1})  # q - q^-1 in s
        b = P({0: 1, -2: 1})
        prod = a * b
        assert laurent_divexact(prod, a) == b
        g = laurent_gcd(prod, a * P({4: 2}))
        # gcd is defined up to s^k; canonical form has min exponent 0.
        assert g.min_exp() == 0
        assert laurent_divexact(a.shifted(-a.min_exp()), g).term_count() >= 1


class TestRatFunc:
    def test_inverse_pair(self):
        x = RatFunc(1, P({2: 1, 0: 1}))
        assert x * RatFunc(P({2: 1, 0: 1})) == RatFunc(1)

    def test_zero_identity(self):
        x = RatFunc(P({3: 2, -1: 5}), P({0: 7, 2: 1}))
        assert RatFunc(0) + x == x

    def test_invert_q_minus_qinv(self):
        # 1/(q - q^-1) canonicalizes to s^2/(s^4 - 1).
        x = RatFunc(P({2: 1, -2: -1})).inverse()
        assert x.num == P({2: 1})
        assert x.den == P({4: 1, 0: -1})
        assert x.den.leading_coefficient() > 0
        assert x.den.min_exp() == 0

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(0).inverse()

    def test_equality_cross_multiplication(self):
        a = RatFunc(P({2: 2}), P({0: 2, 2: 4}))
        b = RatFunc(P({2: 1}), P({0: 1, 2: 2}))
        assert a == b
        assert a.num * b.den == b.num * a.den

    def test_canonical_reduction(self):
        common = P({2: 3, 0: 1})
        x = RatFunc(common * P({1: 1}), common * P({0: 2, 4: 2}))
        assert laurent_gcd(x.num, x.den).term_count() == 1
        assert x.den.min_exp() == 0
        assert x.den.leading_coefficient() > 0

    def test_field_laws_random(self):
        rng = random.Random(11)

        def rand_rf():
            num = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                               for _ in range(rng.randint(0, 3))})
            den = LaurentPoly({rng.randint(-2, 2): rng.randint(1, 4)
                               for _ in range(rng.randint(1, 2))})
            return RatFunc(num, den)

        for _ in range(60):
            a, b, c = rand_rf(), rand_rf(), rand_rf()
            assert (a + b) * c == a * c + b * c
            assert a - a == RatFunc(0)
            if b:
                assert (a / b) * b == a

    def test_text(self):
        x = RatFunc(P({-2: 3, 4: 1}), P({0: 2}))
        assert x.text() == "(3*s^-2 + 1*s^4)/(2*s^0)"


class TestCycloFrac:
    QDIFF = P({2: 1, -2: -1})
    QSUM = P({2: 1, -2: 1})

    def _cyclotomic_poly(self, rng):
        f = LaurentPoly.constant(rng.choice([1, -1, 2, 3, 6]))
        for _ in range(rng.randint(0, 3)):
            f = f * rng.choice([q_integer(rng.randint(1, 7)), self.QDIFF,
                                self.QSUM, P({1: 1})])
        return f

    def _pair(self, rng, cyclotomic_num=False):
        if cyclotomic_num:
            num = self._cyclotomic_poly(rng)
        else:
            num = LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                               for _ in range(rng.randint(0, 4))})
        den = self._cyclotomic_poly(rng)
        return CycloFrac(num, den), RatFunc(num, den)

    def test_matches_ratfunc(self):
        # RatFunc (gcd canonicalization) is the reference for every operation.
        rng = random.Random(5)
        for _ in range(300):
            a, ra = self._pair(rng)
            b, rb = self._pair(rng)
            unit, runit = self._pair(rng, cyclotomic_num=True)
            n = rng.randint(-3, 3)
            assert (a + b).text() == (ra + rb).text()
            assert (a - b).text() == (ra - rb).text()
            assert (a * b).text() == (ra * rb).text()
            assert (a / unit).text() == (ra / runit).text()
            assert (a ** abs(n)).text() == (ra ** abs(n)).text()
            assert (unit ** n).text() == (runit ** n).text()
            assert a * b == ra * rb

    def test_reduced_form(self):
        x = SYMBOLIC.one / (SYMBOLIC.q(1) - SYMBOLIC.q(-1))
        assert (x.num, x.c, x.den) == (P({2: 1}), 1, ((1, 1), (2, 1), (4, 1)))
        assert x == RatFunc(self.QDIFF).inverse()
        assert x * SYMBOLIC.from_laurent(self.QDIFF) == SYMBOLIC.one
        assert CycloFrac(P({0: 4}), P({0: 6})).text() == "(2*s^0)/(3*s^0)"

    def test_false_zero_residue_is_refuted(self):
        # p(1 + s) vanishes mod p at every root of unity, yet s - 1 does not divide it.
        p = _root_table(1)[0]
        x = CycloFrac(P({0: p, 1: p}), P({1: 1, 0: -1}))
        assert x.den == ((1, 1),)
        assert x.text() == RatFunc(P({0: p, 1: p}), P({1: 1, 0: -1})).text()

    def test_non_cyclotomic_division_raises(self):
        bad = SYMBOLIC.from_laurent(P({0: 1, 1: 2}))
        with pytest.raises(NonCyclotomicError):
            SYMBOLIC.one / bad
        with pytest.raises(NonCyclotomicError):
            SYMBOLIC.from_ratio(LaurentPoly.one(), P({0: 1, 1: 3, 2: 1}))

    def test_cyclotomic_polynomials(self):
        for n in range(1, 31):
            prod = LaurentPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == P({n: 1, 0: -1})


class TestQNumbers:
    def test_q_integer_small(self):
        assert q_integer(0).is_zero()
        assert q_integer(1) == LaurentPoly.one()
        assert q_integer(2) == P({2: 1, -2: 1})
        assert q_integer(-3) == -q_integer(3)

    def test_q_integer_defining_identity(self):
        # [n]_q (q - q^-1) = q^n - q^-n, exactly, for 0 <= n <= 20.
        qdiff = P({2: 1, -2: -1})
        for n in range(21):
            assert q_integer(n) * qdiff == P({2 * n: 1}) + P({-2 * n: -1})

    def test_q_factorial(self):
        assert q_factorial(0) == LaurentPoly.one()
        assert q_factorial(1) == LaurentPoly.one()
        assert q_factorial(2) == q_integer(2)
        assert q_factorial(5) == q_integer(5) * q_factorial(4)
        with pytest.raises(ValueError):
            q_factorial(-1)

    def test_series_coefficient_base(self):
        assert r_series_coefficient(0) == RatFunc(1)
        assert r_series_coefficient(1) == RatFunc(P({2: 1, -2: -1}))

    def test_series_coefficient_recurrence(self):
        # a_{n+1} [n+1]_q = q^n (q - q^-1) a_n
        qdiff = RatFunc(P({2: 1, -2: -1}))
        for n in range(11):
            lhs = r_series_coefficient(n + 1) * RatFunc(q_integer(n + 1))
            rhs = RatFunc(LaurentPoly.q_power(n)) * qdiff * r_series_coefficient(n)
            assert lhs == rhs

    def test_series_coefficient_shift_identity(self):
        # a_n q^-2n = a_n - a_n [n]_q q^-n (q - q^-1)
        qdiff = RatFunc(P({2: 1, -2: -1}))
        for n in range(11):
            an = r_series_coefficient(n)
            lhs = an * RatFunc(LaurentPoly.q_power(-2 * n))
            rhs = an - an * RatFunc(q_integer(n)) * RatFunc(LaurentPoly.q_power(-n)) * qdiff
            assert lhs == rhs


class TestEvaluation:
    def test_forbidden_points(self):
        for bad in (0, 1, -1):
            with pytest.raises(ForbiddenPointError):
                evaluate_scalar(RatFunc(q_integer(3)), Fraction(bad))

    def test_substitution(self):
        assert evaluate_scalar(q_integer(2), Fraction(2)) == Fraction(17, 4)
        assert evaluate_scalar(r_series_coefficient(1), Fraction(2)) == Fraction(15, 4)

    def test_pole(self):
        x = RatFunc(1, P({1: 1, 0: -2}))  # pole at s = 2
        with pytest.raises(PoleError):
            evaluate_scalar(x, Fraction(2))

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        s0 = Fraction(3, 2)
        for _ in range(40):
            a = RatFunc(LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                                     for _ in range(2)}),
                        LaurentPoly({0: 1, rng.randint(1, 3): rng.randint(1, 3)}))
            b = RatFunc(LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                                     for _ in range(2)}),
                        LaurentPoly({0: 2}))
            assert evaluate_scalar(a * b, s0) == \
                evaluate_scalar(a, s0) * evaluate_scalar(b, s0)
            assert evaluate_scalar(a + b, s0) == \
                evaluate_scalar(a, s0) + evaluate_scalar(b, s0)

    def test_random_points_admissible(self):
        rng = random.Random(0)
        for _ in range(100):
            s0 = random_admissible_point(rng)
            assert s0 not in (0, 1, -1)
            assert s0 ** 4 != 1
            assert s0 > 0


class TestDomains:
    def test_symbolic_and_point_agree(self):
        s0 = Fraction(5, 3)
        pt = PointDomain(s0)
        for n in range(8):
            assert SYMBOLIC.q_int(n).evaluate(s0) == pt.q_int(n)
            assert SYMBOLIC.series_coeff(n).evaluate(s0) == pt.series_coeff(n)
        assert SYMBOLIC.s(3).evaluate(s0) == pt.s(3)

    def test_point_domain_rejects_forbidden(self):
        with pytest.raises(ForbiddenPointError):
            PointDomain(Fraction(1))

    def test_domain_hashing(self):
        assert PointDomain(Fraction(5, 3)) == PointDomain(Fraction(5, 3))
        assert hash(PointDomain(Fraction(5, 3))) == hash(PointDomain(Fraction(5, 3)))
        assert PointDomain(Fraction(5, 3)) != SYMBOLIC
