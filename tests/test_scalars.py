import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qaw
from qaw.scalars import (RESIDUE_PRIME, SYMBOLIC, CycloFrac,
                         ForbiddenPointError, LaurentPoly, NonCyclotomicError,
                         PoleError, ResidueDomain,
                         cyclotomic, laurent_divexact,
                         q_factorial, q_integer,
                         r_series_coefficient, random_admissible_point)
from qaw.scalars import _divide_cyclotomic, _root_table
from qaw.algebra import (c13_zero_symbolic, casimir, tau_argument_elements,
                         tau_closed_form)

from fraction_domain import FractionDomain, evaluate, mod_p


def P(terms):
    return LaurentPoly(terms)


def _clean(t):
    return {e: c for e, c in t.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out)


def _ref_text(t):
    return " + ".join(f"{t[e]}*s^{e}" for e in sorted(t)) or "0"


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
        assert evaluate(a, Fraction(2)) == Fraction(17, 4)

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

    def test_divexact(self):
        a = P({2: 1, -2: -1})  # q - q^-1 in s
        b = P({0: 1, -2: 1})
        prod = a * b
        assert laurent_divexact(prod, a) == b
        with pytest.raises(ArithmeticError):
            laurent_divexact(prod + 1, a)
        c = P({3: 2, -1: 1})  # leading coefficient 2
        assert laurent_divexact(b * c, c) == b
        with pytest.raises(ArithmeticError):
            laurent_divexact(b * c + P({1: 1}), c)

    def test_products_store_no_zero(self):
        for a, b in [(P({0: 1, 1: 1}), P({0: 1, 1: -1})),
                     (P({-1: 1, 1: 1}), P({-1: 1, 1: -1})),
                     (P({-2: 1, 0: 3, 2: 1}), P({-2: 1, 0: -3, 2: 1}))]:
            for prod in (a * b, b * a):
                assert prod._c[0] and prod._c[-1]
        # The cancelled middle terms leave no zero: the stride grows instead.
        assert (P({0: 1, 1: 1}) * P({0: 1, 1: -1}))._c == [1, -1]
        assert (P({-1: 1, 1: 1}) * P({-1: 1, 1: -1})).terms == {-2: 1, 2: -1}

    def test_product_paths_agree(self):
        # The int and monomial fast paths give what a plain double loop gives.
        rng = random.Random(3)
        for _ in range(200):
            a = P({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))})
            m = P({rng.randint(-6, 6): rng.randint(-9, 9)})
            n = rng.randint(-9, 9)
            assert (a * m).terms == (m * a).terms == _ref_mul(a.terms, m.terms)
            assert (a * n).terms == (n * a).terms == _ref_mul(a.terms, {0: n})
            assert a * n == a * LaurentPoly.constant(n)


class TestDenseForm:
    """LaurentPoly, stored densely by exponent stride, against a plain
    {exponent: coefficient} reference."""

    STRIDES = (1, 2, 4, 12)

    @staticmethod
    def _rand(rng, stride):
        lo = rng.randint(-30, 10)
        return _clean({lo + stride * rng.randint(0, 6): rng.randint(-9, 9)
                       for _ in range(rng.randint(0, 6))})

    @staticmethod
    def _assert_canonical(p, t):
        """p holds the terms t in the canonical dense form."""
        assert p.terms == t
        assert p == P(t) and hash(p) == hash(P(t))
        if not t:
            assert (p._lo, p._st, p._c) == (0, 0, [])
            return
        lo = min(t)
        assert p._lo == lo and p._c[0] and p._c[-1]
        assert p._st == math.gcd(*[e - lo for e in t])
        assert p.term_count() == len(t) and p.text() == _ref_text(t)
        assert (p.min_exp(), p.max_exp(), p._c[-1]) == (lo, max(t), t[max(t)])

    def test_ring_operations_against_reference(self):
        rng = random.Random(20)
        for _ in range(400):
            ta = self._rand(rng, rng.choice(self.STRIDES))
            tb = self._rand(rng, rng.choice(self.STRIDES))
            a, b, n, k = P(ta), P(tb), rng.randint(-5, 5), rng.randint(-9, 9)
            self._assert_canonical(a, ta)
            self._assert_canonical(a + b, _ref_add(ta, tb))
            self._assert_canonical(a - b, _ref_add(ta, {e: -c for e, c in tb.items()}))
            self._assert_canonical(n - a, _ref_add({0: n}, {e: -c for e, c in ta.items()}))
            self._assert_canonical(-a, {e: -c for e, c in ta.items()})
            self._assert_canonical(a * b, _ref_mul(ta, tb))
            self._assert_canonical(a * n, _ref_mul(ta, {0: n}))
            self._assert_canonical(n * a, _ref_mul(ta, {0: n}))
            self._assert_canonical(a.shifted(k), {e + k: c for e, c in ta.items()})
            self._assert_canonical(a ** 3, _ref_mul(ta, _ref_mul(ta, ta)))
            s0 = Fraction(3, 2)
            assert evaluate(a, s0) == sum(c * s0 ** e for e, c in ta.items())
            if len(tb) > 1:  # b is not a unit, so b does not divide a*b + 1*s^k
                assert laurent_divexact(a * b, b) == a
                with pytest.raises(ArithmeticError):
                    laurent_divexact(a * b + LaurentPoly.s_power(k), b)

    def test_stride_grows_by_cancellation(self):
        p = P({0: 1, 2: 1}) * P({0: 1, 2: -1})  # (1 + s^2)(1 - s^2) = 1 - s^4
        assert (p._lo, p._st, p._c) == (0, 4, [1, -1])
        q = P({0: 1, 4: 1, 6: 1}) - P({6: 1})
        assert (q._lo, q._st, q._c) == (0, 4, [1, 1])
        assert P({-8: 2, 4: 1}) ** 2 == P({-16: 4, -4: 4, 8: 1})

    def test_stride_shrinks_on_mixed_parity(self):
        p = P({0: 1, 4: 1}) + P({1: 1, 5: -1})
        assert (p._lo, p._st, p._c) == (0, 1, [1, 1, 0, 0, 1, -1])
        assert P({-4: 3, 8: 1}) * P({-1: 1, 2: 1}) == P({-5: 3, -2: 3, 7: 1, 10: 1})

    def test_constants_equal_and_hash_as_ints(self):
        x = P({2: 1, -2: -1})
        for p, n in [(x - x, 0), (x + 3 - x, 3), (x * 0, 0), (-(x ** 0), -1),
                     (P({0: 7, 4: 0}), 7), (P({4: 1}) * P({-4: -2}), -2)]:
            assert p == n and hash(p) == hash(n) and p._st == 0
        assert len({P({0: 5}), 5, x + 5 - x}) == 1
        assert P({4: 1}) != 1 and P({4: 1}) == LaurentPoly.s_power(4)

    def test_divide_cyclotomic_on_strided_input(self):
        rng = random.Random(4)
        for k in (1, 2, 4, 8, 12, 16, 24):
            phi = cyclotomic(k)
            for stride in self.STRIDES:
                f = P(self._rand(rng, stride) or {0: 1})
                s_m = LaurentPoly.s_power(rng.randint(-20, 20))
                assert _divide_cyclotomic(f * phi, k) == f
                assert _divide_cyclotomic(f * phi + s_m, k) is None

    def test_false_zero_residue_on_strided_input(self):
        # g = 1 + s^4 + s^8 is 1 at the primitive 8th roots of unity, so Phi_8
        # does not divide it; p*g has residue 0 mod p, and the division refutes it.
        p = _root_table(8)[0]
        g = P({0: 1, 4: 1, 8: 1})
        assert g._st == 4 and _divide_cyclotomic(g, 8) is None
        assert _divide_cyclotomic(g * p, 8) is None
        assert _divide_cyclotomic(g * p * cyclotomic(8), 8) == g * p


def _heap_peak(config: str) -> int:
    """The tracemalloc peak of run_suite('all', RunConfig(config)) in bytes.

    A fresh interpreter, so that no earlier test has filled SYMBOLIC's memo
    or the process-wide tables; the peak counts the run, not the import.
    """
    code = ("import tracemalloc\n"
            "from qaw.checks import RunConfig, run_suite\n"
            "tracemalloc.start()\n"
            f"assert run_suite('all', RunConfig({config})).passed\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(qaw.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    return int(out.stdout)


class TestExactMemory:
    def test_exact_all_heap_peak(self):
        assert _heap_peak("spins=(2, 2, 2)") < 0.85 * 2 ** 20


class TestEvalMemory:
    def test_eval_all_heap_peak(self):
        # Residue values are plain ints, not one wrapper object each.
        assert _heap_peak("spins=(2, 2, 2), mode='eval', eval_points=20") < 0.64 * 2 ** 20


class TestCycloFrac:
    QDIFF = P({2: 1, -2: -1})
    QSUM = P({2: 1, -2: 1})

    def _cyclotomic_poly(self, rng):
        f = LaurentPoly.constant(rng.choice([1, -1]))
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
        return CycloFrac(num, self._cyclotomic_poly(rng))

    @staticmethod
    def _assert_reduced(r, num, den):
        """r equals num/den, and r is in its unique reduced form."""
        assert r.num * den == num * r.denominator()
        assert [k for k, _ in r.den] == sorted({k for k, _ in r.den})
        assert all(e > 0 for _, e in r.den)
        assert all(_divide_cyclotomic(r.num, k) is None for k, _ in r.den)

    def test_matches_textbook_fractions(self):
        # Each result, cross-multiplied, equals the fraction built from the
        # operands' numerators and denominators with LaurentPoly arithmetic.
        rng = random.Random(5)
        for _ in range(300):
            a, b = self._pair(rng), self._pair(rng)
            unit = self._pair(rng, cyclotomic_num=True)
            n = rng.randint(-3, 3)
            da, db, du = a.denominator(), b.denominator(), unit.denominator()
            self._assert_reduced(a + b, a.num * db + b.num * da, da * db)
            self._assert_reduced(a - b, a.num * db - b.num * da, da * db)
            self._assert_reduced(a * b, a.num * b.num, da * db)
            self._assert_reduced(a / unit, a.num * du, da * unit.num)
            self._assert_reduced(a ** abs(n), a.num ** abs(n), da ** abs(n))
            if n >= 0:
                self._assert_reduced(unit ** n, unit.num ** n, du ** n)
            else:
                self._assert_reduced(unit ** n, du ** -n, unit.num ** -n)

    def test_reduced_form(self):
        x = SYMBOLIC.one / (SYMBOLIC.q(1) - SYMBOLIC.q(-1))
        assert (x.num, x.den) == (P({2: 1}), ((1, 1), (2, 1), (4, 1)))
        assert x == CycloFrac(1, self.QDIFF)
        assert x * SYMBOLIC.image(CycloFrac(self.QDIFF)) == SYMBOLIC.one
        # 4(1 + s^2)/(s^4 - 1): the common Phi_4 cancels, the content 4 stays.
        assert CycloFrac(P({0: 4, 2: 4}), P({0: -1, 4: 1})).text() == "(4*s^0)/(-1*s^0 + 1*s^2)"

    def test_false_zero_residue_is_refuted(self):
        # p(1 + s) vanishes mod p at every root of unity, yet s - 1 does not divide it.
        p = _root_table(1)[0]
        x = CycloFrac(P({0: p, 1: p}), P({1: 1, 0: -1}))
        assert x.den == ((1, 1),)
        assert x.text() == f"({p}*s^0 + {p}*s^1)/(-1*s^0 + 1*s^1)"

    def test_divide_cyclotomic_differential(self):
        # Division by Phi_k against multiplication by it, for f with negative
        # exponents; a remainder s^m, and p times it (whose residue is 0 mod
        # p), are refuted.
        rng = random.Random(13)
        for k in range(1, 31):
            phi = cyclotomic(k)
            p = _root_table(k)[0]
            for _ in range(6):
                f = P({rng.randint(-15, 10): rng.randint(-30, 30)
                       for _ in range(rng.randint(1, 7))})
                if not f:
                    continue
                s_m = LaurentPoly.s_power(rng.randint(-20, 40))
                assert _divide_cyclotomic(f * phi, k) == f
                assert _divide_cyclotomic(f * phi + s_m, k) is None
                assert _divide_cyclotomic((f * phi + s_m) * p, k) is None
                assert laurent_divexact(f * phi, phi) == f
                with pytest.raises(ArithmeticError):
                    laurent_divexact(f * phi + s_m, phi)

    def test_inverse_pair(self):
        x = CycloFrac(1, P({2: 1, 0: 1}))
        assert x * CycloFrac(P({2: 1, 0: 1})) == CycloFrac(1)

    def test_zero_identity(self):
        x = CycloFrac(P({3: 2, -1: 5}), P({0: 1, 2: 1}))
        assert CycloFrac(0) + x == x

    def test_invert_q_minus_qinv(self):
        # 1/(q - q^-1) = s^2/(s^4 - 1): minimal exponent 0, positive lead.
        x = CycloFrac(self.QDIFF).inverse()
        assert x.num == P({2: 1})
        assert x.denominator() == P({4: 1, 0: -1})

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycloFrac(0).inverse()

    def test_equality_cross_multiplication(self):
        a = CycloFrac(P({2: 1, 3: 1}), P({0: 1, 1: 1, 4: 1, 5: 1}))  # s^2(1+s)/((1+s)(1+s^4))
        b = CycloFrac(P({2: 1}), P({0: 1, 4: 1}))
        assert a == b
        assert a.num * b.denominator() == b.num * a.denominator()

    def test_equality_with_int_and_laurent(self):
        assert CycloFrac(P({0: 3, 2: -3}), P({0: 1, 2: -1})) == 3 == CycloFrac(3)
        assert CycloFrac(P({2: 1, -2: -1})) == P({2: 1, -2: -1})
        assert SYMBOLIC.one == 1 and SYMBOLIC.zero == 0 and SYMBOLIC.q(1) == P({2: 1})
        x = CycloFrac(1, P({0: 1, 1: 1}))  # 1/(1 + s)
        assert x.den == ((2, 1),)
        assert x != 0 and x != 1 and x != P({0: 1})
        assert x * P({0: 1, 1: 1}) == 1
        y = CycloFrac(2, P({0: 1, 2: 1}))  # 2/(1 + s^2)
        assert y.den == ((4, 1),)
        assert y != 2 and y != 1 and y != P({0: 2})
        assert y * P({0: 1, 2: 1}) == 2
        assert CycloFrac(P({1: 1})) != P({-1: 1}) and CycloFrac(1) != "1"

    def test_equal_values_hash_equal(self):
        three, x = LaurentPoly.constant(3), P({2: 1, -2: -1})
        for a, b in [(three, 3), (LaurentPoly.zero(), 0), (CycloFrac(3), 3),
                     (CycloFrac(3), three), (CycloFrac(0), 0), (CycloFrac(x), x),
                     (CycloFrac(P({0: 3, 2: -3}), P({0: 1, 2: -1})), 3), (SYMBOLIC.one, 1)]:
            assert a == b and hash(a) == hash(b)
        assert len({3, three, CycloFrac(3)}) == 1
        assert len({x, CycloFrac(x), CycloFrac(1, P({0: 1, 1: 1})),
                    CycloFrac(x, P({2: 1, -2: 1}))}) == 3

    def test_field_laws_random(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = self._pair(rng), self._pair(rng), self._pair(rng)
            unit = self._pair(rng, cyclotomic_num=True)
            assert (a + b) * c == a * c + b * c
            assert a - a == CycloFrac(0)
            assert (a / unit) * unit == a

    def test_text(self):
        x = CycloFrac(P({-2: 3, 4: 1}), P({0: 1, 2: 1}))
        assert x.text() == "(3*s^-2 + 1*s^4)/(1*s^0 + 1*s^2)"

    def test_non_cyclotomic_division_raises(self):
        bad = CycloFrac(P({0: 1, 1: 2}))
        with pytest.raises(NonCyclotomicError):
            SYMBOLIC.one / bad
        with pytest.raises(NonCyclotomicError):
            CycloFrac(LaurentPoly.one(), P({0: 1, 1: 3, 2: 1}))
        # An integer > 1 in a denominator is not cyclotomic either.
        for bad_value in (lambda: CycloFrac(1, 2),
                          lambda: CycloFrac(P({0: 4}), P({0: 6})),
                          lambda: CycloFrac(1, P({1: 2, 0: -2})),  # 2(s - 1)
                          lambda: CycloFrac(2).inverse(),
                          lambda: SYMBOLIC.one / SYMBOLIC.integer(2),
                          lambda: CycloFrac(LaurentPoly.one(), LaurentPoly.constant(3))):
            with pytest.raises(NonCyclotomicError):
                bad_value()

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
        assert r_series_coefficient(0) == CycloFrac(1)
        assert r_series_coefficient(1) == CycloFrac(P({2: 1, -2: -1}))

    def test_series_coefficient_recurrence(self):
        # a_{n+1} [n+1]_q = q^n (q - q^-1) a_n
        qdiff = CycloFrac(P({2: 1, -2: -1}))
        for n in range(11):
            lhs = r_series_coefficient(n + 1) * CycloFrac(q_integer(n + 1))
            rhs = CycloFrac(LaurentPoly.q_power(n)) * qdiff * r_series_coefficient(n)
            assert lhs == rhs

    def test_series_coefficient_shift_identity(self):
        # a_n q^-2n = a_n - a_n [n]_q q^-n (q - q^-1)
        qdiff = CycloFrac(P({2: 1, -2: -1}))
        for n in range(11):
            an = r_series_coefficient(n)
            lhs = an * CycloFrac(LaurentPoly.q_power(-2 * n))
            rhs = an - an * CycloFrac(q_integer(n)) * CycloFrac(LaurentPoly.q_power(-n)) * qdiff
            assert lhs == rhs


class TestEvaluation:
    def test_forbidden_points(self):
        for bad in (0, 1, -1):
            with pytest.raises(ForbiddenPointError):
                FractionDomain(Fraction(bad))

    def test_substitution(self):
        assert evaluate(q_integer(2), Fraction(2)) == Fraction(17, 4)
        assert evaluate(r_series_coefficient(1), Fraction(2)) == Fraction(15, 4)

    def test_pole(self):
        x = CycloFrac(1, P({1: 1, 0: -1}))  # pole at s = 1
        with pytest.raises(PoleError):
            evaluate(x, Fraction(1))

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        s0 = Fraction(3, 2)
        for _ in range(40):
            a = CycloFrac(LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                                       for _ in range(2)}),
                          q_integer(rng.randint(1, 4)) * rng.choice([1, -1]))
            b = CycloFrac(LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                                       for _ in range(2)}),
                          LaurentPoly({0: 1, 2: 1}))
            assert evaluate(a * b, s0) == evaluate(a, s0) * evaluate(b, s0)
            assert evaluate(a + b, s0) == evaluate(a, s0) + evaluate(b, s0)

    def test_random_points_admissible(self):
        # Seeded draws repeat, and each is a residue in [2, P - 2].
        rng, again = random.Random(5), random.Random(5)
        points = [random_admissible_point(rng) for _ in range(100)]
        assert points == [random_admissible_point(again) for _ in range(100)]
        assert all(type(s0) is int and 2 <= s0 <= RESIDUE_PRIME - 2 for s0 in points)


class TestDomains:
    def test_symbolic_and_point_agree(self):
        s0 = Fraction(5, 3)
        pt, res = FractionDomain(s0), ResidueDomain(mod_p(s0))
        for n in range(8):
            assert evaluate(SYMBOLIC.q_int(n), s0) == pt.q_int(n)
            assert evaluate(SYMBOLIC.series_coeff(n), s0) == pt.series_coeff(n)
            assert res.series_coeff(n) == mod_p(pt.series_coeff(n))
        assert evaluate(SYMBOLIC.s(3), s0) == pt.s(3)

    def test_residue_domain_rejects_forbidden_points(self):
        # P - 1 = 2 * (odd): no residue has order 4 or 8, so s**8 = 1 only at
        # s = +-1, and 0, 1 and P - 1 are the only residues to reject.
        assert (RESIDUE_PRIME - 1) % 4 == 2
        for bad in (0, 1, RESIDUE_PRIME - 1, RESIDUE_PRIME + 1, -1):
            with pytest.raises(ForbiddenPointError):
                ResidueDomain(bad)
        with pytest.raises(TypeError):
            ResidueDomain(Fraction(5, 3))
        assert ResidueDomain(RESIDUE_PRIME + 2).s0 == 2

    def test_domain_hashing(self):
        five_thirds = mod_p(Fraction(5, 3))
        assert ResidueDomain(five_thirds) == ResidueDomain(five_thirds + RESIDUE_PRIME)
        assert hash(ResidueDomain(five_thirds)) == hash(ResidueDomain(five_thirds))
        assert ResidueDomain(five_thirds) != ResidueDomain(mod_p(Fraction(3, 5)))
        assert ResidueDomain(five_thirds) != SYMBOLIC
        assert repr(ResidueDomain(five_thirds)) == f"ResidueDomain({five_thirds})"

    @pytest.mark.parametrize("domain", [SYMBOLIC, FractionDomain(Fraction(5, 3)),
                                        ResidueDomain(mod_p(Fraction(5, 3)))], ids=repr)
    def test_scalars_are_images(self, domain):
        # Each scalar a domain hands out is the image of its CycloFrac.  The
        # powers of s are computed in the field: at the point 5/3 over Q,
        # reduced mod P, for the residue domain, whose ints have no arithmetic
        # of their own.
        field = FractionDomain(Fraction(5, 3)) if domain.modulus else domain
        for k in range(-5, 6):
            power = field.s(1) ** k
            assert domain.s(k) == domain.image(CycloFrac(LaurentPoly.s_power(k))) \
                == (mod_p(power) if domain.modulus else power)
            assert domain.q(k) == domain.image(CycloFrac(LaurentPoly.q_power(k))) \
                == domain.s(2 * k)
            assert domain.integer(k) == domain.image(CycloFrac(k))
        assert domain.zero == domain.image(CycloFrac(0)) and not domain.zero
        assert domain.one == domain.image(CycloFrac(1)) == domain.one * domain.one
        assert domain.q_diff_inverse() == domain.image(CycloFrac(1, LaurentPoly({2: 1, -2: -1})))
        for n in range(8):
            assert domain.q_int(n) == domain.image(CycloFrac(q_integer(n)))
            assert domain.series_coeff(n) == domain.image(r_series_coefficient(n))
        assert type(domain.s(1)) is type(domain.series_coeff(2)) is type(domain.zero)


# An integer of multiplicative order 3 mod P: q = s0**2 has order 3, so [3]_q = 0 mod P.
ORDER_THREE = 1669582390241348315


class TestResidueDomain:
    POINTS = (Fraction(5, 3), Fraction(51, 55), Fraction(2, 97), Fraction(-7, 4), Fraction(96, 95))

    def test_matches_point_domain_mod_p(self):
        # FractionDomain's values, reduced mod P, are the reference:
        # the image of each value, and of sums, products and quotients of
        # values, is an int in [0, P) and falsy exactly when it is 0 mod P.
        rng = random.Random(13)
        gen = TestCycloFrac()
        for s0 in self.POINTS:
            res, pt = ResidueDomain(mod_p(s0)), FractionDomain(s0)
            for _ in range(40):
                a, b = gen._pair(rng), gen._pair(rng)
                u = gen._pair(rng, cyclotomic_num=True)
                poly = CycloFrac(LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                                              for _ in range(4)}))
                n = rng.randint(-3, 3)
                for x in (a, b, u, poly, a + b, a - b, a * b, a / u, u ** n, -a,
                          3 + a, a - 5, 2 - a, a * -4, 1 / u):
                    got, want = res.image(x), mod_p(pt.image(x))
                    assert type(got) is int and 0 <= got < RESIDUE_PRIME
                    assert got == want and bool(got) == (pt.image(x) != 0)

    def test_domain_values(self):
        five_thirds = mod_p(Fraction(5, 3))
        res = ResidueDomain(five_thirds)
        assert res.s(1) * 3 % RESIDUE_PRIME == 5 and res.s(-1) * 5 % RESIDUE_PRIME == 3
        assert res.q(2) == res.s(4) == pow(res.s(1), 4, RESIDUE_PRIME)
        assert res.integer(-1) == RESIDUE_PRIME - 1 and not res.zero and res.one == 1
        assert res.describe() == f"s={five_thirds}"
        assert res == ResidueDomain(five_thirds) != FractionDomain(Fraction(5, 3))
        assert hash(res) == hash(ResidueDomain(five_thirds))

    def test_q_minus_and_plus_q_inverse_never_vanish(self):
        # The pole argument of the checks.py module docstring: the orders up
        # to 8 that divide P - 1 leave out 4 and 8, so s**8 = 1 only at
        # s = +-1, and q - 1/q and q + 1/q are units at every admissible draw.
        assert [d for d in range(1, 9) if (RESIDUE_PRIME - 1) % d == 0] == [1, 2, 3, 5, 6, 7]
        assert math.gcd(8, RESIDUE_PRIME - 1) == 2
        inv_qsum = CycloFrac(1, LaurentPoly({2: 1, -2: 1}))
        rng = random.Random(11)
        for _ in range(200):
            res = ResidueDomain(random_admissible_point(rng))
            assert pow(res.s0, 8, RESIDUE_PRIME) != 1
            assert res.q_diff_inverse() != 0 and res.image(inv_qsum) != 0

    def test_zero_denominator_mod_p_is_a_pole(self):
        assert pow(ORDER_THREE, 3, RESIDUE_PRIME) == 1 != ORDER_THREE
        res = ResidueDomain(ORDER_THREE)
        assert res.q_int(3) == 0
        with pytest.raises(PoleError):
            res.series_coeff(3)
        with pytest.raises(PoleError):
            res.image(CycloFrac(1, q_integer(3)))
        assert FractionDomain(Fraction(ORDER_THREE)).series_coeff(3) != 0


class TestImage:
    """ScalarDomain.image: where a PBW coefficient over Q(s) meets a matrix."""

    @staticmethod
    def _coefficients():
        elements = [casimir(), c13_zero_symbolic()] + [
            tau_closed_form(x) for x in tau_argument_elements().values()]
        return [c for x in elements for _, c in x.items()]

    @pytest.mark.parametrize("s0", TestResidueDomain.POINTS)
    def test_point_and_residue_images(self, s0):
        pt, res = FractionDomain(s0), ResidueDomain(mod_p(s0))
        for c in self._coefficients():
            assert SYMBOLIC.image(c) is c
            assert pt.image(c) == evaluate(c, s0)
            assert res.image(c) * res.image(CycloFrac(c.denominator())) % RESIDUE_PRIME == \
                res.image(CycloFrac(c.num))
            assert res.image(c) == mod_p(evaluate(c, s0))

    def test_residue_image_at_a_pole(self):
        # q = ORDER_THREE**2 has order 3, so [3]_q = 0 mod P.
        inv_q3 = CycloFrac(1, q_integer(3))
        assert FractionDomain(Fraction(ORDER_THREE)).image(inv_q3) != 0
        with pytest.raises(PoleError):
            ResidueDomain(ORDER_THREE).image(inv_q3)
