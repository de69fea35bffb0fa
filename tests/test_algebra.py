import random
from pathlib import Path

import pytest

from qaw.algebra import (ArityMismatchError, InvalidPatternError, MONO_ONE,
                         PBWMonomial, TensorElement, UnsupportedElementError,
                         c13_zero_symbolic, casimir, commutator_F_En,
                         coproduct, coproduct_on_leg, coproduct_op,
                         extend_coproduct, generator, normal_order_mul,
                         pbw_element, q_commutator, random_element,
                         tau_argument_elements, tau_closed_form, unit_element)
from qaw.scalars import SYMBOLIC, CycloFrac, LaurentPoly

GOLDEN = Path(__file__).parent / "golden"

D = SYMBOLIC


def gens():
    return generator("E"), generator("F"), generator("K")


class TestNormalOrdering:
    def test_ef_commutation(self):
        e, f, _ = gens()
        prod = e * f
        qdiff = CycloFrac(LaurentPoly({2: 1, -2: -1}))
        assert prod.coefficient((PBWMonomial(1, 1, 0),)) == CycloFrac(1)
        assert prod.coefficient((PBWMonomial(0, 0, 2),)) == CycloFrac(1) / qdiff
        assert prod.coefficient((PBWMonomial(0, 0, -2),)) == -(CycloFrac(1) / qdiff)
        assert prod.term_count() == 3

    def test_ke_commutation(self):
        e, _, k = gens()
        assert k * e == pbw_element(0, 1, 1).scale(D.q(1))
        assert k * generator("F") == pbw_element(1, 0, 1).scale(D.q(-1))

    def test_unit_law(self):
        rng = random.Random(5)
        one = unit_element()
        for _ in range(5):
            x = random_element(1, rng)
            assert x * one == x
            assert one * x == x

    def test_associativity_random(self):
        rng = random.Random(9)
        for arity in (1, 2):
            for _ in range(4):
                x = random_element(arity, rng, max_power=2, max_k=2)
                y = random_element(arity, rng, max_power=2, max_k=2)
                z = random_element(arity, rng, max_power=2, max_k=2)
                assert (x * y) * z == x * (y * z)

    def test_normal_form_is_canonical(self):
        # Re-normal-ordering a PBW element is the identity map.
        rng = random.Random(13)
        x = random_element(1, rng)
        assert x * unit_element() == x

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            normal_order_mul(unit_element(2), unit_element(3))



class TestCommutatorClosedForm:
    def test_n1_matches_lowering_commutator(self):
        # [F, E] = (K^-2 - K^2)/(q - q^-1), i.e. -[2H]_q.
        qdiff = CycloFrac(LaurentPoly({2: 1, -2: -1}))
        el = commutator_F_En(1)
        assert el.coefficient((PBWMonomial(0, 0, -2),)) == CycloFrac(1) / qdiff
        assert el.coefficient((PBWMonomial(0, 0, 2),)) == -(CycloFrac(1) / qdiff)

    def test_n2_coefficients(self):
        # [F, E^2] = [2]_q/(q - q^-1) (q K^-2 - q^-1 K^2) E, with the K powers
        # commuted through E: picks up q^-2 and q^2 respectively.
        qdiff = CycloFrac(LaurentPoly({2: 1, -2: -1}))
        two = CycloFrac(LaurentPoly({2: 1, -2: 1}))
        el = commutator_F_En(2)
        assert el.coefficient((PBWMonomial(0, 1, -2),)) == \
            two * CycloFrac(LaurentPoly.q_power(-1)) / qdiff
        assert el.coefficient((PBWMonomial(0, 1, 2),)) == \
            -(two * CycloFrac(LaurentPoly.q_power(1)) / qdiff)
        assert el.term_count() == 2

    def test_against_engine(self):
        e, f, _ = gens()
        en = unit_element()
        for n in range(1, 6):
            en = en * e
            assert f * en - en * f == commutator_F_En(n)


class TestCasimir:
    def test_pbw_coefficients(self):
        c = casimir()
        qdiff = CycloFrac(LaurentPoly({2: 1, -2: -1}))
        qsum = CycloFrac(LaurentPoly({2: 1, -2: 1}))
        assert c.coefficient((PBWMonomial(1, 1, 0),)) == -(qdiff * qdiff) / qsum
        assert c.coefficient((PBWMonomial(0, 0, 2),)) == -CycloFrac(LaurentPoly.q_power(1)) / qsum
        assert c.term_count() == 3

    def test_centrality(self):
        c = casimir()
        for g in gens():
            assert (c * g - g * c).is_zero()

    def test_golden_serialization(self):
        expected = (GOLDEN / "casimir_pbw.txt").read_text().rstrip("\n")
        assert casimir().text() == expected


class TestCoproduct:
    def test_on_generators(self):
        e, f, k = gens()
        kinv_mono = (PBWMonomial(0, 0, -1),)
        cop_e = coproduct(e)
        assert cop_e.coefficient((PBWMonomial(0, 1, 0), PBWMonomial(0, 0, -1))) == CycloFrac(1)
        assert cop_e.coefficient((PBWMonomial(0, 0, 1), PBWMonomial(0, 1, 0))) == CycloFrac(1)
        assert coproduct(k) == TensorElement(
            2, {(PBWMonomial(0, 0, 1), PBWMonomial(0, 0, 1)): D.one})
        assert coproduct(unit_element()) == unit_element(2)

    def test_morphism(self):
        rng = random.Random(21)
        for _ in range(6):
            x = random_element(1, rng)
            y = random_element(1, rng)
            assert coproduct(x * y) == coproduct(x) * coproduct(y)

    def test_opposite(self):
        e, _, k = gens()
        assert coproduct_op(k) == coproduct(k)
        cop = coproduct_op(e)
        assert cop.coefficient((PBWMonomial(0, 0, -1), PBWMonomial(0, 1, 0))) == CycloFrac(1)
        assert cop.coefficient((PBWMonomial(0, 1, 0), PBWMonomial(0, 0, 1))) == CycloFrac(1)

    def test_casimir_is_not_cocommutative(self):
        # The q-deformation breaks cocommutativity even on the Casimir: the
        # two coproducts are intertwined by R but differ as elements.
        c = casimir()
        assert coproduct_op(c) != coproduct(c)

    def test_coassociativity(self):
        for x in (*gens(), casimir()):
            assert coproduct_on_leg(coproduct(x), 1) == coproduct_on_leg(coproduct(x), 2)


class TestExtendCoproduct:
    def test_single_leg(self):
        c = casimir()
        c1 = extend_coproduct(c, (1,), 3)
        for key, coeff in c.items():
            assert c1.coefficient((key[0], MONO_ONE, MONO_ONE)) == coeff

    def test_sweedler_13(self):
        c = casimir()
        c13 = extend_coproduct(c, (1, 3), 3)
        cop = coproduct(c)
        assert c13.term_count() == cop.term_count()
        for (u, v), coeff in cop.items():
            assert c13.coefficient((u, MONO_ONE, v)) == coeff

    def test_full_coproduct_both_orders(self):
        c = casimir()
        total = extend_coproduct(c, (1, 2, 3), 3)
        assert total == coproduct_on_leg(coproduct(c), 2)

    def test_invalid_patterns(self):
        c = casimir()
        for legs in ((), (0,), (1, 1), (2, 1), (1, 4)):
            with pytest.raises(InvalidPatternError):
                extend_coproduct(c, legs, 3)


class TestTau:
    def test_closed_form_images(self):
        args = tau_argument_elements()
        c = casimir()
        assert tau_closed_form(args["casimir"]) == unit_element().tensor(c)
        kinv2 = pbw_element(0, 0, -2)
        kinv_e = pbw_element(0, 0, -1) * generator("E")
        assert tau_closed_form(args["kinv_e"]) == kinv2.tensor(kinv_e)
        qdiff_sq = (D.q(1) - D.q(-1)) ** 2
        kinv_f = pbw_element(0, 0, -1) * generator("F")
        expected = unit_element().tensor(kinv2) - kinv_f.tensor(kinv_e).scale(qdiff_sq)
        assert tau_closed_form(args["kinv_squared"]) == expected

    def test_golden_f_kinv(self):
        expected = (GOLDEN / "tau_f_kinv.txt").read_text().rstrip("\n")
        args = tau_argument_elements()
        assert tau_closed_form(args["f_kinv"]).text() == expected

    def test_unsupported_argument(self):
        with pytest.raises(UnsupportedElementError):
            tau_closed_form(generator("E"))


class TestQCommutator:
    def test_square_identity(self):
        rng = random.Random(2)
        x = random_element(2, rng, max_power=1, max_k=1)
        qdiff = D.q(1) - D.q(-1)
        assert q_commutator(x, x) == (x * x).scale(qdiff)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            q_commutator(unit_element(2), unit_element(3))


class TestSymbolicAW3:
    def test_relation_reduces_to_zero(self):
        c = casimir()
        c12 = extend_coproduct(c, (1, 2), 3)
        c23 = extend_coproduct(c, (2, 3), 3)
        c1 = extend_coproduct(c, (1,), 3)
        c2 = extend_coproduct(c, (2,), 3)
        c3 = extend_coproduct(c, (3,), 3)
        c123 = extend_coproduct(c, (1, 2, 3), 3)
        inv_qdiff = D.one / (D.q(1) - D.q(-1))
        lhs = q_commutator(c12, c23).scale(inv_qdiff)
        rhs = c13_zero_symbolic() + c1 * c3 + c2 * c123
        assert (lhs - rhs).is_zero()

    def test_c13_zero_is_finite_and_bounded(self):
        el = c13_zero_symbolic()
        assert el.arity == 3
        assert el.term_count() > 0
        ks = [m.k for key in dict(el.items()) for m in key]
        assert max(ks) <= 4 and min(ks) >= -4


class TestSerialization:
    def test_term_order(self):
        x = pbw_element(1, 0, 0) + pbw_element(0, 1, 0) + pbw_element(0, 0, -1)
        lines = x.text().splitlines()
        assert [ln.split(" :: ")[1] for ln in lines] == \
            ["(0,0,-1)", "(0,1,0)", "(1,0,0)"]

    def test_zero_element(self):
        assert (pbw_element(1, 0, 0) - pbw_element(1, 0, 0)).text() == "0"
