import itertools
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from qaw.algebra import (ArityMismatchError, PBWMonomial, TensorElement, casimir,
                         coproduct, coproduct_on_leg, coproduct_op,
                         extend_coproduct, generator, normal_order_mul,
                         pbw_element, random_element, unit_element)
from qaw.representations import (ExactMatrix, InternalMismatchError,
                                 casimir_scalar_highest_weight,
                                 coproduct_split_r, embed_two_leg,
                                 intermediate_casimirs,
                                 permutation_operator, r_matrix,
                                 r_matrix_inverse, r_series_term, r_tilde,
                                 r_tilde_inverse, represent, spin_module,
                                 tensor_context)
from qaw.scalars import (SYMBOLIC, CycloFrac, LaurentPoly, PointDomain, ResidueDomain,
                         add_into, q_integer)

GOLDEN = Path(__file__).parent / "golden"

D = SYMBOLIC

# The three scalar domains every leg-factor construction is compared in.
DOMAINS = pytest.mark.parametrize("domain", [D, PointDomain(Fraction(5, 3)),
                                             ResidueDomain(Fraction(43, 21))],
                                  ids=["symbolic", "point", "residue"])


class TestExactMatrix:
    @pytest.mark.parametrize("domain", [D, PointDomain(Fraction(3, 5))])
    def test_difference_drops_cancelling_entries(self, domain):
        x, y, z = domain.q(1), domain.s(3), domain.q_int(2)
        a = ExactMatrix(2, {(0, 0): x, (0, 1): y})
        b = ExactMatrix(2, {(0, 0): x, (1, 1): z})
        diff = a - b
        assert dict(diff.items()) == {(0, 1): y, (1, 1): -z}
        assert diff.entry(0, 0) is None
        assert (diff + b) == a
        assert (a - ExactMatrix(2, {(0, 1): y, (0, 0): x})).is_zero()

    @pytest.mark.parametrize("domain", [D, PointDomain(Fraction(3, 5))])
    def test_self_difference_is_zero(self, domain):
        a = spin_module(2, domain).e + spin_module(2, domain).k
        assert (a - a).is_zero()
        assert (a - a).nnz() == 0


def _term_by_term(zero, pieces):
    """The sum of (key, value) pairs, one at a time, with zero sums dropped."""
    total = {}
    for key, v in pieces:
        total[key] = total.get(key, zero) + v
    return {key: v for key, v in total.items() if v}


def _single_terms(x: TensorElement):
    return [TensorElement(x.domain, x.arity, {key: c}) for key, c in x.items()]


class TestSparseSums:
    @pytest.mark.parametrize("domain", [D, PointDomain(Fraction(5, 3)),
                                        ResidueDomain(Fraction(5, 3))],
                             ids=["symbolic", "point", "residue"])
    def test_sums_match_term_by_term_and_hold_no_zero(self, domain):
        zero = domain.zero

        def check(result, pieces, zero=zero):
            entries = dict(result.terms if isinstance(result, LaurentPoly) else result.items())
            assert entries == _term_by_term(zero, pieces)
            assert all(entries.values())

        acc = {0: domain.q(1)}
        assert add_into(acc, [(0, -domain.q(1)), (1, domain.s(3))]) and acc == {1: domain.s(3)}
        assert not add_into(acc, [(1, domain.s(3))], domain.q(-1))

        # Each sum is taken with a partly cancelling and a fully cancelling term.
        a, b = LaurentPoly({-1: 4, 0: 1, 2: 3}), LaurentPoly({2: -3, 5: 1})
        for y in (b, -a):
            check(a + y, [*a.terms.items(), *y.terms.items()], zero=0)

        e, f, k = (generator(domain, g) for g in ("E", "F", "K"))
        one = unit_element(domain)
        x = e.tensor(k).scale(domain.q(1)) + f.tensor(one) + k.tensor(e).scale(domain.s(3))
        part = e.tensor(k).scale(-domain.q(1)) + (f * e).tensor(one).scale(domain.q_int(2))
        for y in (part, -x):
            check(x + y, [*x.items(), *y.items()])

        # (E + F)(E - F): the F E terms of -E F and F E cancel.
        u, v = e + f, e - f
        fe = (PBWMonomial(1, 1, 0),)
        for s, t in ((u.tensor(v), v.tensor(u)), (u, v)):
            pieces = [kv for s1 in _single_terms(s) for t1 in _single_terms(t)
                      for kv in normal_order_mul(s1, t1).items()]
            check(normal_order_mul(s, t), pieces)
        assert fe in dict(pieces) and fe not in dict(normal_order_mul(u, v).items())

        z = x + part
        for leg in (1, 2):
            check(coproduct_on_leg(z, leg),
                  [kv for t in _single_terms(z) for kv in coproduct_on_leg(t, leg).items()])
            assert (coproduct_on_leg(x, leg) + coproduct_on_leg(-x, leg)).is_zero()

        mod = spin_module(2, domain)
        m = mod.e + mod.k
        for n in (mod.f - mod.k, mod.k, -m):
            check(m + n, [*m.items(), *n.items()])
            check(m - n, [*m.items(), *((rc, -w) for rc, w in n.items())])
        assert (m - m).is_zero()


class TestSpinModule:
    def test_trivial(self):
        mod = spin_module(0, D)
        assert mod.e.is_zero() and mod.f.is_zero()
        assert mod.k == ExactMatrix.identity(1, D.one)

    def test_spin_half(self):
        mod = spin_module(1, D)
        assert mod.e == ExactMatrix(2, {(0, 1): D.one})
        assert mod.f == ExactMatrix(2, {(1, 0): D.one})
        assert mod.k == ExactMatrix.diagonal([D.s(1), D.s(-1)])

    def test_spin_one_entries(self):
        # E carries [1]_q and [2]_q on the superdiagonal, per the weight action.
        mod = spin_module(2, D)
        assert mod.e.entry(0, 1) == CycloFrac(q_integer(1))
        assert mod.e.entry(1, 2) == CycloFrac(q_integer(2))
        assert mod.f.entry(1, 0) == CycloFrac(q_integer(2))
        assert mod.f.entry(2, 1) == CycloFrac(q_integer(1))
        assert mod.k == ExactMatrix.diagonal([D.s(2), D.s(0), D.s(-2)])

    def test_defining_relations_all_sizes(self):
        qdiff = D.q(1) - D.q(-1)
        for two_j in range(5):
            mod = spin_module(two_j, D)
            assert mod.k * mod.e == (mod.e * mod.k).scale(D.q(1))
            assert mod.k * mod.f == (mod.f * mod.k).scale(D.q(-1))
            lhs = mod.e * mod.f - mod.f * mod.e
            rhs = (mod.k * mod.k - mod.kinv * mod.kinv).scale(D.one / qdiff)
            assert lhs == rhs
            assert mod.gen_power("e", two_j + 1).is_zero()
            assert mod.gen_power("f", two_j + 1).is_zero()


class TestRepresent:
    def test_casimir_trivial_is_minus_one(self):
        ctx = tensor_context((0,), D)
        assert represent(casimir(D), ctx) == \
            ExactMatrix(1, {(0, 0): D.integer(-1)})

    def test_casimir_scalar_matches_oracle(self):
        for two_j in range(7):
            ctx = tensor_context((two_j,), D)
            mat = represent(casimir(D), ctx)
            scalar = casimir_scalar_highest_weight(two_j, D)
            assert mat == ctx.identity().scale(scalar)

    def test_morphism(self):
        rng = random.Random(17)
        ctx = tensor_context((1, 2), D)
        for _ in range(4):
            x = random_element(D, 2, rng, max_power=1, max_k=1)
            y = random_element(D, 2, rng, max_power=1, max_k=1)
            assert represent(x * y, ctx) == represent(x, ctx) * represent(y, ctx)
        assert represent(unit_element(D, 2), ctx) == ctx.identity()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            represent(unit_element(D, 2), tensor_context((1, 1, 1), D))

    @DOMAINS
    @pytest.mark.parametrize("spins", [(2,), (1, 3), (2, 1, 2), (1, 2, 1, 1)])
    def test_grouped_matches_term_by_term(self, domain, spins):
        # Products of random elements repeat leg prefixes and cancel terms;
        # x - x has no terms left and must still give the full-size zero.
        rng = random.Random(len(spins))
        ctx = tensor_context(spins, domain)
        for _ in range(3):
            x = random_element(domain, len(spins), rng, max_power=1, max_k=1)
            y = random_element(domain, len(spins), rng, max_power=1, max_k=1)
            for z in (x, x * y, x * y - y * x, x - x):
                reference = ExactMatrix(ctx.total_dim)
                for key, c in z.items():
                    mono = reduce(ExactMatrix.kron, (spin_module(t, domain).monomial(m)
                                                     for t, m in zip(spins, key)))
                    reference = reference + mono.scale(c)
                assert represent(z, ctx) == reference


class TestRMatrix:
    def test_trivial_leg_gives_identity(self):
        for spins in ((0, 2), (3, 0)):
            ctx = tensor_context(spins, D)
            assert r_matrix((1, 2), ctx) == ctx.identity()

    def test_spin_half_pair_golden(self):
        ctx = tensor_context((1, 1), D)
        expected = (GOLDEN / "r_matrix_spin_half_pair.txt").read_text().rstrip("\n")
        assert r_matrix((1, 2), ctx).text() == expected

    def test_spin_half_pair_structure(self):
        # Diagonal from q^(2 H@H) plus a single series entry in the
        # weight (-1/2,+1/2) -> (+1/2,-1/2) position.
        ctx = tensor_context((1, 1), D)
        rr = r_matrix((1, 2), ctx)
        qdiff = D.q(1) - D.q(-1)
        assert rr.entry(0, 0) == D.s(1)
        assert rr.entry(1, 1) == D.s(-1)
        assert rr.entry(2, 2) == D.s(-1)
        assert rr.entry(3, 3) == D.s(1)
        assert rr.entry(1, 2) == D.s(-1) * qdiff
        assert rr.nnz() == 5

    def test_intertwining(self):
        for spins in ((1, 1), (2, 1), (2, 2)):
            ctx = tensor_context(spins, D)
            rr = r_matrix((1, 2), ctx)
            for g in ("E", "F", "K"):
                x = generator(D, g)
                assert represent(coproduct(x), ctx) * rr == \
                    rr * represent(coproduct_op(x), ctx)

    def test_truncation(self):
        for spins in ((1, 1), (2, 1), (2, 2)):
            ctx = tensor_context(spins, D)
            bound = min(spins)
            assert r_series_term((1, 2), ctx, bound + 1).is_zero()
            assert r_matrix((1, 2), ctx, extra_terms=1) == r_matrix((1, 2), ctx)

    def test_yang_baxter(self):
        ctx = tensor_context((1, 2, 1), D)
        r12 = r_matrix((1, 2), ctx)
        r13 = r_matrix((1, 3), ctx)
        r23 = r_matrix((2, 3), ctx)
        assert r12 * r13 * r23 == r23 * r13 * r12

    @staticmethod
    def _split_r_full_space(ctx, side):
        """The split R as the full-space series of x = A @ B times the weight diagonal."""
        d = ctx.domain
        kinv_f = pbw_element(d, 0, 0, -1) * generator(d, "F")
        e_k = generator(d, "E") * pbw_element(d, 0, 0, 1)
        if side == "id_coproduct":
            x = represent(e_k, tensor_context(ctx.spins[:1], d)).kron(
                represent(coproduct(kinv_f), tensor_context(ctx.spins[1:], d)))
        else:
            x = represent(coproduct(e_k), tensor_context(ctx.spins[:2], d)).kron(
                represent(kinv_f, tensor_context(ctx.spins[2:], d)))
        series, term = ExactMatrix(ctx.total_dim), ctx.identity()
        for n in range(ctx.total_dim):
            series = series + term.scale(d.series_coeff(n))
            term = term * x
            if term.is_zero():
                break
        diag = ExactMatrix.diagonal(
            d.s(t1 * (t2 + t3) if side == "id_coproduct" else (t1 + t2) * t3)
            for t1, t2, t3 in itertools.product(*(m.two_m for m in ctx.modules)))
        return diag * series

    @DOMAINS
    @pytest.mark.parametrize("spins", [(1, 1, 2), (2, 3, 1), (4, 4, 4)])
    def test_factor_power_split_matches_full_space_series(self, domain, spins):
        ctx = tensor_context(spins, domain)
        for side in ("id_coproduct", "coproduct_id"):
            assert coproduct_split_r(ctx, side) == self._split_r_full_space(ctx, side)

    def test_coproduct_splits(self):
        ctx = tensor_context((1, 1, 2), D)
        assert coproduct_split_r(ctx, "id_coproduct") == \
            r_matrix((1, 2), ctx) * r_matrix((1, 3), ctx)
        assert coproduct_split_r(ctx, "coproduct_id") == \
            r_matrix((2, 3), ctx) * r_matrix((1, 3), ctx)

    def test_invalid_legs(self):
        ctx = tensor_context((1, 1), D)
        with pytest.raises(ArityMismatchError):
            r_matrix((2, 1), ctx)
        with pytest.raises(ArityMismatchError):
            r_matrix((1, 3), ctx)


class TestRTilde:
    def test_trivial(self):
        ctx = tensor_context((0, 0), D)
        assert r_tilde((1, 2), ctx) == ctx.identity()

    def test_flip_conjugate_of_r(self):
        ctx = tensor_context((1, 1), D)
        p = permutation_operator((1, 2), ctx)
        assert r_tilde((1, 2), ctx) == p * r_matrix((1, 2), ctx) * p

    def test_two_constructions_agree_unequal_spins(self):
        # r_tilde raises InternalMismatchError if the flip-conjugation and
        # reordered-series constructions ever disagree.
        for spins in ((2, 1), (1, 2), (2, 2)):
            ctx = tensor_context(spins, D)
            assert r_tilde((1, 2), ctx) is not None

    def test_opposite_intertwining(self):
        ctx = tensor_context((2, 1), D)
        rt = r_tilde((1, 2), ctx)
        for g in ("E", "F", "K"):
            x = generator(D, g)
            assert represent(coproduct_op(x), ctx) * rt == \
                rt * represent(coproduct(x), ctx)


class TestMatrixInverse:
    def test_r_matrix_inverse_product(self):
        ctx = tensor_context((1, 1), D)
        rr = r_matrix((1, 2), ctx)
        inv = r_matrix_inverse((1, 2), ctx)
        assert (rr * inv).is_identity()
        assert (inv * rr).is_identity()

    @pytest.mark.parametrize("domain", [D, PointDomain(Fraction(5, 3))],
                             ids=["symbolic", "point"])
    @pytest.mark.parametrize("spins", [(1, 2), (2, 3), (4, 4), (6, 5)])
    def test_closed_form_inverses(self, spins, domain):
        ctx = tensor_context(spins, domain)
        rr, rr_inv = r_matrix((1, 2), ctx), r_matrix_inverse((1, 2), ctx)
        assert (rr * rr_inv).is_identity()
        assert (rr_inv * rr).is_identity()
        rt, rt_inv = r_tilde((1, 2), ctx), r_tilde_inverse((1, 2), ctx)
        assert (rt * rt_inv).is_identity()
        assert (rt_inv * rt).is_identity()


class TestPermutationAndEmbedding:
    def test_swap_trivial(self):
        ctx = tensor_context((0, 0), D)
        assert permutation_operator((1, 2), ctx) == ctx.identity()

    def test_swap_is_involution(self):
        ctx = tensor_context((1, 2, 1), D)
        p = permutation_operator((1, 3), ctx)
        assert p * p == ctx.identity()

    def test_swap_conjugates_tensor_factors(self):
        rng = random.Random(31)
        ctx = tensor_context((1, 1), D)
        p = permutation_operator((1, 2), ctx)
        for _ in range(5):
            x = random_element(D, 1, rng, max_power=1, max_k=1)
            y = random_element(D, 1, rng, max_power=1, max_k=1)
            lhs = p * represent(x.tensor(y), ctx) * p
            assert lhs == represent(y.tensor(x), ctx)

    def test_unequal_spins_rejected(self):
        ctx = tensor_context((1, 2), D)
        with pytest.raises(ArityMismatchError):
            permutation_operator((1, 2), ctx)

    def test_embedding_is_multiplicative(self):
        ctx = tensor_context((1, 2, 1), D)
        pair = tensor_context((1, 1), D)
        a = r_matrix((1, 2), pair)
        b = r_tilde((1, 2), pair)
        assert embed_two_leg(a * b, (1, 3), ctx) == \
            embed_two_leg(a, (1, 3), ctx) * embed_two_leg(b, (1, 3), ctx)
        assert embed_two_leg(pair.identity(), (1, 3), ctx) == ctx.identity()

    def test_embedding_matches_direct_r(self):
        ctx = tensor_context((1, 2, 1), D)
        pair = tensor_context((1, 1), D)
        assert r_matrix((1, 3), ctx) == embed_two_leg(r_matrix((1, 2), pair), (1, 3), ctx)


class TestIntermediateCasimirs:
    def test_trivial_legs_collapse_to_leg_one(self):
        for two_j in (1, 2):
            ctx = tensor_context((two_j, 0, 0), D)
            ic = intermediate_casimirs(ctx)
            c1 = ic["C1"]
            for name in ("C12", "C13", "C13_0", "C13_0_via_r12", "C13_1"):
                assert ic[name] == c1, name

    def test_two_routes_agree(self):
        ctx = tensor_context((1, 1, 1), D)
        ic = intermediate_casimirs(ctx)
        assert ic["C13_0"] == ic["C13_0_via_r12"]
        assert ic["C13_1"] == ic["C13_1_via_r23"]

    def test_conjugation_between_c13_variants(self):
        ctx = tensor_context((1, 1, 1), D)
        ic = intermediate_casimirs(ctx)
        conj = r_matrix((2, 3), ctx) * r_tilde((2, 3), ctx)
        conj_inv = r_tilde_inverse((2, 3), ctx) * r_matrix_inverse((2, 3), ctx)
        assert ic["C13_1"] == conj * ic["C13_0"] * conj_inv

    def test_four_leg_routes(self):
        ctx = tensor_context((1, 1, 1, 0), D)
        ic = intermediate_casimirs(ctx)
        assert ic["C13_0"] == ic["C13_0_via_r12"]
        assert ic["C24_1"] == ic["C24_1_via_r34"]

    def test_wrong_arity(self):
        with pytest.raises(ArityMismatchError):
            intermediate_casimirs(tensor_context((1, 1), D))


class TestC13SymbolicInRepresentation:
    def test_trivial_legs_collapse_to_casimir_on_leg_one(self):
        from qaw.algebra import c13_zero_symbolic
        for two_j in (1, 2, 3):
            ctx = tensor_context((two_j, 0, 0), D)
            collapsed = represent(c13_zero_symbolic(D), ctx)
            c1 = represent(extend_coproduct(casimir(D), (1,), 3), ctx)
            assert collapsed == c1

    def test_matches_conjugation_route(self):
        from qaw.algebra import c13_zero_symbolic
        ctx = tensor_context((1, 2, 1), D)
        ic = intermediate_casimirs(ctx)
        assert represent(c13_zero_symbolic(D), ctx) == ic["C13_0"]


class TestPointDomainRepresentations:
    def test_r_matrix_specializes(self):
        s0 = Fraction(3, 2)
        pt = PointDomain(s0)
        sym = r_matrix((1, 2), tensor_context((1, 2), D))
        num = r_matrix((1, 2), tensor_context((1, 2), pt))
        assert sym.dim == num.dim
        for rc, v in sym.items():
            assert v.evaluate(s0) == num.entry(rc[0], rc[1])
