"""Symbolic U_q(sl2) tensor powers in the PBW basis.

Conventions
-----------
A PBW monomial is the ordered product F^f E^e K^k with f, e >= 0 and k an
arbitrary integer, where K = q^H.  Products are reduced to this normal form
with the defining relations

    K E = q E K,   K F = q^-1 F K,   E F = F E + (K^2 - K^-2)/(q - q^-1),

each rewrite strictly decreasing the number of (E, F) inversions, so the
reduction terminates and the normal form is unique.

A :class:`TensorElement` is a finite linear combination of n-fold tensor
monomials with coefficients in the scalar domain.  Multiplication is
componentwise per tensor leg (no cross-leg signs).  Elements are immutable;
all operations return new values.

Leg indices in the public API are 1-based, matching the usual subscript
notation C_12, C_13, R_23 for tensor-leg placement.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, NamedTuple

from .scalars import ScalarDomain, domain_memo


class ArityMismatchError(ValueError):
    """Raised when two tensor elements of different arity are combined."""


class InvalidPatternError(ValueError):
    """Raised for malformed leg patterns in coproduct embeddings."""


class UnsupportedElementError(ValueError):
    """Raised when a closed-form map is applied outside its domain."""


class PBWMonomial(NamedTuple):
    """Exponent triple (f, e, k) for the normal-form monomial F^f E^e K^k."""

    f: int
    e: int
    k: int

    def text(self) -> str:
        return f"({self.f},{self.e},{self.k})"


MONO_ONE = PBWMonomial(0, 0, 0)


class TensorElement:
    """Element of U_q(sl2)^(tensor arity) as a map from monomial tuples to scalars."""

    __slots__ = ("domain", "arity", "_terms")

    def __init__(self, domain: ScalarDomain, arity: int,
                 terms: dict[tuple[PBWMonomial, ...], object] | None = None):
        if arity < 1:
            raise ArityMismatchError("arity must be at least 1")
        t = {}
        if terms:
            for key, c in terms.items():
                if len(key) != arity:
                    raise ArityMismatchError(
                        f"key {key} has {len(key)} legs, expected {arity}")
                if c:
                    t[key] = c
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    # -- inspection

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, key: tuple[PBWMonomial, ...]):
        return self._terms.get(key, self.domain.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.arity == other.arity and self.domain == other.domain
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.arity,
                     tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))))

    # -- linear structure

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key)
            v = c if v is None else v + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return TensorElement(self.domain, self.arity, out)

    def __neg__(self):
        return TensorElement(self.domain, self.arity,
                             {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> TensorElement:
        if isinstance(c, int):
            c = self.domain.integer(c)
        if not c:
            return TensorElement(self.domain, self.arity)
        return TensorElement(self.domain, self.arity,
                             {k: v * c for k, v in self._terms.items()})

    # -- multiplicative structure

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return normal_order_mul(self, other)

    def tensor(self, other: TensorElement) -> TensorElement:
        """Outer tensor product: legs of ``other`` appended after ``self``."""
        if self.domain != other.domain:
            raise ArityMismatchError("tensor factors from different scalar domains")
        out: dict[tuple[PBWMonomial, ...], object] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                c = c1 * c2
                if c:
                    out[k1 + k2] = c
        return TensorElement(self.domain, self.arity + other.arity, out)

    # -- serialization

    def text(self) -> str:
        """Canonical text, one term per line: ``coeff :: (f,e,k)|(f,e,k)|...``.

        Terms are ordered lexicographically on the (f, e, k) triples taken
        left-to-right across the legs.
        """
        lines = []
        for key in sorted(self._terms):
            coeff = self._terms[key]
            ctext = coeff.text() if hasattr(coeff, "text") else str(coeff)
            lines.append(f"{ctext} :: " + "|".join(m.text() for m in key))
        return "\n".join(lines) if lines else "0"

    def __repr__(self) -> str:
        return f"<TensorElement arity={self.arity} terms={len(self._terms)}>"

    def _check_compatible(self, other: TensorElement):
        if self.arity != other.arity:
            raise ArityMismatchError(
                f"arity mismatch: {self.arity} vs {other.arity}")
        if self.domain != other.domain:
            raise ArityMismatchError("elements from different scalar domains")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_element(domain: ScalarDomain, arity: int = 1) -> TensorElement:
    return TensorElement(domain, arity)


def unit_element(domain: ScalarDomain, arity: int = 1) -> TensorElement:
    return TensorElement(domain, arity, {(MONO_ONE,) * arity: domain.one})


def pbw_element(domain: ScalarDomain, f: int, e: int, k: int,
                coeff=None) -> TensorElement:
    """Single arity-1 PBW term coeff * F^f E^e K^k."""
    if coeff is None:
        coeff = domain.one
    elif isinstance(coeff, int):
        coeff = domain.integer(coeff)
    return TensorElement(domain, 1, {(PBWMonomial(f, e, k),): coeff})


def generator(domain: ScalarDomain, name: str) -> TensorElement:
    """One of the algebra generators "E", "F", "K" or "Kinv"."""
    table = {"E": (0, 1, 0), "F": (1, 0, 0), "K": (0, 0, 1), "Kinv": (0, 0, -1)}
    if name not in table:
        raise UnsupportedElementError(f"unknown generator {name!r}")
    return pbw_element(domain, *table[name])


def random_element(domain: ScalarDomain, arity: int, rng: random.Random,
                   max_power: int = 2, max_k: int = 2,
                   n_terms: int = 3) -> TensorElement:
    """Random bounded-degree element, for property and morphism tests."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(PBWMonomial(rng.randint(0, max_power), rng.randint(0, max_power),
                                rng.randint(-max_k, max_k))
                    for _ in range(arity))
        terms[key] = domain.integer(rng.randint(-4, 4))
    return TensorElement(domain, arity, terms)


# ---------------------------------------------------------------------------
# the normal-ordering engine
# ---------------------------------------------------------------------------

@domain_memo
def _ef_terms(domain: ScalarDomain, e_pow: int, f_pow: int):
    """PBW form of E^e_pow F^f_pow, as a tuple of (monomial, coefficient).

    Recursion: E F^a = F^a E + [a]_q F^(a-1) (q^(1-a) K^2 - q^(a-1) K^-2)/(q - q^-1),
    obtained by summing the defining commutator over the a positions of E.
    """
    if e_pow == 0 or f_pow == 0:
        return ((PBWMonomial(f_pow, e_pow, 0), domain.one),)
    prev = _ef_terms(domain, e_pow - 1, f_pow)
    acc: dict[PBWMonomial, object] = {}
    # E^(e-1) * (F^a E): append E on the right of each normal-form term.
    for mono, c in prev:
        key = PBWMonomial(mono.f, mono.e + 1, mono.k)
        v = c * domain.q(mono.k)
        old = acc.get(key)
        v = v if old is None else old + v
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]
    # E^(e-1) * [a] F^(a-1) (q^(1-a) K^2 - q^(a-1) K^-2)/(q - q^-1).
    a = f_pow
    qdiff = domain.q(1) - domain.q(-1)
    plus = domain.q_int(a) * domain.q(1 - a) / qdiff
    minus = domain.q_int(a) * domain.q(a - 1) / qdiff
    lower = _ef_terms(domain, e_pow - 1, f_pow - 1)
    for mono, c in lower:
        for dk, w in ((2, plus), (-2, -minus)):
            key = PBWMonomial(mono.f, mono.e, mono.k + dk)
            v = c * w
            old = acc.get(key)
            v = v if old is None else old + v
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return tuple(sorted(acc.items(), key=lambda kv: kv[0]))


@domain_memo
def _mono_mul(domain: ScalarDomain, m1: PBWMonomial, m2: PBWMonomial):
    """Normal form of the product of two PBW monomials, as (monomial, coeff) pairs."""
    # Move K^k1 through F^f2 E^e2: picks up q^(k1*(e2 - f2)).
    scalar = domain.q(m1.k * (m2.e - m2.f))
    k_total = m1.k + m2.k
    out = []
    for mono, c in _ef_terms(domain, m1.e, m2.f):
        # F^f1 * (F^x E^y K^z) * E^e2 K^(k1+k2); K^z past E^e2 gives q^(z*e2).
        coeff = c * scalar * domain.q(mono.k * m2.e)
        if coeff:
            out.append((PBWMonomial(m1.f + mono.f, mono.e + m2.e, mono.k + k_total),
                        coeff))
    return tuple(out)


def normal_order_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Product in U_q(sl2)^(tensor n), reduced to PBW normal form in every leg."""
    x._check_compatible(y)
    domain = x.domain
    acc: dict[tuple[PBWMonomial, ...], object] = {}
    for k1, c1 in x._terms.items():
        for k2, c2 in y._terms.items():
            base = c1 * c2
            if not base:
                continue
            factors = [_mono_mul(domain, a, b) for a, b in zip(k1, k2)]
            for combo in itertools.product(*factors):
                coeff = base
                for _, w in combo:
                    coeff = coeff * w
                if not coeff:
                    continue
                key = tuple(m for m, _ in combo)
                old = acc.get(key)
                coeff = coeff if old is None else old + coeff
                if coeff:
                    acc[key] = coeff
                elif key in acc:
                    del acc[key]
    return TensorElement(domain, x.arity, acc)


def _power(x: TensorElement, n: int) -> TensorElement:
    result = unit_element(x.domain, x.arity)
    for _ in range(n):
        result = result * x
    return result


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def casimir(domain: ScalarDomain) -> TensorElement:
    """The Casimir element, already in PBW form:

    C = -(q - q^-1)^2/(q + q^-1) * F E  -  (q K^2 + q^-1 K^-2)/(q + q^-1).
    """
    qdiff = domain.q(1) - domain.q(-1)
    qsum = domain.q(1) + domain.q(-1)
    return TensorElement(domain, 1, {
        (PBWMonomial(1, 1, 0),): -(qdiff * qdiff) / qsum,
        (PBWMonomial(0, 0, 2),): -domain.q(1) / qsum,
        (PBWMonomial(0, 0, -2),): -domain.q(-1) / qsum,
    })


def commutator_F_En(domain: ScalarDomain, n: int) -> TensorElement:
    """Closed form of [F, E^n], written directly in PBW order.

    [F, E^n] = [n]_q/(q - q^-1) (q^(n-1) K^-2 - q^(1-n) K^2) E^(n-1); commuting
    the K powers through E^(n-1) by hand gives the stored coefficients.  This
    is built without the rewrite engine so it can serve as its oracle.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    qdiff = domain.q(1) - domain.q(-1)
    base = domain.q_int(n) / qdiff
    return TensorElement(domain, 1, {
        (PBWMonomial(0, n - 1, -2),): base * domain.q(-(n - 1)),
        (PBWMonomial(0, n - 1, 2),): -base * domain.q(n - 1),
    })


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

@domain_memo
def _coproduct_mono(domain: ScalarDomain, mono: PBWMonomial) -> TensorElement:
    cop_f = TensorElement(domain, 2, {
        (PBWMonomial(1, 0, 0), PBWMonomial(0, 0, -1)): domain.one,
        (PBWMonomial(0, 0, 1), PBWMonomial(1, 0, 0)): domain.one,
    })
    cop_e = TensorElement(domain, 2, {
        (PBWMonomial(0, 1, 0), PBWMonomial(0, 0, -1)): domain.one,
        (PBWMonomial(0, 0, 1), PBWMonomial(0, 1, 0)): domain.one,
    })
    cop_k = TensorElement(domain, 2, {
        (PBWMonomial(0, 0, mono.k), PBWMonomial(0, 0, mono.k)): domain.one,
    })
    return _power(cop_f, mono.f) * _power(cop_e, mono.e) * cop_k


def coproduct(x: TensorElement) -> TensorElement:
    """The comultiplication D(x), extended to PBW monomials as an algebra map:

    D(E) = E @ K^-1 + K @ E,  D(F) = F @ K^-1 + K @ F,  D(K) = K @ K.
    """
    if x.arity != 1:
        raise ArityMismatchError("coproduct takes a single-leg element")
    out = zero_element(x.domain, 2)
    for (mono,), c in x._terms.items():
        out = out + _coproduct_mono(x.domain, mono).scale(c)
    return out


def coproduct_op(x: TensorElement) -> TensorElement:
    """Opposite comultiplication: coproduct followed by swapping the two legs."""
    cop = coproduct(x)
    return TensorElement(x.domain, 2,
                         {(k[1], k[0]): c for k, c in cop._terms.items()})


def coproduct_on_leg(x: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg (1-based), producing arity + 1."""
    if not 1 <= leg <= x.arity:
        raise InvalidPatternError(f"leg {leg} out of range for arity {x.arity}")
    i = leg - 1
    out: dict[tuple[PBWMonomial, ...], object] = {}
    for key, c in x._terms.items():
        expanded = _coproduct_mono(x.domain, key[i])
        for pair, w in expanded._terms.items():
            coeff = c * w
            if not coeff:
                continue
            new_key = key[:i] + pair + key[i + 1:]
            old = out.get(new_key)
            coeff = coeff if old is None else old + coeff
            if coeff:
                out[new_key] = coeff
            elif new_key in out:
                del out[new_key]
    return TensorElement(x.domain, x.arity + 1, out)


def extend_coproduct(x: TensorElement, legs: Iterable[int], arity: int) -> TensorElement:
    """Distribute the iterated coproduct of x over the given 1-based legs.

    With legs (1, 2) of 3 this realizes D(x) @ 1; with (1, 3) the Sweedler
    placement x_(1) @ 1 @ x_(2); with (1, 2, 3) the total (D @ id)D(x); a
    single leg embeds x itself.
    """
    legs = tuple(legs)
    if x.arity != 1:
        raise ArityMismatchError("extend_coproduct takes a single-leg element")
    if (not legs or len(set(legs)) != len(legs)
            or any(not 1 <= g <= arity for g in legs)
            or list(legs) != sorted(legs)):
        raise InvalidPatternError(f"invalid leg pattern {legs} for arity {arity}")
    spread = x
    for _ in range(len(legs) - 1):
        spread = coproduct_on_leg(spread, 1)
    positions = {g - 1: i for i, g in enumerate(legs)}
    out = {}
    for key, c in spread._terms.items():
        new_key = tuple(key[positions[j]] if j in positions else MONO_ONE
                        for j in range(arity))
        out[new_key] = c
    return TensorElement(x.domain, arity, out)


# ---------------------------------------------------------------------------
# the q-commutator and the coaction closed forms
# ---------------------------------------------------------------------------

def q_commutator(x: TensorElement, y: TensorElement) -> TensorElement:
    """[x, y]_q = q x y - q^-1 y x.

    The normalization is fixed by calibration against the representation
    suite: exactly one of the two sign conventions satisfies the defining
    cubic relation of the Askey-Wilson algebra, and this is it (the test
    suite keeps the rejected alternative as a negative check).
    """
    x._check_compatible(y)
    d = x.domain
    return (x * y).scale(d.q(1)) - (y * x).scale(d.q(-1))


def tau_argument_elements(domain: ScalarDomain) -> dict[str, TensorElement]:
    """The four elements on which the left coaction has a closed form.

    Keys: "casimir" (C), "kinv_e" (q^-H E), "kinv_squared" (q^-2H),
    "f_kinv" (F q^-H).
    """
    kinv = pbw_element(domain, 0, 0, -1)
    e = generator(domain, "E")
    return {
        "casimir": casimir(domain),
        "kinv_e": kinv * e,
        "kinv_squared": pbw_element(domain, 0, 0, -2),
        "f_kinv": pbw_element(domain, 1, 0, -1),
    }


def _tau_image(domain: ScalarDomain, name: str) -> TensorElement:
    one = unit_element(domain)
    c = casimir(domain)
    kinv = pbw_element(domain, 0, 0, -1)
    k = pbw_element(domain, 0, 0, 1)
    e = generator(domain, "E")
    f = generator(domain, "F")
    kinv_e = kinv * e
    kinv_f = kinv * f
    kinv2 = pbw_element(domain, 0, 0, -2)
    k2 = pbw_element(domain, 0, 0, 2)
    f_kinv = pbw_element(domain, 1, 0, -1)
    f_k = pbw_element(domain, 1, 0, 1)
    qdiff_sq = (domain.q(1) - domain.q(-1)) ** 2
    if name == "casimir":
        return one.tensor(c)
    if name == "kinv_e":
        return kinv2.tensor(kinv_e)
    if name == "kinv_squared":
        return one.tensor(kinv2) - kinv_f.tensor(kinv_e).scale(qdiff_sq)
    if name == "f_kinv":
        mid = f_k.tensor(c + kinv2).scale(
            domain.q(-1) * (domain.q(1) + domain.q(-1)))
        return (k2.tensor(f_kinv) + mid
                - (f * f).tensor(kinv_e).scale(qdiff_sq))
    raise UnsupportedElementError(f"no closed form for {name!r}")


def tau_closed_form(x: TensorElement) -> TensorElement:
    """Closed form of the left coaction x -> Rtilde^-1 (1 @ x) Rtilde.

    Only the four elements of :func:`tau_argument_elements` are supported:

        tau(C)       = 1 @ C
        tau(q^-H E)  = q^-2H @ q^-H E
        tau(q^-2H)   = 1 @ q^-2H - (q - q^-1)^2 q^-H F @ q^-H E
        tau(F q^-H)  = q^2H @ F q^-H + q^-1 (q + q^-1) F q^H @ (C + q^-2H)
                       - (q - q^-1)^2 F^2 @ q^-H E

    with every occurrence of C expanded to PBW form.
    """
    if x.arity != 1:
        raise ArityMismatchError("tau acts on single-leg elements")
    for name, el in tau_argument_elements(x.domain).items():
        if el == x:
            return _tau_image(x.domain, name)
    raise UnsupportedElementError(
        "tau has a closed form only for C, q^-H E, q^-2H and F q^-H")


def c13_zero_symbolic(domain: ScalarDomain) -> TensorElement:
    """The centralizing element C13^(0) built from the coaction closed forms.

    C13^(0) = (q^2H + C) @ tau(q^-2H) + q^2H @ tau(C)
              - (q - q^-1)^2/(q + q^-1) (q^H E @ tau(F q^-H) + F q^H @ tau(q^-H E))

    where the first factor sits on leg 1 and each tau image spans legs 2-3.
    """
    c = casimir(domain)
    k2 = pbw_element(domain, 0, 0, 2)
    k_e = pbw_element(domain, 0, 0, 1) * generator(domain, "E")
    f_k = pbw_element(domain, 1, 0, 1)
    qdiff = domain.q(1) - domain.q(-1)
    alpha = qdiff * qdiff / (domain.q(1) + domain.q(-1))
    out = (k2 + c).tensor(_tau_image(domain, "kinv_squared"))
    out = out + k2.tensor(_tau_image(domain, "casimir"))
    cross = k_e.tensor(_tau_image(domain, "f_kinv")) \
        + f_k.tensor(_tau_image(domain, "kinv_e"))
    return out - cross.scale(alpha)
