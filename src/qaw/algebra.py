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
monomials with coefficients in Q(s), CycloFrac values.  Multiplication is
componentwise per tensor leg (no cross-leg signs).  Elements are immutable;
all operations return new values.  Everything here is computed over Q(s)
only, and the normal-ordering tables are kept for the process; a scalar
domain maps the coefficients into its own scalars where an element meets a
matrix (``representations.represent``).

Leg indices in the public API are 1-based, matching the usual subscript
notation C_12, C_13, R_23 for tensor-leg placement.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache
from typing import Iterable, NamedTuple

from .scalars import SYMBOLIC, add_into


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

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: dict[tuple[PBWMonomial, ...], object] | None = None):
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
        return self._terms.get(key, SYMBOLIC.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.arity,
                     tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))))

    # -- linear structure

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        add_into(out, other._terms.items())
        return TensorElement(self.arity, out)

    def __neg__(self):
        return TensorElement(self.arity, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> TensorElement:
        if isinstance(c, int):
            c = SYMBOLIC.integer(c)
        if not c:
            return TensorElement(self.arity)
        return TensorElement(self.arity, {k: v * c for k, v in self._terms.items()})

    # -- multiplicative structure

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return normal_order_mul(self, other)

    def tensor(self, other: TensorElement) -> TensorElement:
        """Outer tensor product: legs of ``other`` appended after ``self``."""
        out: dict[tuple[PBWMonomial, ...], object] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                c = c1 * c2
                if c:
                    out[k1 + k2] = c
        return TensorElement(self.arity + other.arity, out)

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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def unit_element(arity: int = 1) -> TensorElement:
    return TensorElement(arity, {(MONO_ONE,) * arity: SYMBOLIC.one})


def pbw_element(f: int, e: int, k: int, coeff=None) -> TensorElement:
    """Single arity-1 PBW term coeff * F^f E^e K^k."""
    if coeff is None:
        coeff = SYMBOLIC.one
    elif isinstance(coeff, int):
        coeff = SYMBOLIC.integer(coeff)
    return TensorElement(1, {(PBWMonomial(f, e, k),): coeff})


def generator(name: str) -> TensorElement:
    """One of the algebra generators "E", "F", "K" or "Kinv"."""
    table = {"E": (0, 1, 0), "F": (1, 0, 0), "K": (0, 0, 1), "Kinv": (0, 0, -1)}
    if name not in table:
        raise UnsupportedElementError(f"unknown generator {name!r}")
    return pbw_element(*table[name])


def random_element(arity: int, rng: random.Random, max_power: int = 2, max_k: int = 2,
                   n_terms: int = 3) -> TensorElement:
    """Random bounded-degree element, for property and morphism tests."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(PBWMonomial(rng.randint(0, max_power), rng.randint(0, max_power),
                                rng.randint(-max_k, max_k))
                    for _ in range(arity))
        terms[key] = SYMBOLIC.integer(rng.randint(-4, 4))
    return TensorElement(arity, terms)


# ---------------------------------------------------------------------------
# the normal-ordering engine
# ---------------------------------------------------------------------------

@cache
def _ef_terms(e_pow: int, f_pow: int):
    """PBW form of E^e_pow F^f_pow, as a tuple of (monomial, coefficient).

    Recursion: E F^a = F^a E + [a]_q F^(a-1) (q^(1-a) K^2 - q^(a-1) K^-2)/(q - q^-1),
    obtained by summing the defining commutator over the a positions of E.
    """
    if e_pow == 0 or f_pow == 0:
        return ((PBWMonomial(f_pow, e_pow, 0), SYMBOLIC.one),)
    q = SYMBOLIC.q
    prev = _ef_terms(e_pow - 1, f_pow)
    # E^(e-1) * (F^a E): append E on the right of each normal-form term.
    acc = {PBWMonomial(mono.f, mono.e + 1, mono.k): c * q(mono.k) for mono, c in prev}
    # E^(e-1) * [a] F^(a-1) (q^(1-a) K^2 - q^(a-1) K^-2)/(q - q^-1).
    a = f_pow
    qdiff = q(1) - q(-1)
    plus = SYMBOLIC.q_int(a) * q(1 - a) / qdiff
    minus = SYMBOLIC.q_int(a) * q(a - 1) / qdiff
    lower = _ef_terms(e_pow - 1, f_pow - 1)
    add_into(acc, ((PBWMonomial(mono.f, mono.e, mono.k + dk), c * w)
                   for mono, c in lower for dk, w in ((2, plus), (-2, -minus))))
    return tuple(sorted(acc.items(), key=lambda kv: kv[0]))


@cache
def _mono_mul(m1: PBWMonomial, m2: PBWMonomial):
    """Normal form of the product of two PBW monomials, as (monomial, coeff) pairs."""
    # Move K^k1 through F^f2 E^e2: picks up q^(k1*(e2 - f2)).
    scalar = SYMBOLIC.q(m1.k * (m2.e - m2.f))
    k_total = m1.k + m2.k
    out = []
    for mono, c in _ef_terms(m1.e, m2.f):
        # F^f1 * (F^x E^y K^z) * E^e2 K^(k1+k2); K^z past E^e2 gives q^(z*e2).
        coeff = c * scalar * SYMBOLIC.q(mono.k * m2.e)
        if coeff:
            out.append((PBWMonomial(m1.f + mono.f, mono.e + m2.e, mono.k + k_total),
                        coeff))
    return tuple(out)


def normal_order_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Product in U_q(sl2)^(tensor n), reduced to PBW normal form in every leg."""
    x._check_compatible(y)
    acc: dict[tuple[PBWMonomial, ...], object] = {}
    for k1, c1 in x._terms.items():
        for k2, c2 in y._terms.items():
            base = c1 * c2
            if not base:
                continue
            terms = []
            for combo in itertools.product(*[_mono_mul(a, b) for a, b in zip(k1, k2)]):
                key, weights = zip(*combo)
                terms.append((key, math.prod(weights, start=base)))
            add_into(acc, terms)
    return TensorElement(x.arity, acc)


def _power(x: TensorElement, n: int) -> TensorElement:
    result = unit_element(x.arity)
    for _ in range(n):
        result = result * x
    return result


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

@cache
def casimir() -> TensorElement:
    """The Casimir element, already in PBW form:

    C = -(q - q^-1)^2/(q + q^-1) * F E  -  (q K^2 + q^-1 K^-2)/(q + q^-1).

    Built once and kept for the process, as the normal-ordering tables are.
    """
    q = SYMBOLIC.q
    qdiff, qsum = q(1) - q(-1), q(1) + q(-1)
    return TensorElement(1, {
        (PBWMonomial(1, 1, 0),): -(qdiff * qdiff) / qsum,
        (PBWMonomial(0, 0, 2),): -q(1) / qsum,
        (PBWMonomial(0, 0, -2),): -q(-1) / qsum,
    })


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

@cache
def _coproduct_mono(mono: PBWMonomial) -> TensorElement:
    one = SYMBOLIC.one
    cop_f = TensorElement(2, {
        (PBWMonomial(1, 0, 0), PBWMonomial(0, 0, -1)): one,
        (PBWMonomial(0, 0, 1), PBWMonomial(1, 0, 0)): one,
    })
    cop_e = TensorElement(2, {
        (PBWMonomial(0, 1, 0), PBWMonomial(0, 0, -1)): one,
        (PBWMonomial(0, 0, 1), PBWMonomial(0, 1, 0)): one,
    })
    cop_k = TensorElement(2, {(PBWMonomial(0, 0, mono.k), PBWMonomial(0, 0, mono.k)): one})
    return _power(cop_f, mono.f) * _power(cop_e, mono.e) * cop_k


def coproduct(x: TensorElement) -> TensorElement:
    """The comultiplication D(x), extended to PBW monomials as an algebra map:

    D(E) = E @ K^-1 + K @ E,  D(F) = F @ K^-1 + K @ F,  D(K) = K @ K.
    """
    if x.arity != 1:
        raise ArityMismatchError("coproduct takes a single-leg element")
    return coproduct_on_leg(x, 1)


def coproduct_op(x: TensorElement) -> TensorElement:
    """Opposite comultiplication: coproduct followed by swapping the two legs."""
    cop = coproduct(x)
    return TensorElement(2, {(k[1], k[0]): c for k, c in cop._terms.items()})


def coproduct_on_leg(x: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg (1-based), producing arity + 1."""
    if not 1 <= leg <= x.arity:
        raise InvalidPatternError(f"leg {leg} out of range for arity {x.arity}")
    i = leg - 1
    out: dict[tuple[PBWMonomial, ...], object] = {}
    for key, c in x._terms.items():
        head, tail = key[:i], key[i + 1:]
        add_into(out, ((head + pair + tail, w)
                       for pair, w in _coproduct_mono(key[i]).items()), c)
    return TensorElement(x.arity + 1, out)


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
    return TensorElement(arity, out)


@cache
def casimir_coproduct(n: int) -> TensorElement:
    """Delta^(n-1)(C), the Casimir spread over n legs; kept for the process."""
    return extend_coproduct(casimir(), tuple(range(1, n + 1)), n)


# ---------------------------------------------------------------------------
# the q-commutator and the coaction closed forms
# ---------------------------------------------------------------------------

def q_bracket(xy, yx, kx, ky):
    """kx xy - ky yx from the products xy and yx (tensor elements or
    matrices): the q-commutator [x, y]_q for (kx, ky) = (q, 1/q), the
    reversed convention for (1/q, q)."""
    return xy.scale(kx) - yx.scale(ky)


def tau_argument_elements() -> dict[str, TensorElement]:
    """The four elements on which the left coaction has a closed form.

    Keys: "casimir" (C), "kinv_e" (q^-H E), "kinv_squared" (q^-2H),
    "f_kinv" (F q^-H).
    """
    return {
        "casimir": casimir(),
        "kinv_e": pbw_element(0, 0, -1) * generator("E"),
        "kinv_squared": pbw_element(0, 0, -2),
        "f_kinv": pbw_element(1, 0, -1),
    }


def _tau_image(name: str) -> TensorElement:
    q = SYMBOLIC.q
    one = unit_element()
    c = casimir()
    kinv = pbw_element(0, 0, -1)
    e = generator("E")
    f = generator("F")
    kinv_e = kinv * e
    kinv_f = kinv * f
    kinv2 = pbw_element(0, 0, -2)
    k2 = pbw_element(0, 0, 2)
    f_kinv = pbw_element(1, 0, -1)
    f_k = pbw_element(1, 0, 1)
    qdiff_sq = (q(1) - q(-1)) ** 2
    if name == "casimir":
        return one.tensor(c)
    if name == "kinv_e":
        return kinv2.tensor(kinv_e)
    if name == "kinv_squared":
        return one.tensor(kinv2) - kinv_f.tensor(kinv_e).scale(qdiff_sq)
    if name == "f_kinv":
        mid = f_k.tensor(c + kinv2).scale(q(-1) * (q(1) + q(-1)))
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
    for name, el in tau_argument_elements().items():
        if el == x:
            return _tau_image(name)
    raise UnsupportedElementError(
        "tau has a closed form only for C, q^-H E, q^-2H and F q^-H")


def c13_zero_symbolic() -> TensorElement:
    """The centralizing element C13^(0) built from the coaction closed forms.

    C13^(0) = (q^2H + C) @ tau(q^-2H) + q^2H @ tau(C)
              - (q - q^-1)^2/(q + q^-1) (q^H E @ tau(F q^-H) + F q^H @ tau(q^-H E))

    where the first factor sits on leg 1 and each tau image spans legs 2-3.
    """
    q = SYMBOLIC.q
    c = casimir()
    k2 = pbw_element(0, 0, 2)
    k_e = pbw_element(0, 0, 1) * generator("E")
    f_k = pbw_element(1, 0, 1)
    qdiff = q(1) - q(-1)
    alpha = qdiff * qdiff / (q(1) + q(-1))
    out = (k2 + c).tensor(_tau_image("kinv_squared"))
    out = out + k2.tensor(_tau_image("casimir"))
    cross = k_e.tensor(_tau_image("f_kinv")) + f_k.tensor(_tau_image("kinv_e"))
    return out - cross.scale(alpha)
