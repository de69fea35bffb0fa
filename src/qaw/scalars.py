"""Exact scalar arithmetic in the formal variable s, where q = s**2.

Every quantity downstream (PBW coefficients, weight-module matrix entries,
R-matrix series terms) lives in the field Q(s) of rational functions with
integer coefficients.  Working in s instead of q keeps all exponents
integral: half-integer weights contribute odd powers of s, and the diagonal
q**(2*m1*m2) factors never require symbolic square roots.

Three value types implement it:

  LaurentPoly -- sparse integer-coefficient Laurent polynomial in s
  RatFunc     -- canonical quotient of two LaurentPoly values, for any
                 denominator; reduced by a polynomial gcd
  CycloFrac   -- num / (c * prod Phi_k(s)**e_k), a LaurentPoly over a
                 positive integer times cyclotomic polynomials; reduced by
                 trial division by the Phi_k present, never a gcd

All are immutable and hashable, and each has a unique reduced form, so
equality is a structural check.  CycloFrac prints as the canonical RatFunc
(numerator and denominator coprime, denominator with minimal exponent 0 and
positive leading coefficient).  Every denominator the workbench produces
(q-integers, q-factorials, q - q^-1, q + q^-1) is cyclotomic, so CycloFrac
is the exact scalar of the symbolic domain; RatFunc stays the general-field
reference.

A :class:`ScalarDomain` selects between the symbolic field (CycloFrac
values) and exact rational evaluation at a fixed admissible point s0 (used
for randomized Schwartz-Zippel style identity testing).  All algebra and
representation code is written against the domain interface, so an entire
verification suite can run either symbolically or over plain Fractions.
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction
from functools import lru_cache, wraps


class ForbiddenPointError(ValueError):
    """Raised for evaluation points where q = s**2 is degenerate (q**4 = 1)."""


class PoleError(ZeroDivisionError):
    """Raised when a denominator vanishes at the requested sample point."""


# ---------------------------------------------------------------------------
# dense helpers for the ordinary-polynomial layer (used by gcd / divexact)
# ---------------------------------------------------------------------------

def _dense_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _dense_content(coeffs: list[int]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _dense_primitive(coeffs: list[int]) -> list[int]:
    ct = _dense_content(coeffs)
    if ct > 1:
        return [c // ct for c in coeffs]
    return coeffs[:]


def _dense_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), over Z[x]."""
    r = _dense_trim(a[:])
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lead = r[-1]
        off = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, cb in enumerate(b):
            r[off + i] -= lead * cb
        _dense_trim(r)
    return r


def _dense_gcd(a: list[int], b: list[int]) -> list[int]:
    """Full gcd over Z[x] (content included), positive leading coefficient."""
    a = _dense_trim(a[:])
    b = _dense_trim(b[:])
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return []
        return a if a[-1] > 0 else [-c for c in a]
    ct = math.gcd(_dense_content(a), _dense_content(b))
    a = _dense_primitive(a)
    b = _dense_primitive(b)
    while b:
        r = _dense_prem(a, b)
        a, b = b, _dense_primitive(_dense_trim(r))
    if a[-1] < 0:
        a = [-c for c in a]
    return [ct * c for c in a]


def _dense_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a // b over Z[x]; raises if the division is not exact."""
    a = _dense_trim(a[:])
    b = _dense_trim(b[:])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(a) - len(b) + 1)
    db = len(b) - 1
    lb = b[-1]
    rest = [(j, cb) for j, cb in enumerate(b[:-1]) if cb]
    for i in reversed(range(len(out))):
        c = a[db + i]
        if c:
            if lb == 1:
                q = c
            else:
                q, rem = divmod(c, lb)
                if rem:
                    raise ArithmeticError("inexact polynomial division")
            out[i] = q
            for j, cb in rest:
                a[i + j] -= q * cb
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return out


# ---------------------------------------------------------------------------
# LaurentPoly
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Integer-coefficient Laurent polynomial in s, stored sparsely.

    The term map never stores zero coefficients, so structural equality of
    the maps is equality of polynomials.  Instances are immutable.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        t: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        object.__setattr__(self, "_terms", t)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> LaurentPoly:
        # Adopt a term map that already holds no zero coefficients, uncopied.
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- constructors

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _P_ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _P_ONE

    @classmethod
    def constant(cls, c: int) -> LaurentPoly:
        return cls({0: c})

    @classmethod
    def s_power(cls, k: int) -> LaurentPoly:
        return cls({k: 1})

    @classmethod
    def q_power(cls, k: int) -> LaurentPoly:
        """q**k as a polynomial in s, i.e. s**(2k)."""
        return cls({2 * k: 1})

    # -- inspection

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            return 0
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            return 0
        return max(self._terms)

    def leading_coefficient(self) -> int:
        if not self._terms:
            return 0
        return self._terms[self.max_exp()]

    def content(self) -> int:
        return _dense_content(list(self._terms.values()))

    def term_count(self) -> int:
        return len(self._terms)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _P_ZERO
            return LaurentPoly._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return _P_ZERO
        if len(b) == 1:
            # A monomial factor shifts and scales; no coefficient can vanish.
            (e2, c2), = b.items()
            return LaurentPoly._raw({e + e2: c * c2 for e, c in a.items()})
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._terms) == 1:
                (e, c), = self._terms.items()
                if c in (1, -1):
                    return LaurentPoly({e * n: 1 if c == 1 else (-1) ** (n & 1)})
            raise ValueError("negative power of a non-unit Laurent polynomial")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by s**k."""
        if k == 0 or not self._terms:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self._terms.items()})

    def evaluate(self, s0: Fraction) -> Fraction:
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * s0 ** e
        return total

    # -- serialization

    def text(self) -> str:
        """Canonical text, ascending exponents: ``"3*s^-2 + 1*s^4"``."""
        if not self._terms:
            return "0"
        return " + ".join(f"{self._terms[e]}*s^{e}" for e in sorted(self._terms))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


_P_ZERO = LaurentPoly()
_P_ONE = LaurentPoly({0: 1})


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a Laurent polynomial")


def laurent_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient of Laurent polynomials (raises if not exact)."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return _P_ZERO
    av, bv = a.min_exp(), b.min_exp()
    ad = [0] * (a.max_exp() - av + 1)
    for e, c in a._terms.items():
        ad[e - av] = c
    bd = [0] * (b.max_exp() - bv + 1)
    for e, c in b._terms.items():
        bd[e - bv] = c
    qd = _dense_divexact(ad, bd)
    shift = av - bv
    return LaurentPoly({i + shift: c for i, c in enumerate(qd) if c})


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd up to units s**k, normalized to minimal exponent 0 and positive lead."""
    if a.is_zero() and b.is_zero():
        return _P_ZERO
    if a.is_zero():
        return b.shifted(-b.min_exp()) if b.leading_coefficient() > 0 else (-b).shifted(-b.min_exp())
    if b.is_zero():
        return a.shifted(-a.min_exp()) if a.leading_coefficient() > 0 else (-a).shifted(-a.min_exp())
    av = a.min_exp()
    ad = [0] * (a.max_exp() - av + 1)
    for e, c in a._terms.items():
        ad[e - av] = c
    bv = b.min_exp()
    bd = [0] * (b.max_exp() - bv + 1)
    for e, c in b._terms.items():
        bd[e - bv] = c
    g = _dense_gcd(ad, bd)
    return LaurentPoly({i: c for i, c in enumerate(g) if c})


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

class RatFunc:
    """Canonical fraction of two Laurent polynomials, for any denominator.

    Canonical form: numerator and denominator share no nonconstant factor
    and no integer content, the denominator has minimal exponent 0 (powers
    of s are shifted into the numerator) and positive leading coefficient.
    Equality is therefore structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _canonical_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> RatFunc:
        # Bypass canonicalization for inputs already in canonical form.
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    # -- inspection

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def term_count(self) -> int:
        return self.num.term_count() + self.den.term_count()

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == _P_ONE and other.den == _P_ONE:
            return RatFunc._raw(self.num + other.num, _P_ONE)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == _P_ONE and other.den == _P_ONE:
            return RatFunc._raw(self.num * other.num, _P_ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RatFunc:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return RatFunc(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = RatFunc._raw(_P_ONE, _P_ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, s0: Fraction) -> Fraction:
        d = self.den.evaluate(s0)
        if d == 0:
            raise PoleError(f"denominator vanishes at s = {s0}")
        return self.num.evaluate(s0) / d

    # -- serialization

    def text(self) -> str:
        """Canonical text ``"(num)/(den)"``."""
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.text()!r})"


def _canonical_pair(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero():
        return _P_ZERO, _P_ONE
    shift = den.min_exp()
    if shift:
        den = den.shifted(-shift)
        num = num.shifted(-shift)
    if den == _P_ONE:
        return num, den
    if den.term_count() == 1:
        # Denominator is an integer constant: content and sign only.
        d = den._terms[0]
        g = math.gcd(num.content(), d)
        if g > 1:
            num = LaurentPoly({e: c // g for e, c in num._terms.items()})
            d //= g
        if d < 0:
            num, d = -num, -d
        return num, LaurentPoly.constant(d)
    g = laurent_gcd(num, den)
    if g != _P_ONE:
        num = laurent_divexact(num, g)
        den = laurent_divexact(den, g)
    ct = math.gcd(num.content(), den.content())
    if ct > 1:
        num = LaurentPoly({e: c // ct for e, c in num._terms.items()})
        den = LaurentPoly({e: c // ct for e, c in den._terms.items()})
    if den.leading_coefficient() < 0:
        num, den = -num, -den
    return num, den


# ---------------------------------------------------------------------------
# cyclotomic polynomials and their exact divisibility test
# ---------------------------------------------------------------------------

class NonCyclotomicError(ArithmeticError):
    """Raised when an exact symbolic value would get a denominator that is not
    +-s**m times an integer times a product of cyclotomic polynomials."""


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    for r in _prime_factors(n):
        n -= n // r
    return n


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> LaurentPoly:
    """The k-th cyclotomic polynomial Phi_k(s): monic, irreducible, Phi_k(0) = +-1."""
    if k < 1:
        raise ValueError("cyclotomic polynomials are indexed from 1")
    p = LaurentPoly({k: 1, 0: -1})  # s^k - 1 is the product of Phi_d over d | k
    for d in range(1, k):
        if k % d == 0:
            p = laurent_divexact(p, cyclotomic(d))
    return p


@lru_cache(maxsize=None)
def _root_table(k: int) -> tuple[int, tuple[int, ...]]:
    """A prime p = 1 (mod k) and the powers w**0 .. w**(k-1) of a primitive
    k-th root of unity w modulo p.

    The primitive k-th roots of unity mod p are exactly the roots of Phi_k
    mod p, so Phi_k | f over Z implies f(w) = 0 (mod p).
    """
    m = (1 << 31) // k + 1
    while not _is_prime(m * k + 1):
        m += 1
    p = m * k + 1
    primes = _prime_factors(k)
    g = 2
    while True:
        w = pow(g, (p - 1) // k, p)
        if all(pow(w, k // r, p) != 1 for r in primes):
            break
        g += 1
    table = [1] * k
    for i in range(1, k):
        table[i] = table[i - 1] * w % p
    return p, tuple(table)


def _divide_cyclotomic(f: LaurentPoly, k: int) -> LaurentPoly | None:
    """f / Phi_k if Phi_k divides f exactly, else None.

    A nonzero residue f(w) mod p proves that Phi_k does not divide f; a zero
    residue is confirmed (or refuted) by exact division.
    """
    p, table = _root_table(k)
    if sum(c * table[e % k] for e, c in f._terms.items()) % p:
        return None
    try:
        return laurent_divexact(f, cyclotomic(k))
    except ArithmeticError:
        return None


@lru_cache(maxsize=None)
def _cyclotomic_product(exps: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """prod Phi_k**e over the (k, e) pairs of exps."""
    out = _P_ONE
    for k, e in exps:
        out = out * cyclotomic(k) ** e
    return out


@lru_cache(maxsize=None)
def _cyclotomic_factors(f: LaurentPoly) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """Factor f = sign * s**shift * c * prod Phi_k**e by trial division.

    Returns (sign, shift, c, exps) with c > 0 and exps sorted by k; raises
    NonCyclotomicError if f has any other irreducible factor.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    shift = f.min_exp()
    sign = 1 if f.leading_coefficient() > 0 else -1
    c = f.content()
    rest = LaurentPoly._raw({e - shift: v // (sign * c) for e, v in f._terms.items()})
    deg = rest.max_exp()
    t = rest._terms
    # Every Phi_k is monic with constant term +-1 and (anti)palindromic, so a
    # product of them is too; this rejects most other polynomials at once.
    if abs(t[0]) != 1 or any(t.get(deg - e) not in (v, -v) for e, v in t.items()):
        raise NonCyclotomicError(f"{f.text()} has a non-cyclotomic factor")
    exps = []
    k = 0
    while deg > 0:
        k += 1
        if k > max(6, deg * deg):  # phi(k) >= sqrt(k) for k > 6
            raise NonCyclotomicError(f"{f.text()} has a non-cyclotomic factor")
        if _totient(k) > deg:
            continue
        e = 0
        while (q := _divide_cyclotomic(rest, k)) is not None:
            rest, e = q, e + 1
        if e:
            exps.append((k, e))
            deg = rest.max_exp()
    return sign, shift, c, tuple(exps)


# ---------------------------------------------------------------------------
# CycloFrac: the exact scalar of the symbolic domain
# ---------------------------------------------------------------------------

class CycloFrac:
    """num / (c * prod Phi_k(s)**e_k): a rational function with a cyclotomic
    denominator, the scalar that ``SYMBOLIC`` computes with.

    Every denominator the workbench meets (q-integers, q-factorials,
    q - q^-1, q + q^-1) is such a product, so products add exponents, sums
    take exponent maxima, and cancellation is trial division by the few
    Phi_k present -- never a polynomial gcd.  Values are kept reduced: no
    Phi_k with e_k > 0 divides num, and gcd(content(num), c) = 1.  This form
    is unique, so equality and hashing are structural, and it expands to the
    canonical RatFunc form term for term.  Dividing by a value whose
    numerator has a non-cyclotomic factor raises NonCyclotomicError.
    """

    __slots__ = ("num", "c", "den", "_hash")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        sign, shift, c, exps = _cyclotomic_factors(_as_poly(den))
        r = _reduced(num.shifted(-shift) * sign, c, dict(exps))
        object.__setattr__(self, "num", r.num)
        object.__setattr__(self, "c", r.c)
        object.__setattr__(self, "den", r.den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloFrac is immutable")

    @classmethod
    def _raw(cls, num: LaurentPoly, c: int = 1,
             den: tuple[tuple[int, int], ...] = ()) -> CycloFrac:
        # Bypass reduction for inputs already in reduced form.
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    # -- conversion and inspection

    def to_ratfunc(self) -> RatFunc:
        """The same value in canonical RatFunc form (no gcd needed)."""
        return RatFunc._raw(self.num, _cyclotomic_product(self.den) * self.c)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def term_count(self) -> int:
        return self.to_ratfunc().term_count()

    def evaluate(self, s0: Fraction) -> Fraction:
        return self.to_ratfunc().evaluate(s0)

    def text(self) -> str:
        return self.to_ratfunc().text()

    def __repr__(self) -> str:
        return f"CycloFrac({self.text()!r})"

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloFrac):
            return self.num == other.num and self.c == other.c and self.den == other.den
        if isinstance(other, (int, LaurentPoly, RatFunc)):
            return self.to_ratfunc() == other
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.c, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __neg__(self):
        return CycloFrac._raw(-self.num, self.c, self.den)

    def __add__(self, other):
        if other.__class__ is not CycloFrac and (other := _lift(other)) is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den and self.c == other.c:
            if not self.den and self.c == 1:
                return CycloFrac._raw(self.num + other.num)
            return _reduced(self.num + other.num, self.c, dict(self.den))
        da, db = dict(self.den), dict(other.den)
        common = {k: max(da.get(k, 0), db.get(k, 0)) for k in da.keys() | db.keys()}
        c = self.c * other.c // math.gcd(self.c, other.c)
        num = (_cofactor(self.num, common, da, c // self.c)
               + _cofactor(other.num, common, db, c // other.c))
        return _reduced(num, c, common)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := _lift(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not CycloFrac and (other := _lift(other)) is None:
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _C_ZERO
        if not self.den and not other.den and self.c == 1 and other.c == 1:
            return CycloFrac._raw(a * b)
        # Both operands are reduced and each Phi_k is irreducible, so a
        # factor can only cancel against the other operand's numerator.
        b, da = _cancel(b, self.den)
        a, db = _cancel(a, other.den)
        ca, cb = self.c, other.c
        if ca > 1:
            g = math.gcd(ca, b.content())
            if g > 1:
                b, ca = _divide_content(b, g), ca // g
        if cb > 1:
            g = math.gcd(cb, a.content())
            if g > 1:
                a, cb = _divide_content(a, g), cb // g
        for k, e in db.items():
            da[k] = da.get(k, 0) + e
        return CycloFrac._raw(a * b, ca * cb, _exponent_tuple(da))

    __rmul__ = __mul__

    def inverse(self) -> CycloFrac:
        if not self.num:
            raise ZeroDivisionError("inverting the zero scalar")
        sign, shift, c, exps = _cyclotomic_factors(self.num)
        num = (_cyclotomic_product(self.den) * (sign * self.c)).shifted(-shift)
        return CycloFrac._raw(num, c, exps)

    def __truediv__(self, other):
        if (other := _lift(other)) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if (other := _lift(other)) is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _C_ONE
        # A power of a reduced value is reduced (Gauss's lemma, Phi_k irreducible).
        return CycloFrac._raw(self.num ** n, self.c ** n,
                              tuple((k, e * n) for k, e in self.den))


def _lift(x) -> CycloFrac | None:
    """x as a CycloFrac if it is one, an int or a LaurentPoly; else None."""
    if isinstance(x, CycloFrac):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return CycloFrac._raw(_as_poly(x))
    return None


def _exponent_tuple(exps: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((k, e) for k, e in exps.items() if e))


def _divide_content(f: LaurentPoly, g: int) -> LaurentPoly:
    return LaurentPoly._raw({e: v // g for e, v in f._terms.items()})


def _cancel(f: LaurentPoly, den: tuple[tuple[int, int], ...]) -> tuple[LaurentPoly, dict[int, int]]:
    """Divide f by each Phi_k**e of den as far as it goes; return f and what is left of den."""
    left = dict(den)
    if len(f._terms) > 1:  # c*s^m has no cyclotomic factor
        for k, e in den:
            while e and (q := _divide_cyclotomic(f, k)) is not None:
                f, e = q, e - 1
            left[k] = e
    return f, left


def _cofactor(num: LaurentPoly, common: dict[int, int], own: dict[int, int],
              scale: int) -> LaurentPoly:
    """num brought from its own denominator to the common one."""
    missing = _exponent_tuple({k: e - own.get(k, 0) for k, e in common.items()})
    if missing:
        num = num * _cyclotomic_product(missing)
    return num * scale if scale != 1 else num


def _reduced(num: LaurentPoly, c: int, exps: dict[int, int]) -> CycloFrac:
    """num / (c * prod Phi_k**e) in reduced form; c > 0 and exps maps k to e >= 0."""
    if not num:
        return _C_ZERO
    num, left = _cancel(num, _exponent_tuple(exps))
    if c > 1:
        g = math.gcd(c, num.content())
        if g > 1:
            num, c = _divide_content(num, g), c // g
    return CycloFrac._raw(num, c, _exponent_tuple(left))


_C_ZERO = CycloFrac._raw(_P_ZERO)
_C_ONE = CycloFrac._raw(_P_ONE)


# ---------------------------------------------------------------------------
# q-integers, q-factorials and the R-matrix series coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_integer(n: int) -> LaurentPoly:
    """The q-number [n]_q = (q^n - q^-n)/(q - q^-1) as a polynomial in s.

    Expands to q^(n-1) + q^(n-3) + ... + q^(1-n); negative n gives -[-n]_q.
    """
    if n < 0:
        return -q_integer(-n)
    return LaurentPoly({2 * (n - 1 - 2 * i): 1 for i in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q-factorial of a negative integer")
    if n == 0:
        return _P_ONE
    return q_factorial(n - 1) * q_integer(n)


@lru_cache(maxsize=None)
def r_series_coefficient(n: int) -> RatFunc:
    """Coefficient a_n = (q - q^-1)^n q^(n(n-1)/2) / [n]_q! of the R-matrix series."""
    if n < 0:
        raise ValueError("series coefficient of a negative index")
    qdiff = LaurentPoly({2: 1, -2: -1})
    num = (qdiff ** n).shifted(n * (n - 1))
    return RatFunc(num, q_factorial(n))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def check_admissible_point(s0: Fraction) -> Fraction:
    """Validate a sample point: s0 not in {0, 1, -1} and s0**4 != 1."""
    s0 = Fraction(s0)
    if s0 == 0 or s0 ** 4 == 1:
        raise ForbiddenPointError(f"s = {s0} makes q = s**2 degenerate")
    return s0


def evaluate_scalar(x, s0: Fraction) -> Fraction:
    """Exact value of a LaurentPoly, RatFunc or CycloFrac at an admissible rational point."""
    s0 = check_admissible_point(s0)
    if isinstance(x, (LaurentPoly, RatFunc, CycloFrac)):
        return x.evaluate(s0)
    raise TypeError(f"cannot evaluate {x!r}")


def random_admissible_point(rng: random.Random) -> Fraction:
    """Sample s0 = p/r with 2 <= p, r <= 97 and p != r (so s0 is admissible)."""
    while True:
        p = rng.randint(2, 97)
        r = rng.randint(2, 97)
        if p != r:
            return Fraction(p, r)


# ---------------------------------------------------------------------------
# scalar domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Factory interface for the scalars a computation runs over.

    ``SYMBOLIC`` produces exact CycloFrac values; ``PointDomain(s0)`` produces
    plain Fractions obtained by substituting s = s0.  Values from either
    domain support +, -, *, /, ==, and are falsy exactly when zero, which is
    all the algebra and matrix layers rely on.  A domain also owns the data
    derived over it, memoised by :func:`domain_memo`: ``SYMBOLIC`` keeps it
    for the process, a ``PointDomain`` frees it with itself.
    """

    mode: str

    def __init__(self):
        self._memo: dict = {}

    def s(self, k: int):
        raise NotImplementedError

    def q(self, k: int):
        return self.s(2 * k)

    def integer(self, c: int):
        raise NotImplementedError

    def from_laurent(self, p: LaurentPoly):
        raise NotImplementedError

    def from_ratio(self, num: LaurentPoly, den: LaurentPoly):
        raise NotImplementedError

    @property
    def zero(self):
        return self.integer(0)

    @property
    def one(self):
        return self.integer(1)

    def q_int(self, n: int):
        return self.from_laurent(q_integer(n))

    def series_coeff(self, n: int):
        a = r_series_coefficient(n)
        return self.from_ratio(a.num, a.den)

    def describe(self) -> str:
        raise NotImplementedError


class SymbolicDomain(ScalarDomain):
    """Exact computation over the field Q(s), in CycloFrac values."""

    mode = "exact"

    def s(self, k: int):
        return CycloFrac._raw(LaurentPoly.s_power(k))

    def integer(self, c: int):
        if c == 0:
            return _C_ZERO
        if c == 1:
            return _C_ONE
        return CycloFrac._raw(LaurentPoly.constant(c))

    def from_laurent(self, p: LaurentPoly):
        return CycloFrac._raw(p)

    def from_ratio(self, num: LaurentPoly, den: LaurentPoly):
        return CycloFrac(num, den)

    def describe(self) -> str:
        return "exact"

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolicDomain)

    def __hash__(self) -> int:
        return hash(SymbolicDomain)

    def __repr__(self) -> str:
        return "SymbolicDomain()"


class PointDomain(ScalarDomain):
    """Exact rational arithmetic at a fixed admissible point s = s0."""

    mode = "eval"

    def __init__(self, s0: Fraction):
        super().__init__()
        self.s0 = check_admissible_point(s0)

    def s(self, k: int):
        return self.s0 ** k

    def integer(self, c: int):
        return Fraction(c)

    def from_laurent(self, p: LaurentPoly):
        return p.evaluate(self.s0)

    def from_ratio(self, num: LaurentPoly, den: LaurentPoly):
        d = den.evaluate(self.s0)
        if d == 0:
            raise PoleError(f"denominator vanishes at s = {self.s0}")
        return num.evaluate(self.s0) / d

    def describe(self) -> str:
        return f"s={self.s0}"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointDomain) and self.s0 == other.s0

    def __hash__(self) -> int:
        return hash((PointDomain, self.s0))

    def __repr__(self) -> str:
        return f"PointDomain({self.s0!r})"


SYMBOLIC = SymbolicDomain()


def domain_memo(fn):
    """Memoise fn in the memo of the scalar domain found among its arguments.

    That is the parameter named ``domain`` (left out of the key) or else the
    ``.domain`` of the first argument, a SpinModule or TensorContext.  Where to
    look is fixed at decoration, so a hit costs one dict lookup.  Arguments
    must be positional and hashable.
    """
    names = list(inspect.signature(fn).parameters)
    i = names.index("domain") if "domain" in names else None

    @wraps(fn)
    def wrapper(*args):
        if i is None:
            memo, key = args[0].domain._memo, (fn, args)
        else:
            memo, key = args[i]._memo, (fn, args[:i] + args[i + 1:])
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(*args)
            return value
    return wrapper
