"""Exact scalar arithmetic in the formal variable s, where q = s**2.

Every quantity downstream (PBW coefficients, weight-module matrix entries,
R-matrix series terms) lives in the field Q(s) of rational functions with
integer coefficients.  Working in s instead of q keeps all exponents
integral: half-integer weights contribute odd powers of s, and the diagonal
q**(2*m1*m2) factors never require symbolic square roots.

Two value types implement it:

  LaurentPoly -- sparse integer-coefficient Laurent polynomial in s
  CycloFrac   -- num / prod Phi_k(s)**e_k, a LaurentPoly over a product
                 of cyclotomic polynomials; reduced by trial division by
                 the Phi_k present, never a gcd

Both are immutable and hashable, and each has a unique reduced form, so
equality is a structural check.  CycloFrac prints as ``"(num)/(den)"`` with
numerator and denominator coprime and the denominator of minimal exponent 0
and leading coefficient 1.  Every denominator the workbench produces
(q-integers, q-factorials, q - q^-1, q + q^-1) is cyclotomic, so CycloFrac
is the exact scalar of the symbolic domain; any other denominator, an
integer > 1 included, raises NonCyclotomicError.

A :class:`ScalarDomain` selects what a computation runs over: the symbolic
field (CycloFrac values), exact rational evaluation at a fixed admissible
point s0 (Fractions), or the same point reduced modulo the prime
P = 2**61 - 1 (Residue values), the last two for randomized Schwartz-Zippel
style identity testing.  All algebra and representation code is written
against the domain interface, so an entire verification suite can run in
any of them.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from functools import lru_cache, wraps


class ForbiddenPointError(ValueError):
    """Raised for evaluation points where q = s**2 is degenerate (q**4 = 1)."""


class PoleError(ZeroDivisionError):
    """Raised when a denominator vanishes at the requested sample point."""


# ---------------------------------------------------------------------------
# sparse term maps
# ---------------------------------------------------------------------------

def add_into(acc: dict, items, coeff=None) -> bool:
    """Add coeff * v (v if coeff is None) for each (key, v) of items into the
    map acc and delete each key whose sum cancels; True if one was deleted.

    Every sparse map (Laurent terms, PBW terms, matrix entries) stays
    zero-free through this rule.  The product kernels LaurentPoly.__mul__ and
    ExactMatrix.__mul__ inline it: they are the measured hot loops of an
    exact run, where a call per term shows.
    """
    deleted = False
    for key, v in items:
        if coeff is not None:
            v = coeff * v
        old = acc.get(key)
        w = v if old is None else old + v
        if w:
            acc[key] = w
        elif old is not None:
            del acc[key]
            deleted = True
    return deleted


# ---------------------------------------------------------------------------
# LaurentPoly
# ---------------------------------------------------------------------------

# Bound once for the _raw constructors, which an exact run calls ~10^5 times.
_new, _set = object.__new__, object.__setattr__

class LaurentPoly:
    """Integer-coefficient Laurent polynomial in s, stored sparsely.

    The term map never stores zero coefficients, so structural equality of
    the maps is equality of polynomials.  Instances are immutable.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        object.__setattr__(self, "_terms", {e: c for e, c in (terms or {}).items() if c})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> LaurentPoly:
        # Adopt a term map that already holds no zero coefficients, uncopied.
        self = _new(cls)
        _set(self, "_terms", terms)
        _set(self, "_hash", None)
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
            t = self._terms
            # A constant equals its int (the zero polynomial equals 0), so it hashes as one.
            h = hash(t.get(0, 0)) if t.keys() <= {0} else hash(tuple(sorted(t.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        add_into(out, other._terms.items())
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
        if other.__class__ is not LaurentPoly:
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
        b_items = b.items()
        if len(b) == 1:
            # A monomial factor shifts and scales; no coefficient can vanish.
            (e2, c2), = b_items
            return LaurentPoly._raw({e + e2: c * c2 for e, c in a.items()})
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b_items:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._raw(out)

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


def _divide_dense(f: LaurentPoly, d: int, tail: tuple[tuple[int, int], ...],
                  lead: int = 1) -> LaurentPoly | None:
    """f / g for g = lead*s**d + sum(c*s**j for j, c in tail), 0 <= j < d, or
    None if g does not divide f: one synthetic-division pass over a dense
    copy of f (von zur Gathen-Gerhard, Modern Computer Algebra, 2.4)."""
    t = f._terms
    if not t:
        return f
    lo = min(t)
    n = max(t) - lo
    if n < d:
        return None
    a = [0] * (n + 1)
    for e, c in t.items():
        a[e - lo] = c
    out = {}
    for i in range(n, d - 1, -1):
        c = a[i]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    return None
            base = i - d
            out[base + lo] = c
            for j, cb in tail:
                a[base + j] -= c * cb
    if any(a[:d]):
        return None
    return LaurentPoly._raw(out)


def laurent_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient of Laurent polynomials (raises if not exact)."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    bv, d = b.min_exp(), b.max_exp() - b.min_exp()
    tail = tuple((e - bv, c) for e, c in b._terms.items() if e - bv < d)
    q = _divide_dense(a, d, tail, b.leading_coefficient())
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q.shifted(-bv)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and their exact divisibility test
# ---------------------------------------------------------------------------

class NonCyclotomicError(ArithmeticError):
    """Raised when an exact symbolic value would get a denominator that is not
    +-s**m times a product of cyclotomic polynomials."""


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
def _root_table(k: int) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, int], ...]]:
    """A prime p = 1 (mod k), the powers w**0 .. w**(k-1) of a primitive
    k-th root of unity w modulo p, and deg Phi_k with the (exponent,
    coefficient) pairs of the lower terms of Phi_k.

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
    phi = cyclotomic(k)
    d = phi.max_exp()
    return p, tuple(table), d, tuple((e, c) for e, c in phi._terms.items() if e < d)


def _divide_cyclotomic(f: LaurentPoly, k: int) -> LaurentPoly | None:
    """f / Phi_k if Phi_k divides f exactly, else None.

    A nonzero residue f(w) mod p proves that Phi_k does not divide f and
    costs one pass over the terms of f.  A zero residue is confirmed, or
    refuted by a nonzero remainder, by one synthetic division by the monic
    Phi_k.
    """
    p, table, d, tail = _root_table(k)
    if sum(c * table[e % k] for e, c in f._terms.items()) % p:
        return None
    return _divide_dense(f, d, tail)


@lru_cache(maxsize=None)
def _cyclotomic_product(exps: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """prod Phi_k**e over the (k, e) pairs of exps."""
    out = _P_ONE
    for k, e in exps:
        out = out * cyclotomic(k) ** e
    return out


@lru_cache(maxsize=None)
def _cyclotomic_factors(f: LaurentPoly) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Factor f = sign * s**shift * prod Phi_k**e by trial division.

    Returns (sign, shift, exps) with exps sorted by k; raises
    NonCyclotomicError if f has any other factor, an integer > 1 included.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    shift = f.min_exp()
    sign = 1 if f.leading_coefficient() > 0 else -1
    rest = LaurentPoly._raw({e - shift: v * sign for e, v in f._terms.items()})
    deg = rest.max_exp()
    t = rest._terms
    # Every Phi_k is monic with constant term +-1 and (anti)palindromic, so a
    # product of them is too; this rejects most other polynomials at once,
    # and every integer content > 1, which divides the constant term.
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
    return sign, shift, tuple(exps)


# ---------------------------------------------------------------------------
# CycloFrac: the exact scalar of the symbolic domain
# ---------------------------------------------------------------------------

class CycloFrac:
    """num / prod Phi_k(s)**e_k: a rational function with a cyclotomic
    denominator, the scalar that ``SYMBOLIC`` computes with.

    Every denominator the workbench meets (q-integers, q-factorials,
    q - q^-1, q + q^-1) is such a product, so products add exponents, sums
    take exponent maxima, and cancellation is trial division by the few
    Phi_k present -- never a polynomial gcd.  Values are kept reduced: no
    Phi_k with e_k > 0 divides num.  This form is unique, so equality and
    hashing are structural.  The text form is ``"(num)/(den)"`` with
    den = prod Phi_k**e_k expanded, which has minimal exponent 0 and leading
    coefficient 1.  Dividing by a value whose numerator has any other factor,
    an integer > 1 included, raises NonCyclotomicError.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        sign, shift, exps = _cyclotomic_factors(_as_poly(den))
        r = _reduced(num.shifted(-shift) * sign, dict(exps))
        object.__setattr__(self, "num", r.num)
        object.__setattr__(self, "den", r.den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloFrac is immutable")

    @classmethod
    def _raw(cls, num: LaurentPoly, den: tuple[tuple[int, int], ...] = ()) -> CycloFrac:
        # Bypass reduction for inputs already in reduced form.
        self = _new(cls)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_hash", None)
        return self

    # -- conversion and inspection

    def denominator(self) -> LaurentPoly:
        """prod Phi_k**e_k expanded: minimal exponent 0, leading coefficient 1."""
        return _cyclotomic_product(self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num._terms)

    def term_count(self) -> int:
        return self.num.term_count() + self.denominator().term_count()

    def evaluate(self, s0: Fraction) -> Fraction:
        d = self.denominator().evaluate(s0)
        if d == 0:
            raise PoleError(f"denominator vanishes at s = {s0}")
        return self.num.evaluate(s0) / d

    def text(self) -> str:
        """Canonical text ``"(num)/(den)"``."""
        return f"({self.num.text()})/({self.denominator().text()})"

    def __repr__(self) -> str:
        return f"CycloFrac({self.text()!r})"

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if other.__class__ is not CycloFrac and (other := _lift(other)) is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # A polynomial value equals its numerator (and an int), so it hashes as one.
            h = hash((self.num, self.den) if self.den else self.num)
            object.__setattr__(self, "_hash", h)
        return h

    def __neg__(self):
        return CycloFrac._raw(-self.num, self.den)

    def __add__(self, other):
        if other.__class__ is not CycloFrac and (other := _lift(other)) is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            if not self.den:
                return CycloFrac._raw(self.num + other.num)
            return _reduced(self.num + other.num, dict(self.den))
        da, db = dict(self.den), dict(other.den)
        common = {k: max(da.get(k, 0), db.get(k, 0)) for k in da.keys() | db.keys()}
        num = _cofactor(self.num, common, da) + _cofactor(other.num, common, db)
        return _reduced(num, common)

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
        if not a._terms or not b._terms:
            return _C_ZERO
        if not self.den and not other.den:
            return CycloFrac._raw(a * b)
        # Both operands are reduced and each Phi_k is irreducible, so a
        # factor can only cancel against the other operand's numerator.
        b, da = _cancel(b, self.den)
        a, db = _cancel(a, other.den)
        for k, e in db.items():
            da[k] = da.get(k, 0) + e
        return CycloFrac._raw(a * b, _exponent_tuple(da))

    __rmul__ = __mul__

    def inverse(self) -> CycloFrac:
        if not self.num:
            raise ZeroDivisionError("inverting the zero scalar")
        sign, shift, exps = _cyclotomic_factors(self.num)
        num = (_cyclotomic_product(self.den) * sign).shifted(-shift)
        return CycloFrac._raw(num, exps)

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
        return CycloFrac._raw(self.num ** n, tuple((k, e * n) for k, e in self.den))


def _lift(x) -> CycloFrac | None:
    """x as a CycloFrac if it is one, an int or a LaurentPoly; else None."""
    if isinstance(x, CycloFrac):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return CycloFrac._raw(_as_poly(x))
    return None


def _exponent_tuple(exps: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((k, e) for k, e in exps.items() if e))


def _cancel(f: LaurentPoly, den: tuple[tuple[int, int], ...]) -> tuple[LaurentPoly, dict[int, int]]:
    """Divide f by each Phi_k**e of den as far as it goes; return f and what is left of den."""
    left = dict(den)
    if len(f._terms) > 1:  # c*s^m has no cyclotomic factor
        for k, e in den:
            while e and (q := _divide_cyclotomic(f, k)) is not None:
                f, e = q, e - 1
            left[k] = e
    return f, left


def _cofactor(num: LaurentPoly, common: dict[int, int], own: dict[int, int]) -> LaurentPoly:
    """num brought from its own denominator to the common one."""
    missing = _exponent_tuple({k: e - own.get(k, 0) for k, e in common.items()})
    return num * _cyclotomic_product(missing) if missing else num


def _reduced(num: LaurentPoly, exps: dict[int, int]) -> CycloFrac:
    """num / prod Phi_k**e in reduced form; exps maps k to e >= 0."""
    if not num:
        return _C_ZERO
    num, left = _cancel(num, _exponent_tuple(exps))
    return CycloFrac._raw(num, _exponent_tuple(left))


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
def r_series_coefficient(n: int) -> CycloFrac:
    """Coefficient a_n = (q - q^-1)^n q^(n(n-1)/2) / [n]_q! of the R-matrix series."""
    if n < 0:
        raise ValueError("series coefficient of a negative index")
    qdiff = LaurentPoly({2: 1, -2: -1})
    num = (qdiff ** n).shifted(n * (n - 1))
    return CycloFrac(num, q_factorial(n))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def check_admissible_point(s0: Fraction) -> Fraction:
    """Validate a sample point: s0 not in {0, 1, -1} and s0**4 != 1."""
    s0 = Fraction(s0)
    if s0 == 0 or s0 ** 4 == 1:
        raise ForbiddenPointError(f"s = {s0} makes q = s**2 degenerate")
    return s0


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

    ``SYMBOLIC`` produces exact CycloFrac values; ``PointDomain(s0)``
    produces plain Fractions obtained by substituting s = s0;
    ``ResidueDomain(s0)`` produces those Fractions reduced mod 2**61 - 1.
    Values from any domain support +, -, *, /, ==, and are falsy exactly
    when zero, which is all the algebra and matrix layers rely on.  A domain
    also owns the data derived over it, memoised by :func:`domain_memo`:
    ``SYMBOLIC`` keeps it for the process, and eval mode clears a point
    domain's memo when its point is done.
    """

    mode: str

    def __init__(self):
        self._memo: dict = {}

    def clear_memo(self):
        """Drop the memoised tables now.

        They point back to the domain, so after its last use they would
        otherwise wait for the cyclic garbage collector.
        """
        self._memo.clear()

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
        return self.from_ratio(a.num, a.denominator())

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


# ---------------------------------------------------------------------------
# residues modulo the Mersenne prime 2**61 - 1
# ---------------------------------------------------------------------------

RESIDUE_PRIME = (1 << 61) - 1


class Residue:
    """An element of Z/P, P = RESIDUE_PRIME: the scalar of a ResidueDomain.

    Division by a residue that is 0 mod P raises PoleError: the denominator
    of the rational value it stands for vanishes mod P, so the point has no
    residue image and is computed over Q instead.
    """

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v  # 0 <= v < P

    def __add__(self, other):
        if other.__class__ is not Residue and (other := _as_residue(other)) is None:
            return NotImplemented
        v = self.v + other.v
        return Residue(v - RESIDUE_PRIME if v >= RESIDUE_PRIME else v)

    __radd__ = __add__

    def __neg__(self):
        return Residue(RESIDUE_PRIME - self.v if self.v else 0)

    def __sub__(self, other):
        if other.__class__ is not Residue and (other := _as_residue(other)) is None:
            return NotImplemented
        v = self.v - other.v
        return Residue(v + RESIDUE_PRIME if v < 0 else v)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not Residue and (other := _as_residue(other)) is None:
            return NotImplemented
        return Residue(self.v * other.v % RESIDUE_PRIME)

    __rmul__ = __mul__

    def inverse(self) -> Residue:
        if not self.v:
            raise PoleError("division by a residue that is 0 mod 2^61-1")
        return Residue(pow(self.v, -1, RESIDUE_PRIME))

    def __truediv__(self, other):
        if other.__class__ is not Residue and (other := _as_residue(other)) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        base = self.inverse() if n < 0 else self
        return Residue(pow(base.v, abs(n), RESIDUE_PRIME))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Residue and (other := _as_residue(other)) is None:
            return NotImplemented
        return self.v == other.v

    def __hash__(self) -> int:
        # Only Residues hash alike when equal: a Residue also equals every int
        # congruent to it mod P, and no hash can match all of those.
        return hash(self.v)

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return f"{self.v} (mod 2^61-1)"


def _as_residue(x) -> Residue | None:
    return Residue(x % RESIDUE_PRIME) if isinstance(x, int) else None


class ResidueDomain(ScalarDomain):
    """Arithmetic in Z/P at an admissible point s0 = p/r, mapped to p * r^-1 mod P.

    Every value is the rational value at s0 reduced mod P, the reduction
    being a ring homomorphism on the rationals whose denominator P does not
    divide; a denominator that is 0 mod P raises PoleError.  A residue that
    is nonzero mod P proves the rational value nonzero; a zero residue can
    be a false zero, as for any sample point.
    """

    mode = "eval"

    def __init__(self, s0: Fraction):
        super().__init__()
        self.s0 = check_admissible_point(s0)
        p, r = self.s0.numerator % RESIDUE_PRIME, self.s0.denominator % RESIDUE_PRIME
        if not p or not r:
            raise PoleError(f"s = {self.s0} has no invertible image mod 2^61-1")
        self._s = p * pow(r, -1, RESIDUE_PRIME) % RESIDUE_PRIME

    def _value(self, p: LaurentPoly) -> int:
        s = self._s
        return sum(c * pow(s, e, RESIDUE_PRIME) for e, c in p._terms.items()) % RESIDUE_PRIME

    def s(self, k: int):
        return Residue(pow(self._s, k, RESIDUE_PRIME))

    def integer(self, c: int):
        return Residue(c % RESIDUE_PRIME)

    def from_laurent(self, p: LaurentPoly):
        return Residue(self._value(p))

    def from_ratio(self, num: LaurentPoly, den: LaurentPoly):
        return Residue(self._value(num)) / Residue(self._value(den))

    def describe(self) -> str:
        return f"s={self.s0}"

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidueDomain) and self.s0 == other.s0

    def __hash__(self) -> int:
        return hash((ResidueDomain, self.s0))

    def __repr__(self) -> str:
        return f"ResidueDomain({self.s0!r})"


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
