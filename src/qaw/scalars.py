"""Exact scalar arithmetic in the formal variable s, where q = s**2.

Every quantity downstream (PBW coefficients, weight-module matrix entries,
R-matrix series terms) lives in the field Q(s) of rational functions with
integer coefficients.  Working in s instead of q keeps all exponents
integral: half-integer weights contribute odd powers of s, and the diagonal
q**(2*m1*m2) factors never require symbolic square roots.

Two value types implement it:

  LaurentPoly -- integer-coefficient Laurent polynomial in s, dense by stride
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

A :class:`ScalarDomain` selects what the matrix layer runs over: the
symbolic field (CycloFrac values), exact rational evaluation at a fixed
admissible point s0 (Fractions), or the same point reduced modulo the prime
P = 2**61 - 1 (plain ints in [0, P)), the last two for randomized
Schwartz-Zippel style identity testing.  A domain is one ring map from Q(s)
into its own scalars, ``ScalarDomain.image`` of a CycloFrac; every scalar the
matrix layer takes from it (s**k, integers, q-integers, series coefficients,
1/(q - q^-1)) is the image of the matching CycloFrac.  PBW elements are
computed over Q(s) only, and a domain maps each of their coefficients where
it meets a matrix, so the representation code, and with it an entire
verification suite, runs in any of them.  The matrix layer combines scalars
only in its matrix kernels, one per ``ScalarDomain.modulus``: field values
with their own +, -, * for a domain without one, and ints reduced mod P for
the residue domain.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import cycle
from math import gcd
from operator import add, mul, neg


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

    Every sparse map of field values (PBW terms, matrix entries over Q(s)
    or Q) stays zero-free through this rule.  The product kernel
    ExactMatrix.__mul__ inlines it: it is a measured hot loop of an exact
    run, where a call per term shows.  The residue matrix kernel has its own
    version, which reduces each sum mod P.
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
    """Integer-coefficient Laurent polynomial in s, stored densely by stride.

    The value is sum(c[i] * s**(lo + i*st)) over the coefficient list c.
    Nearly every numerator of an exact run is a polynomial in s**4 = q**2,
    because q-integers step by q**2, so a list over the stride takes a
    fraction of the memory of an {exponent: coefficient} map.  The form is
    canonical: c[0] and c[-1] are nonzero, st is the gcd of the exponent
    offsets from lo (0 for a single term), and zero is lo = st = 0 with no
    coefficients; so equality of polynomials is equality of (lo, st, c).
    Instances are immutable; they may share a coefficient list, which no
    operation changes.
    """

    __slots__ = ("_lo", "_st", "_c", "_hash")

    def __new__(cls, terms: dict[int, int] | None = None):
        t = terms or {}
        lo = min(t, default=0)
        st = gcd(*[e - lo for e in t]) or 1
        c = [0] * ((max(t, default=lo) - lo) // st + 1)
        for e, v in t.items():
            c[(e - lo) // st] = v
        return _poly(lo, st, c)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def _raw(cls, lo: int, st: int, c: list[int]) -> LaurentPoly:
        # Adopt a canonical (lo, st, c), uncopied.
        self = _new(cls)
        _set(self, "_lo", lo)
        _set(self, "_st", st)
        _set(self, "_c", c)
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
        return _poly(0, 0, [c])

    @classmethod
    def s_power(cls, k: int) -> LaurentPoly:
        return cls._raw(k, 0, [1])

    @classmethod
    def q_power(cls, k: int) -> LaurentPoly:
        """q**k as a polynomial in s, i.e. s**(2k)."""
        return cls._raw(2 * k, 0, [1])

    # -- inspection

    @property
    def terms(self) -> dict[int, int]:
        return {self._lo + i * self._st: c for i, c in enumerate(self._c) if c}

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def min_exp(self) -> int:
        return self._lo

    def max_exp(self) -> int:
        return self._lo + self._st * (len(self._c) - 1)

    def leading_coefficient(self) -> int:
        return self._c[-1] if self._c else 0

    def term_count(self) -> int:
        return len(self._c) - self._c.count(0)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if isinstance(other, LaurentPoly):
            return self._c == other._c and self._lo == other._lo and self._st == other._st
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            lo, c = self._lo, self._c
            # A constant equals its int (the zero polynomial equals 0), so it hashes as one.
            h = hash(c[0] if c else 0) if not lo and len(c) < 2 else hash((lo, self._st, *c))
            _set(self, "_hash", h)
        return h

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.constant(other)
        if not (self._c and other._c):
            return self if self._c else other
        a, b = (self, other) if self._lo <= other._lo else (other, self)
        g = gcd(a._st, b._st, b._lo - a._lo) or 1  # 0 for two terms of one exponent
        # Both coefficient lists laid out at the common stride g; b starts i slots later.
        ca, cb = _respaced(a._c, a._st // g), _respaced(b._c, b._st // g)
        i = (b._lo - a._lo) // g
        out = ca + [0] * (i + len(cb) - len(ca))
        out[i:i + len(cb)] = map(add, out[i:i + len(cb)], cb)
        return _poly(a._lo, g, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self._lo, self._st, list(map(neg, self._c)))

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.constant(other)
        a, b = self, other
        if len(a._c) < len(b._c):
            a, b = b, a
        if len(b._c) < 2:
            if not b._c:
                return _P_ZERO
            # A monomial factor shifts and scales; no coefficient can vanish.
            v = b._c[0]
            c = a._c if v == 1 else list(map(v.__mul__, a._c))
            return LaurentPoly._raw(a._lo + b._lo, a._st, c)
        ca, cb, st = a._c, b._c, a._st
        if st != b._st:
            st = gcd(st, b._st)
            ca, cb = _respaced(ca, a._st // st), _respaced(cb, b._st // st)
        # A list convolution, with the shorter factor in the outer loop.
        out = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(cb):
            for j, y in enumerate(ca, i):
                out[j] += x * y
        return _poly(a._lo + b._lo, st, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._c) == 1 and self._c[0] in (1, -1):
                return LaurentPoly._raw(self._lo * n, 0, [self._c[0] ** (n & 1)])
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
        if k == 0 or not self._c:
            return self
        return LaurentPoly._raw(self._lo + k, self._st, self._c)

    def evaluate(self, s0: Fraction) -> Fraction:
        # Horner's rule in s0**st.
        x, total = s0 ** self._st, Fraction(0)
        for c in reversed(self._c):
            total = total * x + c
        return total * s0 ** self._lo

    # -- serialization

    def text(self) -> str:
        """Canonical text, ascending exponents: ``"3*s^-2 + 1*s^4"``."""
        if not self._c:
            return "0"
        return " + ".join(f"{c}*s^{self._lo + i * self._st}" for i, c in enumerate(self._c) if c)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


def _poly(lo: int, st: int, c: list[int]) -> LaurentPoly:
    """sum(c[i] * s**(lo + i*st)) in canonical form: the ends of c trimmed of
    zeros, and c thinned to the gcd of the offsets of its nonzero entries."""
    if len(c) < 2 or not (c[0] and c[1] and c[-1]):
        nz = [i for i, v in enumerate(c) if v]
        if not nz:
            return _P_ZERO
        # A list, not a generator: f(*generator) leaves its resized argument
        # tuple on the free list of its final size, which grew past 1 MiB.
        g = gcd(*[i - nz[0] for i in nz])
        lo, st, c = lo + nz[0] * st, st * g, c[nz[0]:nz[-1] + 1:g or 1]
    return LaurentPoly._raw(lo, st, c)


def _respaced(c, r: int):
    """The coefficients c at stride st, laid out at stride st / r."""
    if r < 2:  # r = 0 only for a single coefficient
        return c
    out = [0] * ((len(c) - 1) * r + 1)
    out[::r] = c
    return out


_P_ZERO = LaurentPoly._raw(0, 0, [])
_P_ONE = LaurentPoly._raw(0, 0, [1])


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a Laurent polynomial")


def _divide_dense(f: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """f / b, or None if b does not divide f: one synthetic-division pass
    over the coefficients of f at the common stride (von zur Gathen-Gerhard,
    Modern Computer Algebra, 2.4).

    With t = s**st, f = s**lo_f F(t) and b = s**lo_b B(t), where F(0) and
    B(0) are nonzero, so b divides f exactly when B divides F in Z[t].
    """
    if not f._c:
        return f
    st = gcd(f._st, b._st) or 1
    a = list(_respaced(f._c, f._st // st))
    bc = _respaced(b._c, b._st // st)
    d, lead = len(bc) - 1, bc[-1]
    tail = [(j, v) for j, v in enumerate(bc[:d]) if v]
    out = [0] * (len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    return None
            base = i - d
            out[base] = c
            for j, cb in tail:
                a[base + j] -= c * cb
    if any(a[:d]):
        return None
    return _poly(f._lo - b._lo, st, out)


def laurent_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient of Laurent polynomials (raises if not exact)."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    q = _divide_dense(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


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
def _root_table(k: int, st: int = 1) -> tuple[int, tuple[int, ...]]:
    """A prime p = 1 (mod k) and the powers x**0, x**1, ... of x = w**st up
    to their period k / gcd(k, st), for w a primitive k-th root of unity
    modulo p.

    The primitive k-th roots of unity mod p are exactly the roots of Phi_k
    mod p, so Phi_k | f over Z implies f(w) = 0 (mod p).
    """
    if st != 1:
        p, table = _root_table(k)
        return p, tuple(table[i * st % k] for i in range(k // gcd(k, st)))
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

    A nonzero residue f(w) mod p proves that Phi_k does not divide f and
    costs one pass over the coefficients of f.  A zero residue is confirmed, or
    refuted by a nonzero remainder, by one synthetic division by the monic
    Phi_k.
    """
    p, powers = _root_table(k, f._st)
    # f = s**lo * g(s**st) and w is a unit mod p, so f(w) = 0 iff g(w**st) = 0.
    if sum(map(mul, f._c, cycle(powers))) % p:
        return None
    return _divide_dense(f, cyclotomic(k))


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
    shift, c = f.min_exp(), f._c
    sign = 1 if c[-1] > 0 else -1
    rest = LaurentPoly._raw(0, f._st, c if sign == 1 else list(map(neg, c)))
    deg = rest.max_exp()
    # Every Phi_k is monic with constant term +-1 and (anti)palindromic, so a
    # product of them is too; this rejects most other polynomials at once,
    # and every integer content > 1, which divides the constant term.
    if abs(c[0]) != 1 or any(v not in (w, -w) for v, w in zip(c, reversed(c))):
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
        return bool(self.num._c)

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
        if not a._c or not b._c:
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
    if len(f._c) > 1:  # c*s^m has no cyclotomic factor
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


@lru_cache(maxsize=None)
def r_inverse_series_coefficient(n: int) -> CycloFrac:
    """a_n(q^-1) = (-1)^n q^(-n(n-1)) a_n(q), the coefficient of the series of R^-1."""
    return r_series_coefficient(n) * LaurentPoly({-2 * n * (n - 1): (-1) ** n})


@lru_cache(maxsize=None)
def _q_diff_inverse() -> CycloFrac:
    # Built on first use: its cyclotomic factoring would cost each import ~1 ms.
    return CycloFrac(1, LaurentPoly({2: 1, -2: -1}))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def check_admissible_point(s0: Fraction) -> Fraction:
    """Validate a sample point: s0 not in {0, 1, -1} and s0**4 != 1."""
    s0 = Fraction(s0)
    if s0 == 0 or s0 ** 4 == 1:
        raise ForbiddenPointError(f"s = {s0} makes q = s**2 degenerate")
    return s0


# The number of distinct values p/r that random_admissible_point can return.
SAMPLE_POINT_COUNT = 5704


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
    """The scalars a computation runs over, given by one ring map from Q(s).

    ``SYMBOLIC`` computes with exact CycloFrac values; ``PointDomain(s0)``
    with the Fractions obtained by substituting s = s0; ``ResidueDomain(s0)``
    with those Fractions reduced mod P = 2**61 - 1, as plain ints in [0, P).
    Values from any domain compare with == and are falsy exactly when zero.
    ``modulus`` says how the matrix kernel combines them: None for field
    values, by their own +, -, *; the prime P for ints, which the kernel
    reduces mod P itself.  The matrix layer divides no value: a quotient it
    needs, such as 1/(q - q^-1), is the image of a CycloFrac.

    A domain implements ``image``, which maps a CycloFrac into the domain: a
    ring homomorphism on the values whose denominator does not vanish there,
    so mapping a product gives the product of the images; a vanishing
    denominator raises PoleError.  Every other scalar it hands out (s**k,
    q**k, integers, q-integers, R-series coefficients, 1/(q - q^-1)) is the
    image of the matching CycloFrac.  A domain also owns the data derived
    over it, memoised by :func:`domain_memo`: ``SYMBOLIC`` keeps it for the
    process, and eval mode clears a point domain's memo when its point is
    done.
    """

    mode: str
    modulus: int | None = None

    def __init__(self):
        self._memo: dict = {}

    def clear_memo(self):
        """Drop the memoised tables now.

        They point back to the domain, so after its last use they would
        otherwise wait for the cyclic garbage collector.
        """
        self._memo.clear()

    def image(self, c: CycloFrac):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def s(self, k: int):
        return self.image(CycloFrac._raw(LaurentPoly.s_power(k)))

    def q(self, k: int):
        return self.image(CycloFrac._raw(LaurentPoly.q_power(k)))

    def integer(self, c: int):
        return self.image(CycloFrac._raw(LaurentPoly.constant(c)))

    @property
    def zero(self):
        return self.integer(0)

    @property
    def one(self):
        return self.integer(1)

    def q_int(self, n: int):
        return self.image(CycloFrac._raw(q_integer(n)))

    def series_coeff(self, n: int):
        return self.image(r_series_coefficient(n))

    def q_diff_inverse(self):
        """1/(q - q^-1)."""
        return self.image(_q_diff_inverse())


class SymbolicDomain(ScalarDomain):
    """Exact computation over the field Q(s), in CycloFrac values."""

    mode = "exact"

    def image(self, c: CycloFrac):
        return c

    def describe(self) -> str:
        return "exact"

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolicDomain)

    def __hash__(self) -> int:
        return hash(SymbolicDomain)

    def __repr__(self) -> str:
        return "SymbolicDomain()"


class AdmissiblePointDomain(ScalarDomain):
    """A domain that evaluates at one admissible point s = s0; two are equal
    when they are of one type at one point."""

    mode = "eval"

    def __init__(self, s0: Fraction):
        super().__init__()
        self.s0 = check_admissible_point(s0)

    def describe(self) -> str:
        return f"s={self.s0}"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.s0 == other.s0

    def __hash__(self) -> int:
        return hash((type(self), self.s0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.s0!r})"


class PointDomain(AdmissiblePointDomain):
    """Exact rational arithmetic at a fixed admissible point s = s0."""

    def image(self, c: CycloFrac):
        return c.evaluate(self.s0)


# ---------------------------------------------------------------------------
# residues modulo the Mersenne prime 2**61 - 1
# ---------------------------------------------------------------------------

RESIDUE_PRIME = (1 << 61) - 1


class ResidueDomain(AdmissiblePointDomain):
    """Arithmetic in Z/P at an admissible point s0 = p/r, mapped to p * r^-1 mod P.

    Every value is an int in [0, P): the rational value at s0 reduced mod P,
    the reduction being a ring homomorphism on the rationals whose
    denominator P does not divide; a denominator that is 0 mod P raises
    PoleError.  A residue that
    is nonzero mod P proves the rational value nonzero; a zero residue can
    be a false zero, as for any sample point.
    """

    modulus = RESIDUE_PRIME

    def __init__(self, s0: Fraction):
        super().__init__(s0)
        p, r = self.s0.numerator % RESIDUE_PRIME, self.s0.denominator % RESIDUE_PRIME
        if not p or not r:
            raise PoleError(f"s = {self.s0} has no invertible image mod 2^61-1")
        self._s = p * pow(r, -1, RESIDUE_PRIME) % RESIDUE_PRIME

    def _value(self, p: LaurentPoly) -> int:
        # Horner's rule in s**st.
        x, total = pow(self._s, p._st, RESIDUE_PRIME), 0
        for c in reversed(p._c):
            total = (total * x + c) % RESIDUE_PRIME
        return total * pow(self._s, p._lo, RESIDUE_PRIME) % RESIDUE_PRIME

    def image(self, c: CycloFrac) -> int:
        v = self._value(c.num)
        # A polynomial value, s**k and every integer among them, needs no inverse.
        if not c.den:
            return v
        d = self._value(c.denominator())
        if not d:
            raise PoleError(f"a denominator vanishes mod 2^61-1 at s = {self.s0}")
        return v * pow(d, -1, RESIDUE_PRIME) % RESIDUE_PRIME


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
