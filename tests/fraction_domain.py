"""Exact rational evaluation at a sample point: the tests' Fraction oracle.

qaw computes eval points only in residues mod P.  The tests check those
residues against the value over Q at a rational point p/r, reduced mod P,
so they keep this evaluator, a scalar domain built on it, and the map of
p/r to its residue, of their own.
"""

from fractions import Fraction

from qaw.scalars import RESIDUE_PRIME, CycloFrac, ForbiddenPointError, PoleError, ScalarDomain


def mod_p(x: Fraction) -> int:
    """The residue p * r^-1 mod P of x = p/r."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, RESIDUE_PRIME) % RESIDUE_PRIME


def evaluate(x, s0: Fraction) -> Fraction:
    """A LaurentPoly or CycloFrac at s = s0; PoleError if its denominator vanishes."""
    if isinstance(x, CycloFrac):
        d = evaluate(x.denominator(), s0)
        if d == 0:
            raise PoleError(f"denominator vanishes at s = {s0}")
        return evaluate(x.num, s0) / d
    # Horner's rule in s0**st.
    t, total = s0 ** x._st, Fraction(0)
    for c in reversed(x._c):
        total = total * t + c
    return total * s0 ** x._lo


class FractionDomain(ScalarDomain):
    """Exact rational arithmetic at a fixed admissible point s = s0."""

    mode = "eval"

    def __init__(self, s0: Fraction):
        super().__init__()
        self.s0 = Fraction(s0)
        if self.s0 == 0 or self.s0 ** 4 == 1:
            raise ForbiddenPointError(f"s = {self.s0} makes q = s**2 degenerate")

    def image(self, c: CycloFrac) -> Fraction:
        return evaluate(c, self.s0)

    def describe(self) -> str:
        return f"s={self.s0}"
