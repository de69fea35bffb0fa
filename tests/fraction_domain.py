"""Exact rational evaluation at a sample point: the tests' Fraction oracle.

qaw computes eval points only in residues mod P.  The tests check those
residues against the value over Q at the same point, reduced mod P, so
they keep this evaluator, and a scalar domain built on it, of their own.
"""

from fractions import Fraction

from qaw.scalars import CycloFrac, PoleError, ScalarDomain, check_admissible_point


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
        self.s0 = check_admissible_point(s0)

    def image(self, c: CycloFrac) -> Fraction:
        return evaluate(c, self.s0)

    def describe(self) -> str:
        return f"s={self.s0}"

