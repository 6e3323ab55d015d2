"""Rational power series: the reference for ``sievekit.gaussseq``'s integer
series.

``RationalSeries`` is the series class the library had before its series
became integer ones: ``fractions.Fraction`` coefficients, a series inverse,
integer powers by repeated squaring and numer/denom for any denominator
with a nonzero constant term.  ``solve_functional_equation`` is the
library's solver over it, which reduces c_n = [x^(n-1)] D^n / n as a
``Fraction``.  On integral input the library must give the same values and
raise the same exceptions; the product identity and the strict-path
recurrence in the other oracles are written over this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from sievekit.gaussseq import NonIntegerWitness, NoSolution


@dataclass(frozen=True)
class RationalSeries:
    """Formal power series with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i for every i below ``order``;
    exponents >= order are unknown (truncated).
    """

    coeffs: tuple[Fraction, ...]
    order: int

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "RationalSeries":
        """The polynomial with these coefficients, cut or padded to ``order``."""
        cs = [Fraction(c) for c in coeffs][:order]
        return cls(tuple(cs + [Fraction(0)] * (order - len(cs))), order)

    @classmethod
    def from_rational(cls, numer: Iterable, denom: Iterable, order: int) -> "RationalSeries":
        """The series of numer(x)/denom(x); the denominator needs a nonzero
        constant term."""
        denom = tuple(denom)
        if not denom or not denom[0]:
            raise ValueError("from_rational: the denominator needs a nonzero constant term")
        if not order:  # nothing is known, and an empty series has no inverse
            return cls((), 0)
        return cls.from_coeffs(numer, order) * cls.from_coeffs(denom, order).inverse()

    def coeff(self, e: int) -> Fraction:
        if e >= self.order:
            raise ValueError(f"coefficient of x^{e} is beyond order {self.order}")
        return self.coeffs[e] if e >= 0 else Fraction(0)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        order = min(self.order, other.order)
        cs = [Fraction(0)] * order
        for i, ci in enumerate(self.coeffs[:order]):
            if ci:
                for j, cj in enumerate(other.coeffs[: order - i]):
                    cs[i + j] += ci * cj
        return RationalSeries(tuple(cs), order)

    def __pow__(self, n: int) -> "RationalSeries":
        if n < 0:
            return self.inverse() ** -n
        result = RationalSeries.from_coeffs((1,), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "RationalSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroDivisionError("inverse of a series with no constant term")
        lead = self.coeffs[0]
        inv = [1 / lead]
        for e in range(1, self.order):
            inv.append(-sum(self.coeffs[i] * inv[e - i] for i in range(1, e + 1)) / lead)
        return RationalSeries(tuple(inv), self.order)


def lift(D) -> RationalSeries:
    """Any series with ``coeffs`` and ``order`` as a ``RationalSeries``."""
    return RationalSeries.from_coeffs(D.coeffs, D.order)


def solve_functional_equation(D, order: int) -> RationalSeries:
    """The unique series C with C(x) = x * D(C(x)), known below x^order, by
    Lagrange inversion over the rationals; see the library's solver."""
    D = lift(D)
    if D.order < 1:
        raise NoSolution("D carries no known constant term")
    c = [Fraction(0)] * order  # c[i] multiplies x^i
    if order > 1 and D.coeff(0):
        if order > D.order + 1:
            raise NoSolution(
                f"D is truncated at order {D.order}; cannot reach x^{D.order + 1}"
            )
        known = RationalSeries(D.coeffs[: order - 1], order - 1)
        power = known
        for n in range(1, order):
            if n > 1:
                power = power * known
            c[n] = Fraction(power.coeff(n - 1), n)
            if c[n].denominator != 1:
                raise NonIntegerWitness(n, c[n].numerator, c[n].denominator, "c")
    return RationalSeries(tuple(c), order)
