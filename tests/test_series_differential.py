"""TruncatedSeries against a plain rational-recurrence oracle, and the
fixed-point solver against the coefficient recursion it replaced."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sievekit.gaussseq import (
    NonIntegerWitness,
    NoSolution,
    TruncatedSeries,
    solve_functional_equation,
)


def oracle_series(numer, denom, order):
    """c_e = (numer_e - sum of denom_i * c_(e-i) over i >= 1) / denom_0."""
    c = []
    for e in range(order):
        v = Fraction(numer[e]) if e < len(numer) else Fraction(0)
        v -= sum(denom[i] * c[e - i] for i in range(1, min(e, len(denom) - 1) + 1))
        c.append(v / denom[0])
    return c


def oracle_mul(a, b):
    return [sum(a[i] * b[e - i] for i in range(e + 1)) for e in range(min(len(a), len(b)))]


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = RATIONALS.filter(bool)


@given(
    st.lists(RATIONALS, min_size=1, max_size=5),
    st.lists(RATIONALS, max_size=4).flatmap(
        lambda tail: NONZERO.map(lambda lead: [lead] + tail)
    ),
    st.integers(1, 16),
)
def test_series_matches_oracle(numer, denom, order):
    D = TruncatedSeries.from_rational(numer, denom, order)
    want = oracle_series(numer, denom, order)
    assert list(D.coeffs) == want and D.order == order
    if want[0]:
        one = TruncatedSeries.from_coeffs([1], order)
        assert D * D.inverse() == one
        inverse = oracle_series([1], want, order)
    for n in range(-3, 6):
        if n < 0 and not want[0]:
            with pytest.raises(ZeroDivisionError):
                D ** n
            continue
        power = [Fraction(1)] + [Fraction(0)] * (order - 1)
        for _ in range(abs(n)):
            power = oracle_mul(power, want if n > 0 else inverse)
        assert (D ** n).coeffs == tuple(power)


def oracle_solve(D: TruncatedSeries, order: int) -> TruncatedSeries:
    """C with C(x) = x * D(C(x)), coefficient by coefficient: the x^n
    coefficient of x*D(C) only involves C-coefficients below n."""
    if D.order < 1:
        raise NoSolution("D carries no known constant term")
    c = [Fraction(0)] * order  # c[i] multiplies x^i
    for n in range(1, order):
        m = n - 1  # extract [x^m] D(C); C^j cannot reach x^m once j > m
        total = D.coeff(0) if m == 0 else Fraction(0)
        cj = [Fraction(0)] * (m + 1)
        cj[0] = Fraction(1)
        for j in range(1, m + 1):
            nxt = [Fraction(0)] * (m + 1)
            for i, w in enumerate(cj):
                if w == 0:
                    continue
                for e in range(1, m + 1 - i):
                    if c[e]:
                        nxt[i + e] += w * c[e]
            cj = nxt
            if not any(cj):
                break
            if cj[m] == 0:
                continue
            if j >= D.order:
                raise NoSolution(
                    f"D is truncated at order {D.order}; cannot reach x^{n}"
                )
            total += D.coeff(j) * cj[m]
        c[n] = total
    for n in range(1, order):
        if c[n].denominator != 1:
            raise NonIntegerWitness(n, c[n].numerator, c[n].denominator, "c")
    return TruncatedSeries(tuple(c), order)


# mostly integers, so that many solutions stay integral
COEFFS = st.one_of(st.integers(-2, 2), st.integers(-2, 2), RATIONALS)


@settings(max_examples=150)
@given(
    st.lists(COEFFS, min_size=1, max_size=4),
    st.lists(COEFFS, max_size=3).flatmap(
        lambda tail: st.one_of(st.sampled_from([1, -1]), NONZERO).map(
            lambda lead: [lead] + tail
        )
    ),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_solver_matches_the_coefficient_recursion(numer, denom, d_order, order):
    """Same series, or the same exception type and message, for D = numer /
    denom known below x^d_order; numer[0] = 0 gives the zero solution."""
    if d_order:
        D = TruncatedSeries.from_rational(numer, denom, d_order)
    else:
        D = TruncatedSeries.from_coeffs((), 0)
    try:
        want = oracle_solve(D, order)
    except (NoSolution, NonIntegerWitness) as e:
        with pytest.raises(type(e)) as got:
            solve_functional_equation(D, order)
        assert str(got.value) == str(e)
    else:
        assert solve_functional_equation(D, order) == want
