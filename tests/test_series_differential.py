"""The integer series of ``sievekit.gaussseq`` against the rational
``series_oracle``, that oracle against a plain rational-recurrence oracle,
and the fixed-point solver against the coefficient recursion it replaced."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpoly_oracle
import series_oracle
from series_oracle import RationalSeries
from sievekit.gaussseq import (
    NonIntegerWitness,
    NoSolution,
    TruncatedSeries,
    riordan_count,
    riordan_rows,
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
    D = RationalSeries.from_rational(numer, denom, order)
    want = oracle_series(numer, denom, order)
    assert list(D.coeffs) == want and D.order == order
    if want[0]:
        one = RationalSeries.from_coeffs([1], order)
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


def oracle_solve(D: RationalSeries, order: int) -> RationalSeries:
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
    return RationalSeries(tuple(c), order)


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
        D = RationalSeries.from_rational(numer, denom, d_order)
    else:
        D = RationalSeries.from_coeffs((), 0)
    try:
        want = oracle_solve(D, order)
    except (NoSolution, NonIntegerWitness) as e:
        with pytest.raises(type(e)) as got:
            series_oracle.solve_functional_equation(D, order)
        assert str(got.value) == str(e)
    else:
        assert series_oracle.solve_functional_equation(D, order) == want


def outcome(fn, *args):
    """The coefficients and order of a series, any other result as it is, or
    the type and message of the exception raised."""
    try:
        got = fn(*args)
    except ValueError as e:
        return type(e), str(e)
    return (tuple(got.coeffs), got.order) if hasattr(got, "coeffs") else got


INTS = st.integers(-3, 3)


@settings(max_examples=150)
@given(
    st.lists(INTS, max_size=5),
    st.sampled_from([1, -1]).flatmap(lambda lead: st.lists(INTS, max_size=3).map(
        lambda tail: [lead] + tail)),
    st.integers(0, 10),
    st.lists(INTS, max_size=4),
    st.integers(0, 12),
    st.integers(1, 12),
    st.integers(-2, 12),
)
def test_integer_series_match_the_rational_oracle(numer, denom, order, other, max_n, n, k):
    """On integral input every integer-series operation gives the oracle's
    value, or raises the same exception type and message."""
    D = TruncatedSeries.from_rational(numer, denom, order)
    R = RationalSeries.from_rational(numer, denom, order)
    assert all(type(c) is int for c in D.coeffs)
    assert (D.coeffs, D.order) == (R.coeffs, R.order)
    E = TruncatedSeries.from_coeffs(other, len(other))
    assert outcome(D.__mul__, E) == outcome(R.__mul__, series_oracle.lift(E))
    assert outcome(riordan_rows, D, max_n) == outcome(qpoly_oracle.riordan_rows, D, max_n)
    assert outcome(riordan_count, D, n, k) == outcome(qpoly_oracle.riordan_count, D, n, k)
    assert outcome(solve_functional_equation, D, max_n) == outcome(
        series_oracle.solve_functional_equation, D, max_n)
