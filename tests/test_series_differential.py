"""TruncatedSeries against a plain rational-recurrence oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sievekit.gaussseq import TruncatedSeries


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
