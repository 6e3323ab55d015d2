"""The sparse-factor congruence path against the dense code it replaced.

Every q-analogue, every quotient and remainder, every checker report and
every Riordan row must equal its oracle in ``qpoly_oracle.py`` exactly,
and a failure (an inexact division, a non-integer coefficient) must be the
same failure: the same exception type, element and detail.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpoly_oracle as oracle
from helpers import corrupt, sequence_corpus, zpos_spec
from sievekit.gaussseq import (
    NonIntegerWitness,
    SequenceSpec,
    TruncatedSeries,
    riordan_rows,
)
from sievekit.qgauss import (
    NonIntegerCoefficient,
    PolyFamily,
    _weighted_multinomial,
    check_qgauss_definition,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    fund_family,
)
from sievekit.qpoly import (
    IntPoly,
    _q_exp_nonneg,
    _q_exp_row,
    cyclotomic,
    q_binomial,
    q_multinomial,
    q_power,
)
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window

ZPOS = PositiveIntegers()

coeff_lists = st.lists(st.integers(-60, 60), max_size=14)


@st.composite
def divisor_polys(draw) -> IntPoly:
    """A nonzero divisor: dense, or a few terms spread over a long range,
    with a lead coefficient that need not be a unit."""
    lead = draw(st.integers(-6, 6).filter(bool))
    if draw(st.booleans()):
        body = draw(st.lists(st.integers(-6, 6), max_size=6))
    else:
        deg = draw(st.integers(0, 16))
        terms = draw(st.dictionaries(st.integers(0, max(deg - 1, 0)),
                                     st.integers(-6, 6), max_size=3))
        body = [terms.get(i, 0) for i in range(deg)]
    return IntPoly(body + [lead])


def outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def _coeffs(result):
    if isinstance(result, tuple) and all(isinstance(p, IntPoly) for p in result):
        return tuple(p.coeffs for p in result)
    return result.coeffs if isinstance(result, IntPoly) else result


# -- arithmetic ----------------------------------------------------------------------


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_mul(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        assert (p * q).coeffs == oracle.mul(p, q).coeffs

    @given(coeff_lists, divisor_polys())
    def test_divmod(self, a, d):
        p = IntPoly(a)
        got = outcome(divmod, p, d)
        want = outcome(oracle.divmod_, p, d)
        assert _coeffs(got) == _coeffs(want)

    @given(coeff_lists, divisor_polys(), st.lists(st.integers(-3, 3), max_size=3))
    def test_exact_div(self, quotient, d, offset):
        # a multiple of d, knocked off it when the offset is nonzero
        p = IntPoly(quotient) * d + IntPoly(offset)
        got = outcome(IntPoly.exact_div, p, d)
        want = outcome(oracle.exact_div, p, d)
        assert _coeffs(got) == _coeffs(want)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(IntPoly((1, 2)), IntPoly())


# -- q-analogues -------------------------------------------------------------------------


class TestQAnalogues:
    def test_q_binomial_grid(self):
        for n in range(41):
            for k in range(n + 1):
                assert q_binomial(n, k) == oracle.q_binomial(n, k), (n, k)

    @pytest.mark.parametrize("n, k", [(-1, 0), (-5, 0), (3, -1), (0, -2),
                                      (3, 4), (0, 1), (-2, 1), (-2, -1)])
    def test_q_binomial_corners(self, n, k):
        assert q_binomial(n, k) == oracle.q_binomial(n, k)

    @given(st.lists(st.integers(-1, 7), max_size=5))
    def test_q_multinomial(self, parts):
        assert _coeffs(outcome(q_multinomial, parts)) == _coeffs(
            outcome(oracle.q_multinomial, parts)
        )

    @given(st.integers(1, 30), st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_weighted_multinomial(self, weight, mults):
        # The two divide by different polynomials, 1 - q^sum and [sum]_q, so
        # an inexact case must raise the same exception, not the same text.
        if not sum(mults):
            mults = mults + [1]
        got = outcome(_weighted_multinomial, weight, mults)
        want = outcome(oracle.weighted_multinomial, weight, mults)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0]
        else:
            assert got == want

    def test_cyclotomic(self):
        for d in range(1, 301):
            assert cyclotomic(d) == oracle.cyclotomic(d), d

    @given(st.integers(-40, 40), st.integers(1, 11))
    def test_q_power(self, base, n):
        assert q_power(base, n) == oracle.q_power(base, n)

    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_q_power_rows_extend_in_any_order(self, base):
        # from empty caches: n = 15..1 builds the row once and reads it
        # back, then n = 16..30 extends it one entry at a time
        _q_exp_nonneg.cache_clear()
        _q_exp_row.cache_clear()
        for n in [*range(15, 0, -1), *range(1, 31)]:
            assert q_power(base, n) == oracle.q_power(base, n), n


# -- definition checker ------------------------------------------------------------------


def _families() -> list[tuple[str, PolyFamily]]:
    fams = [(name, construct_ramanujan(a)) for name, a in sequence_corpus(12)]
    binomials = PolyFamily.from_function(
        Chain(ZPOS, "nonneg"), Window(8, ((0, 8),)), lambda s: q_binomial(s[0], s[1])
    )
    c = zpos_spec("c", {1: 1, 2: -2, 3: 1, 7: 2}, 12)
    b = zpos_spec("b", {n: n % 5 - 2 for n in range(1, 13)}, 12)
    beads = FreeRanked((("x", 1), ("y", 2), ("z", 3)))
    return fams + [
        ("q-binomial", binomials),
        ("from-c", construct_from_c(c)),
        ("from-b", construct_from_b(b)),
        ("fund", fund_family(beads, Window(8))),
    ]


def _corrupted() -> list[tuple[str, PolyFamily]]:
    out = []
    for name, F in _families():
        for s, _ in F.polys:
            if F.instance.rank(s) in (2, 3, 6, 8):
                out.append((f"{name}@{s}", corrupt(F, s)))
    return out


FAMILIES = _families()
CORRUPTED = _corrupted()


@pytest.mark.parametrize("name, F", FAMILIES + CORRUPTED,
                         ids=[n for n, _ in FAMILIES + CORRUPTED])
def test_definition_report(name, F):
    assert check_qgauss_definition(F) == oracle.check_qgauss_definition(F)


def test_corruptions_are_reported():
    assert CORRUPTED
    for name, F in CORRUPTED:
        assert not check_qgauss_definition(F).ok, name


# -- Ramanujan construction -----------------------------------------------------------------


def _construct(build, a):
    try:
        return build(a).polys
    except NonIntegerCoefficient as e:
        return NonIntegerCoefficient, e.element, e.detail


CORPUS = sequence_corpus(24)


@pytest.mark.parametrize("name, a", CORPUS, ids=[name for name, _ in CORPUS])
def test_ramanujan_on_corpus(name, a):
    assert _construct(construct_ramanujan, a) == _construct(oracle.construct_ramanujan, a)


@given(st.integers(1, 16), st.data())
def test_ramanujan_on_random_rows(max_rank, data):
    # mostly non-congruent rows: the witness element and detail must agree
    row = data.draw(st.lists(st.integers(-9, 9), min_size=max_rank, max_size=max_rank))
    a = zpos_spec("a", dict(enumerate(row, start=1)), max_rank)
    assert _construct(construct_ramanujan, a) == _construct(oracle.construct_ramanujan, a)


def test_ramanujan_failure_names_element_and_detail():
    a = zpos_spec("a", {n: n for n in range(1, 7)}, 6)
    got = _construct(construct_ramanujan, a)
    assert got == _construct(oracle.construct_ramanujan, a)
    assert got[0] is NonIntegerCoefficient


# -- from-c construction ------------------------------------------------------------------


@pytest.mark.parametrize("support, max_rank", [
    ({1: 1, 2: 1}, 14),
    ({1: 1, 2: -2, 3: 1, 5: 2, 9: -1}, 16),
    ({2: 3, 3: -1}, 18),
    ({1: -1, 4: 2}, 16),
])
def test_from_c(support, max_rank):
    c = zpos_spec("c", support, max_rank)
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


@settings(max_examples=20)
@given(st.integers(1, 16),
       st.dictionaries(st.integers(1, 5) | st.integers(1, 16),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
def test_from_c_random(max_rank, support):
    c = zpos_spec("c", {t: v for t, v in support.items() if t <= max_rank}, max_rank)
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


def test_from_c_on_free_beads():
    beads = FreeRanked((("x", 1), ("y", 2)))
    c = SequenceSpec.from_mapping(beads, Window(7), "c", {(1, 0): 2, (0, 1): -1, (1, 1): 1})
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


# -- Riordan rows ------------------------------------------------------------------------------


def _rows(fn, D, max_n):
    try:
        return fn(D, max_n)
    except NonIntegerWitness as e:
        return NonIntegerWitness, e.element, e.numerator, e.modulus


@pytest.mark.parametrize("numer, denom", [
    ([1], [1, -1]),
    ([1, 1, 1], [1]),
    ([1, 1, -1], [1, -1]),
    ([0, 1, 1], [1, -1]),
    ([1, 2, -1], [-1, 2, 1]),
    ([1], [2, 1]),
    ([Fraction(1, 2), 1], [1]),
])
def test_riordan_rows(numer, denom):
    D = TruncatedSeries.from_rational(numer, denom, 13)
    assert _rows(riordan_rows, D, 12) == _rows(oracle.riordan_rows, D, 12)


@settings(max_examples=30)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.integers(1, 10),
)
def test_riordan_rows_random(numer, lead, tail, max_n):
    D = TruncatedSeries.from_rational(numer, [lead] + tail, max_n + 1)
    assert _rows(riordan_rows, D, max_n) == _rows(oracle.riordan_rows, D, max_n)
