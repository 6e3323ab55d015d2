"""The sparse-factor congruence path against the dense code it replaced.

Every q-analogue, every quotient and remainder, every checker report and
every Riordan row must equal its oracle in ``qpoly_oracle.py`` exactly,
and a failure (an inexact division, a non-integer coefficient) must be the
same failure: the same exception type, element and detail.
"""

from __future__ import annotations

import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qpoly_oracle as oracle
import semigroup_oracle
from helpers import chain_product, corrupt, sequence_corpus, zpos_spec
from series_oracle import RationalSeries
from sievekit.arith import divisors, ramanujan_sum
from sievekit.gaussseq import (
    NonIntegerWitness,
    SequenceSpec,
    TruncatedSeries,
    b_from_a,
    c_from_a,
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
    KRONECKER_MIN_TERMS,
    IntPoly,
    _q_binomial_row,
    _q_exp_nonneg,
    _q_exp_row,
    cyclotomic,
    div_one_minus_q_pow,
    divide_one_minus_power,
    kronecker_pack,
    kronecker_unpack,
    one_minus_q_pow,
    q_binomial,
    q_multinomial,
    q_power,
    ramanujan_classes,
    slot_size,
)
from sievekit.semigroup import EXTRA_KINDS, Chain, FreeRanked, PositiveIntegers, Window
from sievekit.transport import Morphism, _fiber_directions

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


@st.composite
def switch_polys(draw) -> IntPoly:
    """A polynomial with one term, or with a number of nonzero terms next
    to or well past KRONECKER_MIN_TERMS, zero gaps between them, and
    coefficients of either sign from a few bits up to 2^256."""
    t = KRONECKER_MIN_TERMS
    terms = draw(st.sampled_from([1, 2, t - 1, t, t + 1, 3 * t]))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2**60, 2**60),
                      st.integers(-2**256, 2**256)).filter(bool)
    out = [0] * draw(st.integers(0, 3))
    for _ in range(terms):
        out += [draw(coeff)] + [0] * draw(st.sampled_from([0, 0, 1, 4]))
    return IntPoly(out)


# -- arithmetic ----------------------------------------------------------------------


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_mul(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        assert (p * q).coeffs == oracle.mul(p, q).coeffs

    @settings(max_examples=200)
    @given(switch_polys(), switch_polys())
    def test_mul_on_both_sides_of_the_switch(self, p, q):
        assert (p * q).coeffs == oracle.mul(p, q).coeffs
        assert (q * p).coeffs == oracle.mul(p, q).coeffs

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 72, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_mul_reaches_the_coefficient_bound(self, bits, sign):
        # the middle coefficient is terms * max|a| * max|b| = 2^bits - terms
        t = KRONECKER_MIN_TERMS
        p = IntPoly([sign * ((2**bits - 1) // t)] * t)
        q = IntPoly([1] * t)
        assert max(map(abs, (p * q).coeffs)).bit_length() == bits
        assert (p * q).coeffs == oracle.mul(p, q).coeffs

    @given(coeff_lists, divisor_polys())
    def test_divmod(self, a, d):
        # long division takes a divisor whose lead is 1 or -1, and no other
        p = IntPoly(a)
        if d.coeffs[-1] in (1, -1):
            assert _coeffs(divmod(p, d)) == _coeffs(oracle.divmod_(p, d))
        else:
            with pytest.raises(ValueError):
                divmod(p, d)

    @given(coeff_lists | st.lists(st.integers(-2**70, 2**70), max_size=12), st.integers(1, 16),
           st.lists(st.integers(-3, 3), max_size=3))
    def test_div_one_minus_q_pow(self, quotient, k, offset):
        # a multiple of 1 - q^k, knocked off it when the offset is nonzero
        d = one_minus_q_pow(k)
        p = IntPoly(quotient) * d + IntPoly(offset)
        want = outcome(oracle.exact_div, p, d)
        if isinstance(want, IntPoly):
            assert div_one_minus_q_pow(p, k).coeffs == want.coeffs
        else:
            with pytest.raises(want[0]):
                div_one_minus_q_pow(p, k)

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_div_one_minus_q_pow_reaches_the_coefficient_bound(self, bits, sign):
        # p = m [t]_{q^k} (1 - q^(tk)) has sum|p| = 2tm, and the middle
        # coefficient of its quotient m [t]_{q^k}^2 is tm = sum|p| / 2 =
        # 2^bits - t: the most a quotient can reach, as each residue sum of
        # a multiple is 0.  A slot sized by max|p| = m would wrap it.
        t = KRONECKER_MIN_TERMS
        m = sign * ((2**bits - 1) // t)
        for k in (1, 2, 5):
            p = IntPoly(([1] + [0] * (k - 1)) * t) * m * one_minus_q_pow(t * k)
            quotient = div_one_minus_q_pow(p, k)
            top = max(map(abs, quotient.coeffs))
            assert top.bit_length() == bits and 2 * top == sum(map(abs, p.coeffs))
            assert quotient.coeffs == oracle.exact_div(p, one_minus_q_pow(k)).coeffs
            with pytest.raises(ArithmeticError):
                div_one_minus_q_pow(p + IntPoly.monomial(1, k), k)

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

    def test_q_binomial_rows_extend_in_any_order(self):
        # from empty caches: the middle of the row of a = 12 first, then
        # the entries before it (read back), after it (one step each), and
        # the same entries asked for as [n choose n - k]
        q_binomial.cache_clear()
        _q_binomial_row.cache_clear()
        for m in [6, *range(5, -1, -1), *range(7, 13)]:
            for n, k in ((12 + m, m), (12 + m, 12)):
                assert q_binomial(n, k) == oracle.q_binomial(n, k), (n, k)
        assert len(_q_binomial_row(12)) == 13

    def test_q_binomial_walks_without_recursion(self):
        # the row of a = 90 grows 90 steps within a few stack frames
        q_binomial.cache_clear()
        _q_binomial_row.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 20)
        try:
            p = q_binomial(180, 90)
        finally:
            sys.setrecursionlimit(limit)
        assert p(1) == comb(180, 90) and len(p.coeffs) - 1 == 90 * 90
        assert p.coeffs == p.coeffs[::-1]

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

    def test_q_power_by_partitions_is_the_recursion(self):
        # the oracle the from-c tests use for bases past the recursion's reach
        for base in range(-7, 8):
            for n in range(1, 9):
                assert oracle.q_power_by_partitions(base, n) == oracle.q_power(base, n)
        for base in (10**30, -(10**30), 2**64 + 1):
            for n in range(1, 7):
                assert oracle.q_power_by_partitions(base, n) == q_power(base, n)

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
            if semigroup_oracle.rank(F.instance, s) in (2, 3, 6, 8):
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


PRIMES = [p for p in range(2, 241) if all(p % q for q in range(2, p))]
PRIME_POWERS = [p**k for p in PRIMES[:4] for k in range(2, 8) if p**k <= 240]
# zero, small of either sign, and past 2**200 of either sign
CLASS_VALUES = st.one_of(
    st.just(0), st.integers(-9, 9),
    st.builds(lambda sign, m: sign * (2**200 + m), st.sampled_from([1, -1]),
              st.integers(1, 2**210)),
)


@settings(max_examples=200)
@given(st.one_of(st.integers(1, 240), st.sampled_from(PRIMES), st.sampled_from(PRIME_POWERS),
                 st.sampled_from([120, 180, 240])),
       st.data())
def test_class_kernel_equals_the_per_entry_vector(n, data):
    """One value per gcd class, spread to length n, is the vector the
    per-entry passes build, for any values at any subset of the divisors,
    in any order."""
    ds = data.draw(st.lists(st.sampled_from(divisors(n)), unique=True))
    values = [(d, data.draw(CLASS_VALUES)) for d in ds]
    want = oracle.ramanujan_vector(n, values)
    by_class, classes = ramanujan_classes(n, values)
    assert len(by_class) == len(divisors(n)) and len(classes) == n
    assert [by_class[k] for k in classes] == want


def test_ramanujan_sum_closed_form_is_the_divisor_sum():
    for d in range(1, 301):
        assert [ramanujan_sum(j, d) for j in range(d)] == [
            oracle.ramanujan_sum(j, d) for j in range(d)], d


def test_ramanujan_failure_with_two_classes_off():
    """A row with the sieve congruence, bumped at 12: every class of the
    element 12 is off by one from a multiple of 12, and the construction
    names the same element and first coefficient as the per-coefficient
    one."""
    row = {n: 2**n for n in range(1, 13)}
    row[12] += 1
    a = zpos_spec("a", row, 12)
    by_class, _ = ramanujan_classes(12, [(d, row[12 // d]) for d in divisors(12)])
    assert sum(c % 12 != 0 for c in by_class) >= 2
    got = _construct(construct_ramanujan, a)
    assert got == _construct(oracle.construct_ramanujan, a)
    assert got[:2] == (NonIntegerCoefficient, 12)


# -- from-c construction ------------------------------------------------------------------


@pytest.mark.parametrize("support, max_rank", [
    ({1: 1, 2: 1}, 14),
    ({1: 1, 2: -2, 3: 1, 5: 2, 9: -1}, 16),
    ({2: 3, 3: -1}, 18),
    ({1: -1, 4: 2}, 16),
    # coefficients past 8 bytes, so the dense products use byte-string slots
    ({1: 600, 2: -600, 3: 1, 5: -600}, 10),
])
def test_from_c(support, max_rank):
    c = zpos_spec("c", support, max_rank)
    top = max(map(abs, support.values()))
    for n in range(1, max_rank + 1):  # fill the oracle's recursion on the base from below
        for base in range(1, top + 1):
            oracle._q_exp_nonneg(base, n)
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


def test_from_c_on_a_chain_with_an_ints_extra():
    # partial sums leave the window's extra bounds and come back into them
    inst = Chain(Chain(ZPOS, "nonneg"), "ints")
    c = SequenceSpec.from_mapping(inst, Window(7, ((0, 3), (-2, 2))), "c", {
        (1, 0, 1): 1, (1, 0, -1): 2, (1, 1, 0): -1, (2, 0, 3): 1, (2, 1, -3): -2, (3, 2, 0): 1,
    })
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


def test_from_c_on_free_beads_with_a_zero_length_bead():
    beads = FreeRanked((("x", 1), ("z", 0), ("y", 2)))
    c = SequenceSpec.from_mapping(beads, Window(6, max_total=5), "c", {
        (1, 0, 0): 1, (1, 1, 0): -2, (1, 2, 0): 1, (0, 1, 1): 3, (0, 0, 1): -1, (2, 3, 1): 1,
    })
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


@st.composite
def floored_c_specs(draw) -> SequenceSpec:
    """A role-c spec on a chain whose first extra has a floor (``nonneg``
    or ``pos``), or on free beads, with a few parts of rank 1 or 2 (so
    that many sums reach the caps) from a window a little wider than the
    spec's, so that some parts pass a coordinate's cap."""
    max_rank = draw(st.integers(3, 8))
    if draw(st.booleans()):
        inst = Chain(ZPOS, draw(st.sampled_from(["nonneg", "pos"])))
        if draw(st.booleans()):
            inst = Chain(inst, draw(st.sampled_from(["ints", "nonneg", "pos"])))
        bounds = []
        for _ in inst.extras:
            lo = draw(st.integers(-2, 2))
            bounds.append((lo, lo + draw(st.integers(0, 3))))
        window = Window(max_rank, tuple(bounds))
        wider = Window(max_rank, tuple((lo, hi + 2) for lo, hi in bounds))
    else:
        lengths = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
        if max(lengths) < 1:
            lengths[0] = draw(st.integers(1, 3))  # so that the instance has elements
        inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
        total = draw(st.integers(1, 5))
        window, wider = Window(max_rank, max_total=total), Window(max_rank, max_total=total + 2)
    small = [t for t in inst.elements(wider) if semigroup_oracle.rank(inst, t) <= 2]
    assume(inst.elements(window) and small)
    parts = draw(st.lists(st.sampled_from(small), min_size=1, max_size=4, unique=True))
    weights = st.integers(-3, 3).filter(bool)
    return SequenceSpec.from_mapping(inst, window, "c", {t: draw(weights) for t in parts})


@settings(max_examples=150)
@given(floored_c_specs())
def test_from_c_pruned_by_floored_coordinates(c):
    # partial sums are dropped past each floored coordinate's window maximum
    assert construct_from_c(c).polys == oracle.construct_from_c(c).polys


def test_from_c_keeps_only_partial_sums_that_can_reach_the_window(monkeypatch):
    """The chain above at max_rank 12: its knapsack kept 1,176 partial sums
    (2,670 polynomials) for 240 window elements when it pruned by rank
    alone; capping the ``nonneg`` extra at 3 keeps 672 (1,468)."""
    builds = []
    original = PolyFamily.from_function.__func__

    def capture(cls, inst, window, fn):
        builds.append(fn)
        return original(cls, inst, window, fn)

    monkeypatch.setattr(PolyFamily, "from_function", classmethod(capture))
    inst = Chain(Chain(ZPOS, "nonneg"), "ints")
    c = SequenceSpec.from_mapping(inst, Window(12, ((0, 3), (-2, 2))), "c", {
        (1, 0, 1): 1, (1, 0, -1): 2, (1, 1, 0): -1, (2, 0, 3): 1, (2, 1, -3): -2, (3, 2, 0): 1,
    })
    F = construct_from_c(c)
    (build,) = builds  # the knapsack table is the ``sums`` its build reads
    sums = build.__closure__[build.__code__.co_freevars.index("sums")].cell_contents
    assert (len(sums), sum(map(len, sums.values()))) == (672, 1468)
    monkeypatch.undo()
    assert F.polys == oracle.construct_from_c(c).polys


@pytest.mark.parametrize("inst, window, support", [
    (ZPOS, Window(12), {1: 10**30, 2: -3}),
    (ZPOS, Window(10), {1: -(10**30), 2: 10**30, 3: -1}),
    (ZPOS, Window(12), {1: 1, 2: -(10**30), 3: 2**64 - 1, 5: 10**30}),
    (FreeRanked((("x", 1), ("y", 2))), Window(6), {(1, 0): 10**30, (0, 1): -(10**30), (1, 1): 7}),
])
def test_from_c_with_weights_of_a_hundred_bits(inst, window, support):
    """Weights of either sign near 10^30, against the per-decomposition
    sum with q-powers by partitions: the slot width comes from the bound
    on the largest coefficient, so no state may overflow it."""
    c = SequenceSpec.from_mapping(inst, window, "c", support)
    assert construct_from_c(c).polys == oracle.construct_from_c(
        c, oracle.q_power_by_partitions).polys


@given(st.lists(st.integers(-2**70, 2**70), max_size=12) | coeff_lists, st.integers(1, 9),
       st.integers(0, 24), st.sampled_from([1, 2**70]))
def test_packed_division_by_one_minus_a_power(coeffs, k, j, scale):
    """p * (1 - q^k), packed, divides back to p, which unpacks to its
    coefficients; adding q^j to the product leaves no multiple of
    1 - q^k (its value at q = 1 is 1), and the division raises."""
    p = IntPoly(coeffs)
    size = slot_size(2 * scale * (1 + max(map(abs, coeffs), default=0)))
    width = 8 * size
    packed = kronecker_pack(p.coeffs, size)
    product = packed - (packed << width * k)
    assert divide_one_minus_power(product, k, width) == packed
    assert kronecker_unpack(packed, size) == p.coeffs
    with pytest.raises(ArithmeticError):
        divide_one_minus_power(product + (1 << width * j), k, width)


# weight magnitudes at and around the 1-, 2-, 4- and 8-byte slot edges
EDGE_WEIGHTS = st.builds(lambda sign, w: sign * w, st.sampled_from([1, -1]), st.sampled_from(
    [1, 2, 127, 128, 255, 2**15 - 1, 2**15 + 1, 2**31, 2**63 - 1, 2**64 + 1, 10**30]))


@settings(max_examples=25)
@given(st.integers(1, 9), st.dictionaries(st.integers(1, 6), EDGE_WEIGHTS, min_size=1, max_size=3))
def test_from_c_at_slot_edges(max_rank, support):
    c = zpos_spec("c", {t: v for t, v in support.items() if t <= max_rank}, max_rank)
    assert construct_from_c(c).polys == oracle.construct_from_c(
        c, oracle.q_power_by_partitions).polys


# -- from-b construction ------------------------------------------------------------------


def _b_specs() -> list[tuple[str, SequenceSpec]]:
    chain = Chain(Chain(ZPOS, "nonneg"), "ints")
    chain_window = Window(8, ((0, 3), (-2, 2)))
    beads = FreeRanked((("x", 1), ("z", 0), ("y", 2)))
    beads_window = Window(6, max_total=5)
    return [
        ("zpos", zpos_spec("b", {n: (n * 7) % 11 - 5 for n in range(1, 61)}, 60)),
        ("zpos-sparse", zpos_spec("b", {1: 2, 4: -10**20, 6: 3}, 36)),
        ("chain-ints", SequenceSpec.from_mapping(chain, chain_window, "b", {
            s: i % 5 - 2 for i, s in enumerate(chain.elements(chain_window))})),
        ("free-zero-length", SequenceSpec.from_mapping(beads, beads_window, "b", {
            s: i % 7 - 3 for i, s in enumerate(beads.elements(beads_window))})),
    ]


@pytest.mark.parametrize("name, b", _b_specs(), ids=[name for name, _ in _b_specs()])
def test_from_b(name, b):
    assert construct_from_b(b).polys == oracle.construct_from_b(b).polys


def test_three_constructions_agree_on_every_gauss_row_of_a_box():
    """Every row on zpos at max_rank 6 with entries in -2..2 (5^6 rows):
    the 31 with the Gauss congruence give the same folds modulo
    q^rank - 1 whether built from a, from b or from c."""
    gauss = 0
    for row in itertools.product(range(-2, 3), repeat=6):
        a = zpos_spec("a", dict(enumerate(row, start=1)), 6)
        try:
            b = b_from_a(a)
        except NonIntegerWitness:
            continue
        gauss += 1
        folds = construct_ramanujan(a).folds
        assert construct_from_b(b).folds == folds, row
        assert construct_from_c(c_from_a(a)).folds == folds, row
    assert gauss == 31


@settings(max_examples=60)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.booleans(),
       st.integers(1, 8), st.one_of(st.none(), st.integers(1, 6)))
def test_fund_family_per_element(lengths, equal, max_rank, max_total):
    """Each entry, shared across its (rank, multiplicities) class, is the
    oracle's weighted multinomial of that element."""
    if equal:
        lengths = [lengths[0]] * len(lengths)
    beads = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
    window = Window(max_rank, max_total=max_total)
    assume(beads.elements(window))
    for alpha, p in fund_family(beads, window).polys:
        assert p == oracle.weighted_multinomial(semigroup_oracle.rank(beads, alpha), sorted(alpha))


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
    if (numer, denom) in (([1], [2, 1]), ([Fraction(1, 2), 1], [1])):
        # the integer series refuses what would give the oracle a non-integer witness
        with pytest.raises(ValueError, match="must be an integer|must start with 1 or -1"):
            TruncatedSeries.from_rational(numer, denom, 13)
        D = RationalSeries.from_rational(numer, denom, 13)
        assert _rows(oracle.riordan_rows, D, 12)[0] is NonIntegerWitness
        return
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


# -- transport ------------------------------------------------------------------------


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]), min_size=width, max_size=width),
    min_size=1, max_size=4)))
def test_fiber_directions_match_rational_elimination(rows):
    def beads(count):  # an instance with one coordinate per column or row
        return FreeRanked(tuple((f"x{i}", 1) for i in range(count)))

    m = Morphism(beads(len(rows[0])), beads(len(rows)), rows)
    assert _fiber_directions(m) == oracle.fiber_directions(rows)


extra_kinds = st.sampled_from(EXTRA_KINDS)
extra_bounds = st.tuples(st.integers(-2, 1), st.integers(1, 3))  # not empty for any kind
seeds = st.integers(0, 2**32)


def random_family(inst, window: Window, seed: int) -> PolyFamily:
    """A family whose polynomial at s is drawn from the seed and s."""
    def poly(s):
        rng = random.Random(hash((seed, s)))
        return IntPoly(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))

    return PolyFamily.from_function(inst, window, poly)


def over(kinds) -> Chain | PositiveIntegers:
    """zpos, or the chain over it with the given extras."""
    base = ZPOS
    for kind in kinds:
        base = Chain(base, kind)
    return base


@settings(max_examples=80)
@given(st.lists(st.tuples(extra_kinds, extra_bounds), max_size=2), extra_kinds, extra_kinds,
       extra_bounds, extra_bounds, st.integers(1, 3), seeds, seeds)
def test_chain_prefix_is_a_product_of_pullbacks(base, t_kind, u_kind, t_bounds, u_bounds,
                                                max_rank, f_seed, g_seed):
    kinds, shared = [k for k, _ in base], tuple(b for _, b in base)
    F = random_family(Chain(over(kinds), t_kind), Window(max_rank, shared + (t_bounds,)), f_seed)
    G = random_family(Chain(over(kinds), u_kind), Window(max_rank, shared + (u_bounds,)), g_seed)
    assert chain_product(F, G) == oracle.chain_prefix(F, G)


@settings(max_examples=80)
@given(st.lists(st.tuples(extra_kinds, extra_bounds), max_size=2), extra_kinds,
       extra_bounds, extra_bounds, st.integers(1, 3), st.integers(1, 4), seeds, seeds)
def test_chain_suffix_is_a_product_of_pullbacks(base, u_kind, t_bounds, u_bounds, max_rank,
                                                g_rank, f_seed, g_seed):
    # the middle coordinate is G's rank, so a "pos" extra; past G's
    # window both refuse
    kinds, shared = [k for k, _ in base], tuple(b for _, b in base)
    F = random_family(Chain(over(kinds), "pos"), Window(max_rank, shared + (t_bounds,)), f_seed)
    G = random_family(Chain(ZPOS, u_kind), Window(g_rank, (u_bounds,)), g_seed)
    if t_bounds[1] > g_rank:
        with pytest.raises(ValueError, match="middle bound"):
            oracle.chain_suffix(F, G)
        with pytest.raises(ValueError, match="outside the family window"):
            chain_product(F, G, through_middle=True)
    else:
        assert chain_product(F, G, through_middle=True) == oracle.chain_suffix(F, G)
