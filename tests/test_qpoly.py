"""Exact polynomial layer: q-analogues and cyclotomic residues."""

from __future__ import annotations

import cmath
import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from sievekit.qpoly import (
    IntPoly,
    ONE,
    ZERO,
    cyclotomic,
    eval_at_primitive_root,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
    q_power,
    q_sign,
    reduce_mod_qn_minus_1,
)

import qpoly_oracle
from qpoly_oracle import scale_div

small_polys = st.builds(
    IntPoly, st.lists(st.integers(-9, 9), min_size=0, max_size=6)
)


class TestIntPoly:
    def test_trims_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0,)).coeffs == ()
        assert not ZERO
        assert ONE.coeffs == (1,)

    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == ZERO
        assert a * ONE == a

    @given(small_polys, st.integers(-5, 5))
    def test_evaluation_is_ring_hom(self, p, x):
        assert (p * p)(x) == p(x) ** 2
        assert (p + ONE)(x) == p(x) + 1

    @given(small_polys, st.integers(1, 4))
    def test_subst_power(self, p, m):
        assert qpoly_oracle.subst_power(p, m)(3) == p(3**m)

    @given(small_polys, small_polys)
    def test_divmod_reconstructs(self, a, b):
        # divmod needs a unit leading coefficient
        b = b + IntPoly.monomial(1, 6)
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert len(rem.coeffs) < len(b.coeffs)

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ArithmeticError):
            IntPoly((1, 1, 1)).exact_div(IntPoly((1, 1)))

    def test_scale_div_requires_divisibility(self):
        assert scale_div((2, 4), 2) == IntPoly((1, 2))
        with pytest.raises(ArithmeticError):
            scale_div((1, 2), 2)


class TestQAnalogues:
    def test_q_int_values(self):
        assert q_int(0) == ZERO
        assert q_int(1) == ONE
        assert q_int(5).coeffs == (1, 1, 1, 1, 1)

    @given(st.integers(0, 8))
    def test_q_factorial_at_one(self, n):
        assert q_factorial(n)(1) == math.factorial(n)

    def test_q_binomial_table(self):
        assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert q_binomial(5, 1).coeffs == (1, 1, 1, 1, 1)
        # the empty choice stays 1 even for degenerate top arguments
        assert q_binomial(-1, 0) == ONE
        assert q_binomial(-3, 0) == ONE
        assert q_binomial(2, 5) == ZERO
        assert q_binomial(3, -1) == ZERO

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_q_binomial_at_one(self, n, k):
        expected = math.comb(n, k) if k <= n else 0
        if k == 0:
            expected = 1
        assert q_binomial(n, k)(1) == expected

    @given(st.integers(1, 9), st.integers(0, 9))
    def test_pascal_recurrence(self, n, k):
        k = min(k, n)
        lhs = q_binomial(n, k)
        rhs = q_binomial(n - 1, k - 1) + IntPoly.monomial(1, k) * q_binomial(n - 1, k)
        if k == 0:
            rhs = q_binomial(n - 1, 0)
        assert lhs == rhs

    def test_q_multinomial_reduces_to_binomial(self):
        assert q_multinomial([2, 3]) == q_binomial(5, 2)
        assert q_multinomial([1, 1, 1]) == q_factorial(3)
        with pytest.raises(ValueError):
            q_multinomial([2, -1])

    def test_q_sign(self):
        assert q_sign(3).coeffs == (-1,)
        assert q_sign(4) == IntPoly.monomial(1, 2)

    def test_q_power_values(self):
        assert q_power(2, 2).coeffs == (3, 1)
        assert q_power(-1, 3).coeffs == (-1,)
        assert q_power(0, 4) == ZERO
        with pytest.raises(ValueError):
            q_power(2, 0)

    @given(st.integers(-3, 3), st.integers(1, 7))
    def test_q_power_at_one(self, base, n):
        assert q_power(base, n)(1) == base**n

    @pytest.mark.parametrize("base", [600, -600, 3000, -3000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_q_power_large_base(self, base, n):
        # the size of the base must not set a recursion depth
        assert q_power(base, n)(1) == base**n

    @given(st.integers(2, 3), st.integers(1, 6))
    def test_q_power_binomial_expansion(self, base, n):
        # [m+1]-power expands against the previous base by q-binomials
        total = ZERO
        for j in range(n + 1):
            prev = ONE if (n - j == 0 or base - 1 == 1) else q_power(base - 1, n - j)
            total = total + q_binomial(n, j) * prev
        assert q_power(base, n) == total


class TestCyclotomic:
    def test_small_cyclotomics(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(2).coeffs == (1, 1)
        assert cyclotomic(4).coeffs == (1, 0, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    @given(st.integers(1, 30))
    def test_product_over_divisors(self, n):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly.monomial(1, n) - ONE

    @given(small_polys, st.integers(1, 10))
    def test_residue_matches_complex_evaluation(self, p, d):
        res = eval_at_primitive_root(p, d)
        omega = cmath.exp(2 * math.pi * 1j / d)
        direct = sum(c * omega**i for i, c in enumerate(p.coeffs))
        lifted = sum(c * omega**i for i, c in enumerate(res.coeffs))
        assert abs(direct - lifted) < 1e-6

    @given(small_polys, small_polys, st.integers(1, 10))
    def test_residue_arithmetic(self, p, q, d):
        # evaluation at a root of unity is a ring homomorphism
        def ev(f):
            return eval_at_primitive_root(f, d)

        assert ev(p + q) == ev(ev(p) + ev(q))
        assert ev(p * q) == ev(ev(p) * ev(q))

    @given(small_polys, st.integers(1, 10))
    def test_residue_is_canonical(self, p, d):
        res = eval_at_primitive_root(p, d)
        assert len(res.coeffs) < len(cyclotomic(d).coeffs)
        assert eval_at_primitive_root(res, d) == res

    def test_residue_integer_detection(self):
        res = eval_at_primitive_root(q_int(6), 3)  # [6] at a cube root is 0
        assert res.coeffs == () and res == 0
        assert eval_at_primitive_root(q_int(6), 2) == 0
        res = eval_at_primitive_root(q_binomial(4, 2), 2)  # counts 2 fixed points
        assert res == 2 and res.coeffs == (2,)
        res = eval_at_primitive_root(q_int(2), 3)  # 1 + w, not an integer
        assert len(res.coeffs) - 1 == 1 and not any(res == n for n in range(-3, 4))

    def test_residue_rejects_order_zero(self):
        with pytest.raises(ValueError):
            eval_at_primitive_root(q_int(2), 0)

    @given(small_polys, st.integers(1, 8))
    def test_reduce_mod_qn_minus_1(self, p, n):
        r = reduce_mod_qn_minus_1(p, n)
        assert len(r.coeffs) <= n
        # they agree at every n-th root of unity, so the difference is a multiple
        for d in range(1, n + 1):
            if n % d == 0:
                assert eval_at_primitive_root(p, d) == eval_at_primitive_root(r, d)
