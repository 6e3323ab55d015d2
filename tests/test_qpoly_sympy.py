"""Cyclotomic polynomials and q-binomials checked against SymPy.

SymPy is a test-only cross-check: the library itself has no runtime
dependencies, so these tests are skipped where SymPy is not installed.
"""

from __future__ import annotations

import pytest

from sievekit.qpoly import cyclotomic, q_binomial

sp = pytest.importorskip("sympy")

q = sp.Symbol("q")


def ascending(expr) -> tuple[int, ...]:
    """Integer coefficients of a polynomial in q, lowest degree first."""
    return tuple(int(c) for c in reversed(sp.Poly(expr, q).all_coeffs()))


def test_cyclotomic_matches_sympy():
    for d in range(1, 151):
        assert cyclotomic(d).coeffs == ascending(sp.cyclotomic_poly(d, q)), d


def test_q_binomial_matches_sympy_product_formula():
    # [n choose k]_q = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i), expanded
    one = sp.Poly(1, q)
    for n in range(21):
        for k in range(n + 1):
            num, den = one, one
            for i in range(1, k + 1):
                num *= sp.Poly(1 - q ** (n - k + i), q)
                den *= sp.Poly(1 - q**i, q)
            assert q_binomial(n, k).coeffs == ascending(num.exquo(den).as_expr()), (n, k)
