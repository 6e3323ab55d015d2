"""Sequence roles, sieve checking, series utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sievekit.arith import totient
from sievekit.gaussseq import (
    NonIntegerWitness,
    NoSolution,
    SequenceSpec,
    TruncatedSeries,
    a_from_b,
    a_from_c,
    a_from_matrix_trace,
    b_from_a,
    b_from_c_series,
    c_from_a,
    c_from_b_series,
    check_gauss,
    product_side,
    riordan_count,
    sequence_from_config,
    solve_functional_equation,
)
from sievekit.semigroup import Chain, PositiveIntegers, Window

from helpers import (
    lucas_numbers,
    ordered_decomposition_count,
    repeated_bead_count,
    sequence_corpus,
    sigma,
    zpos_spec,
)

ZPOS = PositiveIntegers()


def nonzero(spec):
    return {s: v for s, v in spec.values if v}

small_supports = st.dictionaries(
    st.integers(1, 8), st.integers(-4, 4), min_size=0, max_size=6
)


class TestRoleTransforms:
    def test_lucas_three_ways(self):
        c = zpos_spec("c", {1: 1, 2: 1}, 8)
        a = a_from_c(c)
        assert a.row() == [1, 3, 4, 7, 11, 18, 29, 47]
        b = b_from_a(a)
        assert b.row() == [1, 1, 1, 1, 2, 2, 4, 5]
        assert c_from_a(a).row() == c.row()
        assert a_from_b(b).row() == a.row()

    @given(small_supports)
    def test_b_roundtrip(self, support):
        b = zpos_spec("b", support, 10)
        back = b_from_a(a_from_b(b))
        assert nonzero(back) == {n: v for n, v in support.items() if v}

    @given(small_supports)
    def test_c_roundtrip(self, support):
        c = zpos_spec("c", support, 10)
        back = c_from_a(a_from_c(c))
        assert nonzero(back) == {n: v for n, v in support.items() if v}

    @given(small_supports)
    def test_a_from_c_matches_ordered_decompositions(self, support):
        a = a_from_c(zpos_spec("c", support, 9))
        for n in range(1, 10):
            assert a.value(n) == ordered_decomposition_count(support, n)

    @given(small_supports)
    def test_a_from_b_is_weighted_divisor_sum(self, support):
        a = a_from_b(zpos_spec("b", support, 9))
        for n in range(1, 10):
            assert a.value(n) == repeated_bead_count(support, n)

    def test_corpus_roundtrips(self):
        # every corpus member passes through both parametrisations exactly
        for name, a in sequence_corpus(12):
            b, c = b_from_a(a), c_from_a(a)
            assert a_from_b(b).row() == a.row(), name
            assert a_from_c(c).row() == a.row(), name

    def test_non_gauss_sequence_names_first_witness(self):
        a = zpos_spec("a", {n: n for n in range(1, 7)}, 6)
        with pytest.raises(NonIntegerWitness) as exc:
            b_from_a(a)
        assert exc.value.element == 2
        assert exc.value.numerator == 1 and exc.value.modulus == 2
        with pytest.raises(NonIntegerWitness) as exc:
            c_from_a(a)
        assert exc.value.element == 2

    def test_role_guards(self):
        a = zpos_spec("a", {1: 1, 2: 1}, 2)
        with pytest.raises(ValueError):
            a_from_b(a)
        with pytest.raises(ValueError):
            a_from_c(a)
        b = zpos_spec("b", {1: 1}, 2)
        with pytest.raises(ValueError):
            b_from_a(b)

    def test_chain_transforms(self):
        # one bead of each type: rank-weighted divisor sums on pairs
        inst = Chain(ZPOS, "nonneg")
        win = Window(4, ((0, 4),))
        b = SequenceSpec.from_mapping(inst, win, "b", {(1, 0): 1, (1, 1): 1})
        a = a_from_b(b)
        assert a.value((2, 2)) == 1  # only (1,1) scaled by 2
        assert a.value((2, 0)) == 1
        assert a.value((2, 1)) == 0  # no unit divisor hits (2,1) but the trivial one
        assert nonzero(b_from_a(a)) == {(1, 0): 1, (1, 1): 1}


class TestCheckGauss:
    def test_corpus_passes(self):
        for name, a in sequence_corpus(12):
            rep = check_gauss(a)
            assert rep.ok and rep.checked == 12, name

    def test_failure_carries_witness(self):
        a = zpos_spec("a", {n: n for n in range(1, 7)}, 6)
        rep = check_gauss(a)
        assert not rep.ok
        assert rep.witness() == 2
        assert rep.failures[0] == (2, 1)  # residue 1 mod 2

    def test_totient_weight_agrees(self):
        for name, a in sequence_corpus(10):
            assert check_gauss(a, phi=totient).ok, name
        bad = zpos_spec("a", {n: n for n in range(1, 7)}, 6)
        assert not check_gauss(bad, phi=totient).ok

    def test_rejects_bad_weights(self):
        a = zpos_spec("a", {1: 1, 2: 1}, 2)
        with pytest.raises(ValueError):
            check_gauss(a, phi=lambda d: 2)
        with pytest.raises(ValueError):
            check_gauss(a, phi=lambda d: 1 if d == 1 else 0)

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matrix_traces_always_pass(self, rows):
        a = a_from_matrix_trace(rows, Window(10))
        assert check_gauss(a).ok

    def test_sigma_values(self):
        a = next(a for name, a in sequence_corpus(10) if name == "sigma")
        assert a.row() == [sigma(n) for n in range(1, 11)]
        # b-side of sigma is all ones
        assert b_from_a(a).row() == [1] * 10


class TestSeries:
    def test_rational_expansion(self):
        D = TruncatedSeries.from_rational([1, -1], [1, -2], 8)
        assert [int(D.coeff(i)) for i in range(8)] == [1, 1, 2, 4, 8, 16, 32, 64]

    def test_inverse_multiplies_to_one(self):
        D = TruncatedSeries.from_coeffs([1, 3, -2, 5], 8)
        prod = D * D.inverse()
        assert [int(prod.coeff(i)) for i in range(8)] == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_product_identity_for_unit_b(self):
        # all-ones b gives the partition generating function
        b = zpos_spec("b", {n: 1 for n in range(1, 11)}, 10)
        series = product_side(b, 11).inverse()
        assert [int(series.coeff(n)) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]

    def test_c_from_b_series_pentagonal(self):
        b = zpos_spec("b", {n: 1 for n in range(1, 11)}, 10)
        c = c_from_b_series(b, 11)
        assert nonzero(c) == {1: 1, 2: 1, 5: -1, 7: -1}

    def test_b_from_c_series_inverts(self):
        c = zpos_spec("c", {1: 1, 2: 1, 5: -1, 7: -1}, 10)
        b = b_from_c_series(c, 11)
        assert b.row() == [1] * 10

    def test_solver_reproduces_known_counts(self):
        cat = solve_functional_equation(TruncatedSeries.from_rational([1], [1, -1], 8), 8)
        assert [int(cat.coeff(n)) for n in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]
        aerated = solve_functional_equation(TruncatedSeries.from_coeffs([1, 0, 1], 9), 9)
        assert [int(aerated.coeff(n)) for n in range(1, 9)] == [1, 0, 1, 0, 2, 0, 5, 0]
        schroeder = solve_functional_equation(
            TruncatedSeries.from_rational([1, -1], [1, -2], 8), 8
        )
        assert [int(schroeder.coeff(n)) for n in range(1, 8)] == [1, 1, 3, 11, 45, 197, 903]

    def test_solver_rejects_poles(self):
        # 1/x is no power series, so the solver can never be handed one
        with pytest.raises(ValueError, match="nonzero constant term"):
            TruncatedSeries.from_rational([1], [0, 1], 4)
        with pytest.raises(NoSolution, match="no known constant term"):
            solve_functional_equation(TruncatedSeries.from_coeffs([1], 0), 4)
        with pytest.raises(NoSolution, match="truncated at order 2"):
            solve_functional_equation(TruncatedSeries.from_coeffs([1, 1], 2), 5)

    def test_riordan_count_closed_form(self):
        from math import comb

        D = TruncatedSeries.from_rational([1], [1, -1], 24)
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert riordan_count(D, n, k) == comb(2 * n - k - 1, n - k)

    def test_riordan_count_out_of_range(self):
        D = TruncatedSeries.from_coeffs([1, 1], 12)
        assert riordan_count(D, 3, 7) == 0  # negative extraction order
        with pytest.raises(ValueError):
            riordan_count(D, 0, 1)


class TestConfig:
    def test_sequence_from_config(self):
        spec = sequence_from_config(
            {
                "instance": {"kind": "zpos", "window": {"max_rank": 6}},
                "role": "c",
                "support": [[1, 1], [2, 1]],
            }
        )
        assert spec.role == "c"
        assert spec.value(2) == 1 and spec.value(3) == 0

    def test_config_rejects_unknowns_and_missing(self):
        with pytest.raises(ValueError):
            sequence_from_config({"role": "c", "support": []})
        with pytest.raises(ValueError):
            sequence_from_config(
                {"instance": {"kind": "zpos", "window": {"max_rank": 2}},
                 "role": "c", "support": [], "extra": 1}
            )

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            zpos_spec("c", {}, 4).__class__(
                ZPOS, Window(4), "c", ((1, 1), (1, 2))
            )
