"""Cyclic object families: words, festoons, sieving checks, and the major
index and barrier festoons of ``objects_oracle``."""

from __future__ import annotations

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sievekit.gaussseq import SequenceSpec, b_from_a, c_from_a
from sievekit.objects import (
    CyclicFamily,
    CyclicObject,
    festoon_census,
    festoons_by_content,
    festoons_colored,
    festoons_repeated,
    fixed_points,
    predicted_count,
    signed_festoons,
    words_with_content,
)
from sievekit.qgauss import (PolyFamily, construct_from_b, construct_from_c, fund_family,
                             verify_csp, verify_lyndon, verify_signed_csp)
from sievekit.qpoly import ZERO, q_binomial, q_multinomial, reduce_mod_qn_minus_1
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window

from helpers import lucas_numbers, partition_numbers, qb0, sigma, zpos_spec
from objects_oracle import barrier_festoons, compositions, maj, maj_polynomial, orbit_census

ZPOS = PositiveIntegers()

SRC = Path(__file__).resolve().parents[1] / "src"

# Builds one festoon family and prints how many object comparisons it took.
COUNT_COMPARISONS = """
from sievekit.objects import CyclicFamily, CyclicObject, festoons_by_content
from sievekit.semigroup import FreeRanked, Window

calls = 0
less = CyclicObject.__lt__


def counting_less(a, b):
    global calls
    calls += 1
    return less(a, b)


CyclicObject.__lt__ = counting_less
beads = FreeRanked((("x", 1), ("y", 2), ("z", 3)))
CyclicFamily.from_generator(beads, Window(7), lambda a: festoons_by_content(beads, a))
print(calls)
"""


def congruent(p, q, n: int) -> bool:
    return reduce_mod_qn_minus_1(p - q, n) == ZERO


class TestWords:
    def test_two_letter_content(self):
        ws = words_with_content({"a": 1, "b": 1})
        assert len(ws) == 2
        assert maj_polynomial(ws).coeffs == (1, 1)

    def test_three_letter_content(self):
        ws = words_with_content({"a": 2, "b": 1})
        assert [w.slots for w in ws] == [
            ("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")
        ]
        assert maj_polynomial(ws).coeffs == (1, 1, 1)

    def test_maj_values(self):
        assert maj("ba") == 1
        assert maj("aba") == 2
        assert maj((2, 1, 2, 1)) == 4
        assert maj("a") == 0

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
            lambda m: 0 < sum(m) <= 6
        )
    )
    def test_content_generating_polynomial(self, mults):
        # distributing positions among equal letters, one letter at a time
        alpha = [(chr(ord("a") + i), m) for i, m in enumerate(mults)]
        ws = words_with_content(alpha)
        assert maj_polynomial(ws) == q_multinomial([m for m in mults if m])

    def test_rejects_empty_content(self):
        with pytest.raises(ValueError):
            words_with_content({"a": 0})
        with pytest.raises(ValueError):
            words_with_content({"a": -1})

    def test_content_family_sieves(self):
        letters = FreeRanked((("a", 1), ("b", 1)))
        window = Window(5)
        fam = CyclicFamily.from_generator(
            letters, window, lambda alpha: words_with_content(zip("ab", alpha))
        )
        assert verify_lyndon(fam.census()).ok
        assert verify_csp(fam.census(), fund_family(letters, window)).ok

    def test_words_refuse_a_bead_longer_than_one(self):
        # a length-2 bead makes festoons, not words: neither the count
        # nor the census may take it as a letter
        beads = FreeRanked((("a", 2), ("b", 1)))
        for count in (predicted_count, festoon_census):
            with pytest.raises(ValueError, match="words need every bead length equal to 1"):
                count("words", beads, Window(4))


class TestCompositions:
    def test_nonnegative_alphabet(self):
        for n in range(1, 6):
            for k in range(0, 6):
                objs = compositions(n, k, range(k + 1))
                assert len(objs) == comb(n + k - 1, k)
                assert congruent(maj_polynomial(objs), qb0(n + k - 1, k), n)

    def test_positive_alphabet(self):
        for n in range(1, 6):
            for k in range(n, 9):
                objs = compositions(n, k, range(1, k - n + 2))
                assert len(objs) == comb(k - 1, n - 1)
                assert congruent(maj_polynomial(objs), qb0(k - 1, k - n), n)

    def test_bounded_alphabet(self):
        for n in range(1, 6):
            for k in range(-n, n + 1):
                objs = compositions(n, k, (-1, 0, 1))
                total = ZERO
                for i in range(0, (n - k) // 2 + 1):
                    total = total + q_binomial(n, i) * q_binomial(n - i, k + i)
                assert congruent(maj_polynomial(objs), total, n), (n, k)

    def test_guards(self):
        with pytest.raises(ValueError):
            compositions(0, 3, range(4))
        assert compositions(2, 3, ()) == []


class TestFestoonsByContent:
    def test_mixed_lengths(self):
        objs = festoons_by_content((("x", 1), ("y", 2)), (2, 1))
        assert len(objs) == 4
        assert orbit_census(objs) == {4: 1}

    def test_unit_lengths_match_words(self):
        objs = festoons_by_content((("a", 1), ("b", 1)), (2, 2))
        assert len(objs) == 6

    def test_binary_cycle_census(self):
        letters = FreeRanked((("a", 1), ("b", 1)))
        objs = []
        for alpha in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)):
            objs.extend(festoons_by_content(letters, alpha))
        assert len(objs) == 16
        assert len(fixed_points(objs, 1)) == 16
        assert len(fixed_points(objs, 2)) == 4
        assert len(fixed_points(objs, 4)) == 2
        assert orbit_census(objs) == {1: 2, 2: 1, 4: 3}
        with pytest.raises(ValueError):
            fixed_points(objs, 3)

    def test_content_family_sieves(self):
        beads = FreeRanked((("x", 1), ("y", 2)))
        window = Window(6)
        fam = CyclicFamily.from_generator(
            beads, window, lambda alpha: festoons_by_content(beads, alpha)
        )
        assert verify_lyndon(fam.census()).ok
        assert verify_csp(fam.census(), fund_family(beads, window)).ok

    def test_zero_length_beads_rejected(self):
        with pytest.raises(ValueError):
            festoons_by_content((("e", 0), ("x", 1)), (1, 1))


class TestFestoonsColored:
    def lucas_c(self, max_rank=6):
        return zpos_spec("c", {1: 1, 2: 1}, max_rank)

    def test_lucas_counts(self):
        c = self.lucas_c()
        counts = [len(festoons_colored(c, n)) for n in range(1, 7)]
        assert counts == [1, 3, 4, 7, 11, 18]

    def test_two_color_unit_beads(self):
        c = zpos_spec("c", {1: 2}, 4)
        assert [len(festoons_colored(c, n)) for n in range(1, 5)] == [2, 4, 8, 16]

    def test_empty_support(self):
        c = zpos_spec("c", {}, 3)
        assert festoons_colored(c, 3) == []

    def test_orbit_sizes_refine_by_unit_divisors(self):
        # orbits of size t appear b_t times, for every unit divisor t
        c = self.lucas_c()
        a = zpos_spec("a", dict(enumerate(lucas_numbers(6), start=1)), 6)
        b = b_from_a(a)
        assert orbit_census(festoons_colored(c, 6)) == {
            t: b.value(t) for t in (1, 2, 3, 6)
        }

    def test_family_sieves(self):
        c = zpos_spec("c", {2: 3, 3: 2}, 8)
        window = Window(8)
        counts = [len(festoons_colored(c, n)) for n in range(1, 9)]
        assert counts == [2**n + 2 * (-1) ** n for n in range(1, 9)]
        fam = CyclicFamily.from_generator(ZPOS, window, lambda n: festoons_colored(c, n))
        assert verify_lyndon(fam.census()).ok
        assert verify_csp(fam.census(), construct_from_c(c)).ok

    def test_negative_weight_rejected(self):
        c = zpos_spec("c", {1: -1}, 3)
        with pytest.raises(ValueError, match="signed"):
            festoons_colored(c, 2)


class TestFestoonsRepeated:
    def test_unit_weights_give_divisor_sums(self):
        b = zpos_spec("b", {n: 1 for n in range(1, 7)}, 6)
        counts = [len(festoons_repeated(b, n)) for n in range(1, 7)]
        assert counts == [sigma(n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]

    def test_sparse_support(self):
        b = zpos_spec("b", {1: 1}, 5)
        assert all(len(festoons_repeated(b, n)) == 1 for n in range(1, 6))

    def test_family_sieves(self):
        b = zpos_spec("b", {n: 1 for n in range(1, 9)}, 8)
        fam = CyclicFamily.from_generator(
            ZPOS, Window(8), lambda n: festoons_repeated(b, n)
        )
        assert verify_lyndon(fam.census()).ok
        assert verify_csp(fam.census(), construct_from_b(b)).ok


class TestSignedFestoons:
    def negative_partition_c(self, max_rank: int) -> SequenceSpec:
        p = partition_numbers(max_rank)
        return zpos_spec(
            "c", {n: -p[n - 1] for n in range(1, max_rank + 1)}, max_rank
        )

    def test_split_counts(self):
        c = self.negative_partition_c(6)
        splits = [tuple(map(len, signed_festoons(c, n))) for n in range(1, 7)]
        assert splits == [(0, 1), (1, 4), (6, 10), (21, 28), (65, 71), (184, 196)]

    def test_net_counts_divisor_sums(self):
        c = self.negative_partition_c(8)
        for n in range(1, 9):
            pos, neg = signed_festoons(c, n)
            assert len(pos) - len(neg) == -sigma(n)

    def test_signed_sieving(self):
        c = self.negative_partition_c(7)
        window = Window(7)
        fam = CyclicFamily.from_generator(
            ZPOS, window,
            lambda n: [o for part in signed_festoons(c, n) for o in part],
        )
        assert verify_signed_csp(fam.census(), construct_from_c(c)).ok


class TestBarrierFestoons:
    def test_totals(self):
        assert [len(barrier_festoons(n)) for n in range(1, 8)] == [
            1, 5, 16, 49, 136, 380, 1030
        ]

    def test_net_is_negated_divisor_sum(self):
        for n in range(1, 8):
            objs = barrier_festoons(n)
            net = sum(o.sign for o in objs)
            assert net == -sigma(n)

    def test_bare_drawings_cancel(self):
        for n in range(1, 8):
            bare = len(barrier_festoons(n, allow_bare=True)) - len(
                barrier_festoons(n)
            )
            assert bare == sigma(n)
            net = sum(o.sign for o in barrier_festoons(n, allow_bare=True))
            assert net == 0

    def test_bare_family_sieves_to_zero(self):
        window = Window(7)
        fam = CyclicFamily.from_generator(
            ZPOS, window, lambda n: barrier_festoons(n, allow_bare=True)
        )
        zero = PolyFamily.from_function(ZPOS, window, lambda n: ZERO)
        assert verify_signed_csp(fam.census(), zero).ok

    def test_guards(self):
        with pytest.raises(ValueError):
            barrier_festoons(0)


class TestBeadCountRefinement:
    """Festoons graded by their number of beads, on a two-coordinate index."""

    @staticmethod
    def refined(c_values: dict, max_rank: int):
        inst = Chain(ZPOS, "pos")
        window = Window(max_rank, ((1, max_rank),))
        mapping = {(l, 1): v for l, v in c_values.items()}
        return SequenceSpec.from_mapping(inst, window, "c", mapping), window

    def test_aerated_catalan_census(self):
        c, _ = self.refined({1: 1, 3: 1, 5: 2}, 6)
        objs = festoons_colored(c, (6, 2))
        assert len(objs) == 15
        assert orbit_census(objs) == {3: 1, 6: 2}

    def test_aerated_catalan_family_sieves(self):
        c, window = self.refined({1: 1, 3: 1, 5: 2}, 6)
        fam = CyclicFamily.from_generator(
            c.instance, window, lambda s: festoons_colored(c, s)
        )

        def poly(s):
            n, k = s
            return qb0(n, (n - k) // 2) if (n - k) % 2 == 0 else ZERO

        F = PolyFamily.from_function(c.instance, window, poly)
        assert verify_lyndon(fam.census()).ok
        assert verify_csp(fam.census(), F).ok


class TestFamilyValidation:
    def test_generator_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            CyclicFamily.from_generator(
                ZPOS, Window(3), lambda n: [CyclicObject("word", ("a",) * (n + 1))]
            )

    def test_rotation_closure_enforced(self):
        def lopsided(n):
            if n < 2:
                return [CyclicObject("word", ("a",) * n)]
            return [CyclicObject("word", ("a",) * (n - 1) + ("b",))]

        with pytest.raises(ValueError, match="rotation"):
            CyclicFamily.from_generator(ZPOS, Window(3), lopsided)

    def test_count_spec_roundtrip(self):
        c = zpos_spec("c", {1: 1, 2: 1}, 5)
        fam = CyclicFamily.from_generator(
            ZPOS, Window(5), lambda n: festoons_colored(c, n)
        )
        spec = SequenceSpec.from_mapping(fam.instance, fam.window, "a", fam.census().counts())
        assert spec.role == "a"
        assert c_from_a(spec).as_dict() == c.as_dict() | {3: 0, 4: 0, 5: 0}

    def test_verify_csp_flags_wrong_polynomials(self):
        c = zpos_spec("c", {1: 1, 2: 1}, 4)
        fam = CyclicFamily.from_generator(
            ZPOS, Window(4), lambda n: festoons_colored(c, n)
        )
        shifted = PolyFamily.from_function(
            ZPOS, Window(4), lambda n: construct_from_c(c).value(n) + q_binomial(1, 0)
        )
        rep = verify_csp(fam.census(), shifted)
        assert not rep.ok
        assert rep.failures[0].element == 1

    def test_verify_csp_window_mismatch(self):
        c = zpos_spec("c", {1: 1}, 3)
        fam = CyclicFamily.from_generator(
            ZPOS, Window(3), lambda n: festoons_colored(c, n)
        )
        with pytest.raises(ValueError):
            verify_csp(fam.census(), construct_from_c(zpos_spec("c", {1: 1}, 4)))

    def test_comparisons_do_not_depend_on_the_hash_seed(self):
        def comparisons(seed: str) -> int:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            res = subprocess.run(
                [sys.executable, "-c", COUNT_COMPARISONS],
                env=env, capture_output=True, text=True, check=True,
            )
            return int(res.stdout)

        counts = {comparisons(seed) for seed in ("1", "2", "3")}
        assert len(counts) == 1 and counts.pop() > 0
