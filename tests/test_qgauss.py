"""Polynomial families: constructions, checkers, transport along morphisms."""

from __future__ import annotations

import itertools
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import qgauss
from sievekit.gaussseq import SequenceSpec, a_from_c, b_from_a, c_from_a
from sievekit.objects import festoon_census
from sievekit.qgauss import (
    Census,
    NonIntegerCoefficient,
    PolyFamily,
    check_qgauss_definition,
    check_qgauss_roots,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    equivalent_mod,
    fund_family,
    verify_csp,
    verify_lyndon,
)
from sievekit.qpoly import (
    IntPoly,
    ONE,
    ZERO,
    eval_at_primitive_root,
    q_binomial,
    q_int,
    q_power,
    reduce_mod_qn_minus_1,
)
from sievekit.semigroup import (
    Chain,
    FreeRanked,
    PositiveIntegers,
    Window,
    _SemigroupBase,
)
from sievekit.transport import (
    Morphism,
    WindowBoundaryWarning,
    multiply,
    pullback,
    pushforward,
)

from helpers import chain_product, corrupt, qb0, sequence_corpus, zpos_spec

ZPOS = PositiveIntegers()
NK = Chain(ZPOS, "nonneg")


def both_ok(F):
    return check_qgauss_definition(F).ok and check_qgauss_roots(F).ok


def near_gauss_rows(inst, window, box):
    """Both checks on the Ramanujan family of each Gauss row whose entry at
    each window element s lies in ``box(s)``, and on every change of one of
    its coefficients below degree rank(s) by -1 or +1: they pass the same
    families and fail the others first at the same element.  Returns the
    (families, passed) counts."""
    elements = inst.elements(window)
    families = passed = 0
    for row in itertools.product(*map(box, elements)):
        a = SequenceSpec.from_mapping(inst, window, "a", dict(zip(elements, row)))
        try:
            F = construct_ramanujan(a)
        except NonIntegerCoefficient:
            continue
        table = dict(F.polys)
        nearby = [F]
        for s in elements:
            for j, step in itertools.product(range(inst._rank(s)), (-1, 1)):
                coeffs = list(F.folds[s])  # f_s has degree below rank(s)
                coeffs[j] += step
                nearby.append(PolyFamily(inst, window, tuple(
                    {**table, s: IntPoly(coeffs)}.items())))
        for G in nearby:
            rep_d, rep_r = check_qgauss_definition(G), check_qgauss_roots(G)
            assert rep_d.ok == rep_r.ok, (row, G.polys)
            if rep_d.ok:
                passed += 1
            else:
                assert rep_d.failures[0].element == rep_r.failures[0].element, (row, G.polys)
        families += len(nearby)
    return families, passed


def census_box(census):
    """``verify_csp`` on a census of objects, against the Ramanujan family of
    each Gauss row within 1 of its counts at every element, and against each
    family made from one of those by adding to the coefficients of one
    element s, below degree rank(s), a nonzero vector with entries in
    -1..1: the census passes ``verify_lyndon``, and ``verify_csp`` passes
    exactly the q-Gauss families with F(1) equal to the counts.  Each census
    made by moving one fixed count by -1 or +1 fails ``verify_lyndon``, and
    ``verify_csp`` against every q-Gauss family of the box.  Returns the
    (families, passed) counts."""
    inst, window = census.instance, census.window
    elements, counts = inst.elements(window), census.counts()
    assert verify_lyndon(census).ok
    moved = []
    for i, (s, count, fixed) in enumerate(census.rows):
        for d, step in itertools.product(fixed, (-1, 1)):
            row = (s, count, {**fixed, d: (fixed[d][0] + step, fixed[d][1])})
            moved.append(Census(inst, window, census.rows[:i] + (row,) + census.rows[i + 1:]))
    assert not any(verify_lyndon(C).ok for C in moved)
    families = passed = 0
    for row in itertools.product(*(range(counts[s] - 1, counts[s] + 2) for s in elements)):
        a = SequenceSpec.from_mapping(inst, window, "a", dict(zip(elements, row)))
        try:
            F = construct_ramanujan(a)
        except NonIntegerCoefficient:
            continue
        assert not any(verify_csp(C, F).ok for C in moved), row
        table = dict(F.polys)
        nearby = [F]
        for s in elements:
            for change in itertools.product((-1, 0, 1), repeat=inst._rank(s)):
                if any(change):
                    poly = IntPoly(map(add, F.folds[s], change))  # f_s has degree below rank(s)
                    nearby.append(PolyFamily(inst, window, tuple({**table, s: poly}.items())))
        for G in nearby:
            at_one = all(sum(G.folds[s]) == counts[s] for s in elements)
            ok = verify_csp(census, G).ok
            assert ok == (check_qgauss_roots(G).ok and at_one), (row, G.polys)
            passed += ok
        families += len(nearby)
    return families, passed


class TestConstructions:
    def test_ramanujan_of_powers_of_two(self):
        a = zpos_spec("a", {n: 2**n for n in range(1, 7)}, 6)
        F = construct_ramanujan(a)
        assert F.value(2).coeffs == (3, 1)
        assert F.value(3)(1) == 8
        assert both_ok(F)
        # canonical representative: degree below the rank already
        assert all(reduce_mod_qn_minus_1(p, n) == p for n, p in F.polys)

    def test_from_b_unit_weights(self):
        b = zpos_spec("b", {n: 1 for n in range(1, 7)}, 6)
        F = construct_from_b(b)
        # divisor sum of q-integers at 4: [4]_q + [2]_{q^2} + [1]_{q^4}
        assert F.value(4).coeffs == (3, 1, 2, 1)
        assert F.value(4)(1) == 7
        assert eval_at_primitive_root(F.value(4), 2) == 3
        assert both_ok(F)

    def test_lucas_three_constructions_agree(self):
        a = next(spec for name, spec in sequence_corpus(8) if name == "lucas")
        fams = [
            construct_ramanujan(a),
            construct_from_b(b_from_a(a)),
            construct_from_c(c_from_a(a)),
        ]
        for F in fams:
            assert both_ok(F)
            at_one = [F.value(n)(1) for n in range(1, 9)]
            assert at_one == [1, 3, 4, 7, 11, 18, 29, 47]
        for F in fams[1:]:
            assert equivalent_mod(fams[0], F).ok
            assert all(reduce_mod_qn_minus_1(p, n) == fams[0].value(n) for n, p in F.polys)

    @settings(max_examples=25)
    @given(
        st.integers(1, 30),
        # small parts make many decompositions, large ones few
        st.dictionaries(st.integers(1, 5) | st.integers(1, 30),
                        st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
    )
    def test_three_constructions_agree_on_sparse_c(self, max_rank, support):
        c = zpos_spec("c", {t: v for t, v in support.items() if t <= max_rank}, max_rank)
        a = a_from_c(c)
        fams = [construct_ramanujan(a), construct_from_b(b_from_a(a)), construct_from_c(c)]
        for F in fams:
            assert both_ok(F)
        for F in fams[1:]:
            assert equivalent_mod(fams[0], F).ok

    def test_ramanujan_rejects_non_congruent_input(self):
        a = zpos_spec("a", {n: n for n in range(1, 7)}, 6)
        with pytest.raises(NonIntegerCoefficient) as exc:
            construct_ramanujan(a)
        assert exc.value.element == 2
        assert "3/2" in str(exc.value)

    def test_empty_convolution_support_gives_zero_family(self):
        F = construct_from_c(zpos_spec("c", {}, 5))
        assert all(p == ZERO for _, p in F.polys)
        assert both_ok(F)

    def test_from_c_lists_no_decompositions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("construct_from_c listed decompositions")

        monkeypatch.setattr(_SemigroupBase, "decompositions", refuse)
        beads = FreeRanked((("x", 1), ("z", 0)))
        for c in (
            zpos_spec("c", {1: 1, 2: -2, 5: 3}, 12),
            SequenceSpec.from_mapping(Chain(ZPOS, "ints"), Window(5, ((-2, 2),)), "c",
                                      {(1, -1): 1, (1, 1): 2, (2, 0): -1}),
            SequenceSpec.from_mapping(beads, Window(5, max_total=4), "c",
                                      {(1, 0): 1, (1, 2): -1}),
        ):
            F = construct_from_c(c)
            assert any(p for _, p in F.polys)
            assert both_ok(F)

    def test_fund_family_mixed_lengths(self):
        F = fund_family((("a", 1), ("b", 2)), Window(6))
        assert F.value((1, 1)) == q_int(3)
        # [4]/[3] times [3]!/([1]![2]!) collapses to a plain q-integer
        assert F.value((2, 1)) == q_int(4)
        assert both_ok(F)

    def test_fund_family_is_q_multinomial_on_letters(self):
        F = fund_family((("a", 1), ("b", 1)), Window(6))
        for (i, j), p in F.polys:
            assert p == q_binomial(i + j, j)
        assert both_ok(F)

    def test_fund_family_builds_each_class_once(self, monkeypatch):
        """The benchmark's seed-1 ``words`` job: four letters up to rank 7
        hold 329 elements in 37 (rank, multiplicities) classes, the
        partitions of 1..7 into at most four parts, so 37 polynomials are
        built; the elements of a class share one."""
        calls = []
        original = qgauss._weighted_multinomial

        def counted(weight, mults):
            calls.append((weight, tuple(mults)))
            return original(weight, mults)

        monkeypatch.setattr(qgauss, "_weighted_multinomial", counted)
        F = fund_family((("a", 1), ("b", 1), ("e", 1), ("h", 1)), Window(7))
        assert len(F.polys) == 329
        assert len(calls) == len(set(calls)) == 37
        shared = {(sum(alpha), tuple(sorted(alpha))): p for alpha, p in F.polys}
        assert all(p is shared[sum(alpha), tuple(sorted(alpha))] for alpha, p in F.polys)


class TestCheckers:
    def test_rank_indexed_q_integers_fail(self):
        # [n]_q over the plain integers is not congruent: at n = 2 the
        # evaluation [2](omega_2) = 0 misses the root total f_1(1) = 1
        F = PolyFamily.from_function(ZPOS, Window(6), q_int)
        rep_d = check_qgauss_definition(F)
        rep_r = check_qgauss_roots(F)
        assert not rep_d.ok and not rep_r.ok
        assert rep_r.failures[0].element == 2

    def test_q_integers_pass_as_chain_slice(self):
        # the same polynomials are fine once k = 1 is part of the index:
        # no pair (n, 1) with n >= 2 has any nontrivial root
        F = PolyFamily.from_function(
            NK, Window(6, ((0, 2),)), lambda s: q_binomial(s[0], s[1])
        )
        assert both_ok(F)
        assert F.value((6, 1)) == q_int(6)
        assert eval_at_primitive_root(F.value((4, 2)), 2) == 2
        assert eval_at_primitive_root(F.value((4, 1)), 2) == 0

    def test_monomial_families(self):
        geometric = PolyFamily.from_function(
            ZPOS, Window(6), lambda n: IntPoly.monomial(1, n)
        )
        assert both_ok(geometric)
        constant_exponent = PolyFamily.from_function(
            ZPOS, Window(6), lambda n: IntPoly.monomial(1, 1)
        )
        rep = check_qgauss_definition(constant_exponent)
        assert not rep.ok and rep.failures[0].element == 2

    def test_checkers_agree_on_corruptions(self):
        a = next(spec for name, spec in sequence_corpus(8) if name == "sigma")
        F = construct_ramanujan(a)
        for s in (2, 3, 5, 8):
            bad = corrupt(F, s)
            rep_d = check_qgauss_definition(bad)
            rep_r = check_qgauss_roots(bad)
            assert not rep_d.ok and not rep_r.ok
            assert rep_d.failures
            assert any(f.element == s for f in rep_r.failures)

    def test_checkers_agree_on_every_family_near_a_gauss_row(self):
        """The Ramanujan family of each of the 31 Gauss rows on zpos at
        max_rank 6 with entries in -2..2, and every change of one of its
        coefficients below degree rank(s) by -1 or +1 (1,333 families): both
        checks pass the same families, and fail the others first at the
        same element."""
        assert near_gauss_rows(ZPOS, Window(6), lambda s: range(-2, 3)) == (1333, 31)

    def test_checkers_agree_near_every_gauss_row_of_a_chain_window(self):
        """As on zpos, on chain(zpos, nonneg) at max_rank 4 with extra
        bounds (0, 1), entries in -2..2 at rank 1 and -1..1 above: 35 Gauss
        rows, 1,435 families."""
        def box(s):
            return range(-2, 3) if s[0] == 1 else range(-1, 2)

        assert near_gauss_rows(NK, Window(4, ((0, 1),)), box) == (1435, 105)

    def test_checkers_agree_near_every_gauss_row_of_a_free_window(self):
        """As on zpos, on beads of lengths 1 and 2 at max_rank 4, entries in
        -2..2 at rank 1 and 2 and -1..1 above: 7 Gauss rows, 329 families."""
        inst = FreeRanked((("a", 1), ("b", 2)))

        def box(s):
            return range(-2, 3) if inst._rank(s) <= 2 else range(-1, 2)

        assert near_gauss_rows(inst, Window(4), box) == (329, 7)

    def test_csp_passes_exactly_the_gauss_families_of_the_counts_of_words(self):
        """The census box (``census_box``) on the words over two letters at
        max_rank 3: 25 Gauss rows, 3,325 families, 32 moved censuses."""
        words = festoon_census("words", FreeRanked((("a", 1), ("b", 1))), Window(3))
        assert census_box(words) == (3325, 1)

    @pytest.mark.parametrize("max_rank, c, expected", [
        (5, {1: 1, 2: 1}, (1795, 1)),
        (4, {1: 2, 3: 1}, (585, 1)),
    ])
    def test_csp_passes_exactly_the_gauss_families_of_the_counts_of_festoons(
            self, max_rank, c, expected):
        """The census box on festoons-colored over zpos: 5 Gauss rows each,
        1,795 and 585 families."""
        spec = SequenceSpec.from_mapping(ZPOS, Window(max_rank), "c", c)
        assert census_box(festoon_census("festoons-colored", spec)) == expected

    def test_roots_checker_needs_covered_roots(self):
        pairs = tuple((n, q_int(n)) for n in range(2, 5))
        inst_window = Window(4)
        with pytest.raises(ValueError):
            # family starts at rank 2, so the root 1 of 2 is missing
            PolyFamily(ZPOS, inst_window, pairs)

    def test_both_checkers_refuse_a_window_missing_a_root(self):
        # the root (1, 1) of (2, 2) lies below the bounds of the window
        F = PolyFamily.from_function(NK, Window(4, ((2, 3),)), lambda s: q_binomial(*s))
        message = r"family window does not cover the root \(1, 1\) of \(2, 2\)"
        for check in (check_qgauss_definition, check_qgauss_roots):
            with pytest.raises(ValueError, match=message):
                check(F)

    def test_family_must_be_total(self):
        with pytest.raises(ValueError):
            PolyFamily(ZPOS, Window(3), ((1, ONE), (2, ONE)))
        with pytest.raises(ValueError):
            PolyFamily(ZPOS, Window(2), ((1, ONE), (1, ONE), (2, ONE)))


class TestTransport:
    def test_binary_words_pushforward(self):
        # two unit letters, recorded as (length, count of second letter)
        letters = FreeRanked((("a", 1), ("b", 1)))
        F = fund_family(letters, Window(6))
        to_pairs = Morphism(letters, NK, [(1, 1), (0, 1)])
        G = pushforward(F, to_pairs, Window(6, ((0, 6),)))
        for (n, k), p in G.polys:
            assert p == qb0(n, k)
        assert both_ok(G)

    def test_rank_pushforward_collapses_to_q_power(self):
        letters = FreeRanked((("a", 1), ("b", 1)))
        F = fund_family(letters, Window(6))
        rank = Morphism(letters, ZPOS, [letters.lengths])
        G = pushforward(F, rank, Window(6))
        for n, p in G.polys:
            assert p == q_power(2, n)
        assert both_ok(G)

    def test_projection_pushforward_warns_at_edge(self):
        F = PolyFamily.from_function(
            NK, Window(5, ((0, 5),)), lambda s: q_binomial(s[0], s[1])
        )
        drop_k = Morphism(NK, ZPOS, [(1, 0)])
        with pytest.warns(WindowBoundaryWarning):
            G = pushforward(F, drop_k, Window(5))
        # row sums of the q-Pascal triangle
        for n, p in G.polys:
            assert p == q_power(2, n)

    def test_rank_jump_pushforward_warns(self):
        F = PolyFamily.from_function(ZPOS, Window(3), lambda n: ONE)
        doubler = Morphism(ZPOS, ZPOS, [(2,)])
        with pytest.warns(WindowBoundaryWarning, match="rank"):
            pushforward(F, doubler, Window(6))

    def test_pullback_requires_window_coverage(self):
        G = PolyFamily.from_function(ZPOS, Window(3), q_int)
        doubler = Morphism(ZPOS, ZPOS, [(2,)])
        with pytest.raises(ValueError):
            pullback(G, doubler, Window(2))

    def test_multiply_requires_matching_shape(self):
        F = PolyFamily.from_function(ZPOS, Window(3), q_int)
        G = PolyFamily.from_function(ZPOS, Window(4), q_int)
        with pytest.raises(ValueError):
            multiply(F, G)
        sq = multiply(F, F)
        assert sq.value(3) == q_int(3) * q_int(3)

    def test_chain_prefix_shares_base(self):
        F = PolyFamily.from_function(
            NK, Window(4, ((0, 4),)), lambda s: q_binomial(s[0], s[1])
        )
        H = chain_product(F, F)
        assert H.value((4, 1, 2)) == q_binomial(4, 1) * q_binomial(4, 2)
        assert both_ok(H)
        G = PolyFamily.from_function(
            NK, Window(3, ((0, 3),)), lambda s: q_binomial(s[0], s[1])
        )
        # the base windows differ: G has no entry at rank 4
        with pytest.raises(ValueError, match=r"pullback image \(4, 0\) of \(4, 0, 0\) is outside"):
            chain_product(F, G)

    def test_chain_suffix_through_middle(self):
        # composes by treating the middle coordinate as a rank downstairs
        F = PolyFamily.from_function(
            Chain(ZPOS, "pos"), Window(4, ((1, 4),)),
            lambda s: q_binomial(s[0], s[1]),
        )
        G = PolyFamily.from_function(
            NK, Window(4, ((0, 4),)), lambda s: q_binomial(s[0], s[1])
        )
        H = chain_product(F, G, through_middle=True)
        assert H.value((4, 2, 1)) == q_binomial(4, 2) * q_binomial(2, 1)
        assert both_ok(H)

    def test_chain_suffix_guards(self):
        F_nonneg = PolyFamily.from_function(
            NK, Window(4, ((0, 4),)), lambda s: q_binomial(s[0], s[1])
        )
        # a middle coordinate 0 is no rank
        with pytest.raises(ValueError, match=r"apply_morphism: image \(0, 0\) of \(1, 0, 0\) "
                                             "is not a valid element"):
            chain_product(F_nonneg, F_nonneg, through_middle=True)
        F = PolyFamily.from_function(
            Chain(ZPOS, "pos"), Window(4, ((1, 6),)),
            lambda s: q_binomial(s[0], s[1]),
        )
        G = PolyFamily.from_function(
            NK, Window(4, ((0, 4),)), lambda s: q_binomial(s[0], s[1])
        )
        # a middle bound past G's window
        with pytest.raises(ValueError, match=r"pullback image \(5, 0\) of \(1, 5, 0\) is outside"):
            chain_product(F, G, through_middle=True)


def exp2(m: int) -> IntPoly:
    # q-analogue of 2^m with the empty product at m = 0
    return ONE if m == 0 else q_power(2, m)


INTS2 = Chain(Chain(ZPOS, "ints"), "ints")


def g_free(e) -> IntPoly:
    """Counts on (total, chosen, colored): two binomials and a 2-power.

    Uses the library binomial so the degenerate top with zero chosen
    keeps its empty-product value; that is what feeds the diagonal.
    """
    n, k, m = e
    if m < 0:
        return ZERO
    return q_binomial(n, k) * q_binomial(k + m - 1, m) * exp2(m)


class TestFreeVertexPipeline:
    """Derive the free-vertex sieving polynomials by transport.

    The closed form lives in tubings; here the same family is produced
    from a chained q-binomial family by a pullback and a fiber sum, and
    the two must agree entry by entry.
    """

    N = 5

    def build(self):
        N = self.N
        G = PolyFamily.from_function(
            INTS2, Window(N, ((-2 * N - 2, N + 3), (-1, N + 1))), g_free
        )
        reindex = Morphism(
            INTS2, INTS2, [(1, 0, 0), (1, -1, -1), (0, 0, 1)]
        )
        pulled = pullback(G, reindex, Window(N, ((-1, N + 1), (-1, N + 1))))
        drop_m = Morphism(INTS2, Chain(ZPOS, "ints"), [(1, 0, 0), (0, 1, 0)])
        return pushforward(pulled, drop_m, Window(N, ((-1, N + 1),)))

    def test_source_family_is_congruent(self):
        G = PolyFamily.from_function(INTS2, Window(4, ((-5, 5), (-1, 5))), g_free)
        assert both_ok(G)

    def test_pipeline_reproduces_closed_form(self):
        from sievekit.tubings import free_vertex_polynomial

        F = self.build()
        assert F.value((4, 1)).coeffs == (6, 9, 11, 11, 5, 2)
        assert F.value((4, 1))(1) == 44
        for n in range(1, self.N + 1):
            for k in range(1, n + 1):
                assert F.value((n, k)) == free_vertex_polynomial(n, k), (n, k)
        assert both_ok(F)

    def test_diagonal_survives_transport(self):
        # the k = n entry comes from the empty-choice boundary binomial
        F = self.build()
        for n in range(1, self.N + 1):
            assert F.value((n, n)) == ONE


class TestTubeCountTransport:
    def test_intermediate_family_is_not_congruent(self):
        # the unrestricted three-coordinate product fails the root test;
        # only its image under the reindexing below is a congruence
        def g(e):
            n, m, k = e
            return qb0(n + m - 1, m) * qb0(m + k - 1, m)

        G = PolyFamily.from_function(INTS2, Window(4, ((-2, 6), (-2, 6))), g)
        rep = check_qgauss_roots(G)
        assert not rep.ok
        assert any(f.element == (2, 0, 1) and f.divisor == 2 for f in rep.failures)

    def test_pullback_is_congruent(self):
        def g(e):
            n, m, k = e
            return qb0(n + m - 1, m) * qb0(m + k - 1, m)

        N = 5
        G = PolyFamily.from_function(
            INTS2, Window(N, ((-1, N + 1), (-N - 1, N + 1))), g
        )
        src = NK
        reindex = Morphism(src, INTS2, [(1, 0), (0, 1), (1, -1)])
        F = pullback(G, reindex, Window(N, ((0, N),)))
        for (n, k), p in F.polys:
            assert p == qb0(n + k - 1, k) * qb0(n - 1, k)
        assert both_ok(F)

    def test_totals_are_central_delannoy(self):
        N = 6
        F = PolyFamily.from_function(
            NK,
            Window(N, ((0, N),)),
            lambda s: qb0(s[0] + s[1] - 1, s[1]) * qb0(s[0] - 1, s[1]),
        )
        totals = [
            sum(F.value((n, k))(1) for k in range(N + 1))
            for n in range(1, N + 1)
        ]
        assert totals == [1, 3, 13, 63, 321, 1683]

    def test_colored_variant(self):
        # an extra q-power of the tube count stays congruent
        N = 6
        F = PolyFamily.from_function(
            NK,
            Window(N, ((0, N),)),
            lambda s: qb0(s[0] + s[1] - 1, s[1])
            * qb0(s[0] - 1, s[1])
            * exp2(s[1]),
        )
        assert both_ok(F)
        totals = [
            sum(F.value((n, k))(1) for k in range(N + 1))
            for n in range(1, N + 1)
        ]
        assert totals == [1, 5, 37, 305, 2641, 23525]


class TestTrinomialChain:
    def test_bounded_alphabet_compositions(self):
        # chain two q-binomial families, reindex, then sum out the third
        # coordinate; gives the congruence behind {-1, 0, 1} compositions
        N = 6
        F = PolyFamily.from_function(
            Chain(ZPOS, "pos"), Window(N, ((1, N),)),
            lambda s: q_binomial(s[0], s[1]),
        )
        G = PolyFamily.from_function(
            NK, Window(N, ((0, N),)), lambda s: q_binomial(s[0], s[1])
        )
        H = chain_product(F, G, through_middle=True)
        assert both_ok(H)
