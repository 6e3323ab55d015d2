"""Instances, windows, division structure, morphisms, config decoding."""

from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, strategies as st

import semigroup_oracle
from sievekit.semigroup import (
    Chain,
    FreeRanked,
    PositiveIntegers,
    Window,
    decode_element,
    encode_element,
    instance_from_config,
    window_from_config,
)
from sievekit.transport import Morphism, apply_morphism, check_morphism

ZPOS = PositiveIntegers()
TWO_LETTERS = FreeRanked((("a", 1), ("b", 1)))
MIXED = FreeRanked((("x", 1), ("y", 2)))


class TestWindow:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Window(0)
        with pytest.raises(ValueError):
            Window(5, ((3, 1),))
        with pytest.raises(ValueError):
            Window(5, max_total=0)

    def test_bare_pair_broadcasts(self):
        assert Window(5, (0, 4)).extra_bounds == ((0, 4),)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((2.5,), {}),
            ((True,), {}),
            (("3",), {}),
            ((3, ((0, 1.5),)), {}),
            ((3, ((False, 2),)), {}),
            ((3,), {"max_total": 2.0}),
        ],
    )
    def test_refuses_non_integers(self, args, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            Window(*args, **kwargs)

    def test_window_extra_bounds_shapes(self):
        assert Window(4, (0, 2)).extra_bounds == ((0, 2),)
        assert Window(4, [[0, 2], [1, 3]]).extra_bounds == ((0, 2), (1, 3))
        for bad in ({"a": 1}, "03", [[0, 1, 2]], [0], [[0, 1.5]], [[True, 2]]):
            with pytest.raises(ValueError):
                window_from_config({"max_rank": 4, "extra_bounds": bad})


class TestPositiveIntegers:
    @given(st.integers(1, 60))
    def test_unit_divisors_are_divisor_pairs(self, n):
        pairs = ZPOS.unit_divisors(n)
        assert pairs == [(n // d, d) for d in range(1, n + 1) if n % d == 0]

    def test_roots(self):
        roots = {d: t for t, d in ZPOS.unit_divisors(12)}
        assert roots[3] == 4
        assert 5 not in roots

    def test_decompositions_are_partitions(self):
        # multisets summing to 4
        assert ZPOS.decompositions(4, support=range(1, 5)) == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (1, 3),
            (2, 2),
            (4,),
        ]
        assert ZPOS.decompositions(4, support=[1, 2]) == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (2, 2),
        ]

    def test_decompositions_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 50
        assert ZPOS.decompositions(n, support=[1]) == [(1,) * n]

    def test_validate(self):
        with pytest.raises(ValueError):
            ZPOS.validate(0)
        with pytest.raises(ValueError):
            ZPOS.validate(True)


class TestChain:
    def test_extras_flatten(self):
        inner = Chain(ZPOS, "ints")
        outer = Chain(inner, "nonneg")
        assert outer.extras == ("ints", "nonneg")
        assert len(outer.row) == 3
        outer.validate((3, -5, 0))
        with pytest.raises(ValueError):
            outer.validate((3, 0, -1))

    def test_rank_is_first_coordinate(self):
        inst = Chain(ZPOS, "ints")
        assert inst.sort_key((4, -7)) == (4, 4, -7)

    def test_elements_respect_bounds(self):
        inst = Chain(ZPOS, "ints")
        win = Window(2, ((-1, 1),))
        assert inst.elements(win) == [
            (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1),
        ]
        with pytest.raises(ValueError):
            inst.elements(Window(2))  # ints extra needs explicit bounds

    @pytest.mark.parametrize("inst, window", [
        (Chain(ZPOS, "nonneg"), Window(6, ((0, 4),))),
        (Chain(Chain(ZPOS, "pos"), "ints"), Window(5, ((-3, 3), (-2, 4)))),
    ])
    def test_elements_come_out_in_sort_key_order(self, inst, window):
        elems = inst.elements(window)
        assert elems == sorted(elems, key=inst.sort_key)

    def test_nonneg_floor_applies(self):
        inst = Chain(ZPOS, "pos")
        win = Window(2, ((-5, 2),))
        assert all(k >= 1 for _, k in inst.elements(win))

    def test_unit_divisors_divide_both_coordinates(self):
        inst = Chain(ZPOS, "nonneg")
        assert inst.unit_divisors((6, 4)) == [((6, 4), 1), ((3, 2), 2)]
        assert inst.unit_divisors((6, 3)) == [((6, 3), 1), ((2, 1), 3)]

    def test_decompositions_need_support_with_ints(self):
        inst = Chain(ZPOS, "ints")
        with pytest.raises(TypeError):
            inst.decompositions((3, 0))  # the support is required
        parts = inst.decompositions((3, 0), support=[(1, -1), (1, 0), (1, 1), (2, 1)])
        assert ((1, -1), (1, 0), (1, 1)) in parts
        assert ((1, -1), (2, 1)) in parts

    @pytest.mark.parametrize("extras", [("ints",), ("nonneg",), ("pos",), ("pos", "ints")])
    def test_check_window_refuses_exactly_the_windows_missing_a_root(self, extras):
        inst = ZPOS
        for extra in extras:
            inst = Chain(inst, extra)
        pairs = [(lo, hi) for lo in range(-3, 5) for hi in range(lo, 5)]
        for max_rank in range(1, 6):
            for bounds in itertools.product(pairs, repeat=len(extras)):
                window = Window(max_rank, bounds)
                held = set(inst.elements(window))
                closed = all(t in held for s in held for t, _ in inst.unit_divisors(s))
                if closed:
                    inst.check_window(window)
                else:
                    with pytest.raises(ValueError, match="root"):
                        inst.check_window(window)

    @pytest.mark.parametrize("extras", [("ints",), ("nonneg",), ("pos",), ("pos", "ints")])
    def test_check_differences_refuses_exactly_the_windows_missing_a_difference(self, extras):
        inst = ZPOS
        for extra in extras:
            inst = Chain(inst, extra)
        pairs = [(lo, hi) for lo in range(-2, 4) for hi in range(lo, 4)]
        for max_rank in range(1, 4):
            for bounds in itertools.product(pairs, repeat=len(extras)):
                window = Window(max_rank, bounds)
                held = set(inst.elements(window))
                differences = {inst._subtract(s, t) for s in held for t in held} - {None}
                if differences <= held:
                    inst.check_differences(window)
                else:
                    with pytest.raises(ValueError, match="widen the role-a spec"):
                        inst.check_differences(window)


class TestFreeRanked:
    def test_rank_weights_lengths(self):
        assert MIXED.sort_key((1, 2)) == (5, 1, 2)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            MIXED.validate((0, 0))
        with pytest.raises(ValueError):
            MIXED.validate((-1, 1))
        with pytest.raises(ValueError):
            FreeRanked((("a", 1), ("a", 2)))
        with pytest.raises(ValueError, match="must be an integer"):
            FreeRanked((("a", 1.9),))

    def test_elements_in_rank_window(self):
        elems = TWO_LETTERS.elements(Window(2))
        assert elems == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_zero_length_beads_need_max_total(self):
        inst = FreeRanked((("a", 1), ("e", 0)))
        with pytest.raises(ValueError):
            inst.elements(Window(2))
        elems = inst.elements(Window(2, max_total=3))
        assert (1, 2) in elems and (2, 1) in elems
        # rank must stay >= 1 even though e contributes nothing
        assert all(semigroup_oracle.rank(inst, s) >= 1 for s in elems)

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_unit_divisors_scale_back(self, i, j):
        if i + j == 0:
            return
        s = (2 * i, 2 * j)
        if sum(s) == 0:
            return
        for t, d in MIXED.unit_divisors(s) if semigroup_oracle.rank(MIXED, s) >= 1 else []:
            assert tuple(d * c for c in t) == s

    @given(
        st.lists(st.integers(-1, 3), min_size=1, max_size=3),
        st.integers(1, 7),
        st.integers(1, 5),
    )
    def test_elements_come_out_in_sort_key_order(self, lengths, max_rank, max_total):
        inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
        window = Window(max_rank, max_total=max_total)
        elems = inst.elements(window)
        assert elems == sorted(elems, key=inst.sort_key)
        assert inst.lengths == tuple(lengths)

    @given(
        st.lists(st.integers(-3, 4), min_size=1, max_size=4),
        st.integers(1, 8),
        st.one_of(st.none(), st.integers(1, 5)),
    )
    def test_elements_are_the_window_of_the_complete_box(self, lengths, max_rank, max_total):
        if max_total is None and min(lengths) < 1:
            max_total = 4  # such a window needs max_total
        inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
        window = Window(max_rank, max_total=max_total)
        # no bead count can pass max_total, or max_rank when every length is positive
        cap = max_rank if max_total is None else max_total
        box = [
            cs
            for cs in itertools.product(range(cap + 1), repeat=len(lengths))
            if 1 <= sum(cs) <= cap
            and 1 <= sum(c * n for c, n in zip(cs, lengths)) <= max_rank
        ]
        assert inst.elements(window) == sorted(box, key=inst.sort_key)

    def test_label_index(self):
        assert MIXED.label_index("y") == 1
        with pytest.raises(ValueError):
            MIXED.label_index("z")

    def test_bead_labels_must_be_strings(self):
        for beads in ([(None, 1)], [(1, 1), ("1", 1)], [(("a",), 1)]):
            with pytest.raises(ValueError, match="strings"):
                FreeRanked(tuple(beads))


class TestMorphisms:
    def test_rank_morphism(self):
        # the rank map of a free instance is the row of bead lengths
        m = Morphism(MIXED, ZPOS, [MIXED.lengths])
        assert apply_morphism(m, (1, 2)) == 5
        rep = check_morphism(m, "rank-dividing", Window(6, max_total=6))
        assert rep.ok
        # the pullback-direction root-set bijection genuinely fails here:
        # (0,1)/2 is empty in the source while 2/2 = {1} downstairs
        rep = check_morphism(m, "rank-multiplying", Window(6, max_total=6))
        assert not rep.ok
        assert any("root sets" in f.detail for f in rep.failures)

    def test_linear_projection(self):
        # forget the extra coordinate
        inst = Chain(ZPOS, "nonneg")
        m = Morphism(inst, ZPOS, [(1, 0)])
        assert apply_morphism(m, (5, 3)) == 5
        assert check_morphism(m, "rank-dividing", Window(5)).ok

    def test_linear_reindex(self):
        # (n, k) -> (n, k, n - k) used by composition alphabets
        src = Chain(ZPOS, "nonneg")
        tgt = Chain(Chain(ZPOS, "nonneg"), "ints")
        m = Morphism(src, tgt, [(1, 0), (0, 1), (1, -1)])
        assert apply_morphism(m, (4, 1)) == (4, 1, 3)

    def test_relabel_merges_multiplicities(self):
        src = FreeRanked((("a", 1), ("b", 1), ("c", 1)))
        tgt = FreeRanked((("x", 1), ("y", 1)))
        # a -> x, b -> x, c -> y as a 0/1 matrix, one row per target bead
        m = Morphism(src, tgt, [(1, 1, 0), (0, 0, 1)])
        assert apply_morphism(m, (1, 2, 3)) == (3, 3)

    def test_image_must_stay_inside(self):
        m = Morphism(ZPOS, ZPOS, [(-1,)])
        with pytest.raises(ValueError):
            apply_morphism(m, 3)
        # one row for a target of two coordinates
        with pytest.raises(ValueError, match="height"):
            Morphism(Chain(ZPOS, "nonneg"), Chain(ZPOS, "nonneg"), [(1, 0)])

    def test_check_morphism_flags_rank_direction(self):
        doubler = Morphism(ZPOS, ZPOS, [(2,)])
        assert check_morphism(doubler, "rank-multiplying", Window(6)).ok
        rep = check_morphism(doubler, "rank-dividing", Window(6))
        assert not rep.ok
        assert any("does not divide" in f.detail for f in rep.failures)

    def test_matrix_must_be_rectangular(self):
        for matrix in ((), 1, None):
            with pytest.raises(ValueError, match="needs a matrix"):
                Morphism(ZPOS, ZPOS, matrix)
        with pytest.raises(ValueError, match="ragged"):
            Morphism(Chain(ZPOS, "nonneg"), ZPOS, [(1, 0), (1,)])
        with pytest.raises(ValueError, match="width does not match source arity"):
            Morphism(ZPOS, ZPOS, [(1, 0)])
        with pytest.raises(ValueError, match="width does not match source arity"):
            Morphism(Chain(ZPOS, "nonneg"), ZPOS, [(1,)])
        with pytest.raises(ValueError, match="height does not match target arity"):
            Morphism(ZPOS, Chain(ZPOS, "nonneg"), [(1,)])
        with pytest.raises(ValueError, match="height does not match target arity"):
            Morphism(ZPOS, ZPOS, [(1,), (1,)])
        for row in (1, None, {1}, iter([1])):
            with pytest.raises(ValueError, match="row must be a sequence"):
                Morphism(ZPOS, ZPOS, [row])

    @pytest.mark.parametrize("entry", [1.7, 2.0, "2", True, None])
    def test_matrix_entries_must_be_integers(self, entry):
        with pytest.raises(ValueError, match="matrix entry must be an integer"):
            Morphism(ZPOS, ZPOS, [(entry,)])


def parts_under(inst, s) -> list:
    """Every element of the instance whose coordinates lie in 0..those of s."""
    out = []
    for cs in itertools.product(*(range(c + 1) for c in inst.coords(s))):
        part = cs[0] if inst == ZPOS else cs
        try:
            inst.validate(part)
        except ValueError:
            continue
        out.append(part)
    return out


@st.composite
def decomposition_cases(draw):
    """An instance, an element of it, and a support: every part that fits
    under the element, or a few of them."""
    kind = draw(st.sampled_from(["zpos", "chain", "chain2", "ints", "free"]))
    if kind == "zpos":
        inst, s = ZPOS, draw(st.integers(1, 12))
    elif kind == "chain":
        inst = Chain(ZPOS, "nonneg")
        s = (draw(st.integers(1, 6)), draw(st.integers(0, 4)))
    elif kind == "chain2":
        inst = Chain(Chain(ZPOS, "pos"), "nonneg")
        s = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    elif kind == "ints":
        inst = Chain(ZPOS, "ints")
        s = (draw(st.integers(1, 5)), draw(st.integers(-3, 3)))
        part = st.tuples(st.integers(1, 3), st.integers(-2, 2))
        return inst, s, draw(st.lists(part, min_size=1, max_size=6))
    else:
        inst = MIXED
        s = draw(st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(any))
    pool = parts_under(inst, s)
    if draw(st.booleans()):
        return inst, s, pool
    return inst, s, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(decomposition_cases())
def test_decompositions_come_out_in_sort_key_order(case):
    inst, s, support = case
    out = inst.decompositions(s, support=support)
    assert out == sorted(out, key=lambda parts: [inst.sort_key(p) for p in parts])
    assert len(set(out)) == len(out)


class TestSerialization:
    def test_encode_decode_roundtrip(self):
        cases = [
            (ZPOS, 7),
            (Chain(ZPOS, "ints"), (3, -2)),
            (TWO_LETTERS, (1, 2)),
        ]
        for inst, s in cases:
            assert decode_element(inst, encode_element(inst, s)) == s

    def test_free_ranked_encodes_by_label(self):
        enc = encode_element(MIXED, (2, 1))
        assert enc == {"x": 2, "y": 1}
        assert decode_element(MIXED, {"y": 1, "x": 2}) == (2, 1)

    def test_instance_from_config(self):
        inst, win = instance_from_config(
            {"kind": "chain", "base": {"kind": "zpos"}, "extra": "nonneg",
             "window": {"max_rank": 4, "extra_bounds": [[0, 4]]}}
        )
        assert inst == Chain(ZPOS, "nonneg")
        assert win == Window(4, ((0, 4),))

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            instance_from_config({"kind": "zpos", "oops": 1})
        with pytest.raises(ValueError):
            window_from_config({"max_rank": 4, "oops": 1})

    def test_free_config(self):
        inst, win = instance_from_config(
            {"kind": "free", "beads": [["a", 1], ["b", 2]],
             "window": {"max_rank": 5}}
        )
        assert inst == FreeRanked((("a", 1), ("b", 2)))
        assert win == Window(5)
