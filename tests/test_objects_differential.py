"""The objects layer against the permutation-based code it replaced.

Every enumerator must return the same objects in the same order as its
oracle in ``objects_oracle.py``; ``fixed_points`` and the rotation-closure
check must agree with the rotate-and-compare definitions; and the word
and festoon listers must produce each distinct arrangement exactly once.
"""

from __future__ import annotations

import itertools
import pickle
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import objects_oracle as oracle
from sievekit.arith import divisors
from sievekit.gaussseq import SequenceSpec
from sievekit.objects import (
    CyclicFamily,
    CyclicObject,
    barrier_festoons,
    content_count,
    festoon_census,
    festoons_by_content,
    festoons_colored,
    festoons_repeated,
    fixed_points,
    predicted_count,
    signed_festoons,
    words_with_content,
)
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window

from helpers import partition_numbers, zpos_spec

ZPOS = PositiveIntegers()
MIXED = FreeRanked((("x", 1), ("y", 2), ("z", 3)))
LETTERS = FreeRanked((("a", 1), ("b", 1), ("c", 1)))


def multinomial(counts) -> int:
    return factorial(sum(counts)) // prod(map(factorial, counts))


def refined_c():
    """Festoons graded by bead count, on a two-coordinate chain."""
    inst = Chain(ZPOS, "pos")
    window = Window(6, ((1, 6),))
    mapping = {(1, 1): 1, (3, 1): 1, (5, 1): 2}
    return SequenceSpec.from_mapping(inst, window, "c", mapping)


def negative_partition_c(max_rank: int):
    p = partition_numbers(max_rank)
    return zpos_spec("c", {n: -p[n - 1] for n in range(1, max_rank + 1)}, max_rank)


def cases():
    """(name, new enumeration, oracle enumeration) pairs of thunks."""
    out = []
    for content in ({"a": 2, "b": 2, "c": 1}, [("b", 3), ("a", 1)], {1: 2, 3: 2, 2: 1}):
        out.append((f"words-{len(out)}", lambda c=content: words_with_content(c),
                    lambda c=content: oracle.words_with_content(c)))
    for alpha in MIXED.elements(Window(7)):
        out.append(("content-" + "-".join(map(str, alpha)),
                    lambda a=alpha: festoons_by_content(MIXED, a),
                    lambda a=alpha: oracle.festoons_by_content(MIXED, a)))
    out.append(("content-mapping",
                lambda: festoons_by_content((("p", 2), ("q", 1)), {"q": 2, "p": 2}),
                lambda: oracle.festoons_by_content((("p", 2), ("q", 1)), {"q": 2, "p": 2})))
    colored = [
        ("lucas", zpos_spec("c", {1: 1, 2: 1}, 7), range(1, 8)),
        ("two-colors", zpos_spec("c", {2: 3, 3: 2}, 8), range(1, 9)),
        ("ones-and-threes", zpos_spec("c", {1: 1, 3: 1, 4: 1}, 8), range(1, 9)),
    ]
    for name, c, ranks in colored:
        for s in ranks:
            out.append((f"colored-{name}-{s}",
                        lambda c=c, s=s: festoons_colored(c, s),
                        lambda c=c, s=s: oracle.festoons_colored(c, s)))
    c = refined_c()
    for s in c.instance.elements(c.window):
        out.append((f"colored-refined-{s[0]}-{s[1]}",
                    lambda s=s: festoons_colored(c, s),
                    lambda s=s: oracle.festoons_colored(c, s)))
    b = zpos_spec("b", {1: 2, 2: 1, 3: 3, 6: 1}, 12)
    for s in range(1, 13):
        out.append((f"repeated-{s}", lambda s=s: festoons_repeated(b, s),
                    lambda s=s: oracle.festoons_repeated(b, s)))
    signed = negative_partition_c(6)
    for s in range(1, 7):
        out.append((f"signed-{s}", lambda s=s: signed_festoons(signed, s),
                    lambda s=s: oracle.signed_festoons(signed, s)))
    for n in range(1, 8):
        for bare in (False, True):
            out.append((f"barrier-{n}-{bare}",
                        lambda n=n, bare=bare: barrier_festoons(n, bare),
                        lambda n=n, bare=bare: oracle.barrier_festoons(n, bare)))
    return out


CASES = cases()


@pytest.mark.parametrize("name, new, old", CASES, ids=[name for name, _, _ in CASES])
def test_enumerator_matches_oracle_in_order(name, new, old):
    got, expected = new(), old()
    assert got == expected
    objs = got if not name.startswith("signed") else got[0] + got[1]
    assert all(type(o) is CyclicObject for o in objs)


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=7))
def test_words_are_the_distinct_orderings(items):
    words = words_with_content(Counter(items))
    assert words == oracle.words_with_content(Counter(items))
    assert len({w.slots for w in words}) == len(words)
    assert {w.slots for w in words} == set(itertools.permutations(items))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=3)
       .filter(lambda beads: 0 < sum(m for _, m in beads) <= 6))
def test_festoon_count_is_the_multinomial(beads):
    inst = FreeRanked(tuple((f"b{i}", length) for i, (length, _) in enumerate(beads)))
    alpha = tuple(m for _, m in beads)
    festoons = festoons_by_content(inst, alpha)
    assert festoons == oracle.festoons_by_content(inst, alpha)
    # each of the multinomial bead orderings starts at each of n slots,
    # and a festoon of k beads arises from k of these placements
    n, k = inst.rank(alpha), sum(alpha)
    assert len(festoons) == multinomial(alpha) * n // k


@settings(deadline=None)
@given(st.sampled_from("xyz"), st.lists(st.sampled_from("abc"), max_size=3))
def test_listers_with_a_tenfold_item(repeated, others):
    items = [repeated] * 10 + others
    mults = Counter(items)
    words = words_with_content(mults)
    assert len(words) == multinomial(mults.values())
    assert len({w.slots for w in words}) == len(words)
    assert all(Counter(w.slots) == mults for w in words)
    inst = FreeRanked(tuple((label, 1 + (label == repeated)) for label in sorted(mults)))
    alpha = tuple(mults[label] for label in sorted(mults))
    festoons = festoons_by_content(inst, alpha)
    assert len(festoons) == multinomial(alpha) * inst.rank(alpha) // sum(alpha)
    assert len(set(festoons)) == len(festoons)
    assert all(Counter(t for t, _, start in o.slots if start) == mults for o in festoons)


def small_c(values):
    """A role-c spec on the positive integers up to a rank <= 7."""
    weights = st.dictionaries(st.integers(1, 7), values, max_size=3)
    return st.builds(
        lambda w, max_rank: zpos_spec("c", {t: v for t, v in w.items() if t <= max_rank},
                                      max_rank),
        weights, st.integers(1, 7),
    )


@settings(max_examples=25, deadline=None)
@given(small_c(st.integers(1, 2)))
def test_colored_lister_matches_the_oracle_and_the_census(c):
    for s in c.instance.elements(c.window):
        assert festoons_colored(c, s) == oracle.festoons_colored(c, s)
    fam = CyclicFamily.from_generator(ZPOS, c.window, lambda s: festoons_colored(c, s))
    assert fam.census() == festoon_census("festoons-colored", c)


@settings(max_examples=25, deadline=None)
@given(small_c(st.integers(-2, 2).filter(bool)))
def test_signed_lister_matches_the_oracle_and_the_census(c):
    for s in c.instance.elements(c.window):
        assert signed_festoons(c, s) == oracle.signed_festoons(c, s)
    fam = CyclicFamily.from_generator(ZPOS, c.window, lambda s: sum(signed_festoons(c, s), []))
    assert fam.census() == festoon_census("signed-festoons", c)


@given(st.lists(st.text("ab", min_size=6, max_size=6), max_size=30))
def test_fixed_points_match_oracle(words):
    objs = [CyclicObject("word", tuple(w)) for w in words]
    for d in divisors(6):
        assert fixed_points(objs, d) == oracle.fixed_points(objs, d)
    for d in (0, 4, 5):
        if objs:
            with pytest.raises(ValueError):
                fixed_points(objs, d)
            with pytest.raises(ValueError):
                oracle.fixed_points(objs, d)


@given(st.sets(st.text("ab", min_size=4, max_size=4), max_size=16))
def test_rotation_closure_matches_oracle(words):
    objs = [CyclicObject("word", tuple(w)) for w in sorted(words)]

    def build():
        return CyclicFamily.from_generator(
            ZPOS, Window(4), lambda n: objs if n == 4 else []
        )

    if oracle.closed_under_rotation(objs):
        build()
    else:
        with pytest.raises(ValueError, match="rotation"):
            build()


@pytest.mark.parametrize(
    "args",
    [("necklace", ("a",), 1), ("word", (), 1), ("word", ("a",), 0),
     ("word", ("a",), 2), ("word", ("a",), -2)],
    ids=["bad-kind", "empty-encoding", "sign-0", "sign-2", "sign-minus-2"],
)
def test_constructor_refusals(args):
    with pytest.raises(ValueError, match="CyclicObject"):
        CyclicObject(*args)


def test_tuple_behaviour():
    o = CyclicObject("festoon", (("t", 1, True), ("t", 1, False)), -1)
    assert o == ("festoon", (("t", 1, True), ("t", 1, False)), -1)
    assert hash(o) == hash(tuple(o))
    assert (o.kind, o.slots, o.sign, o.n) == ("festoon", o[1], -1, 2)
    assert pickle.loads(pickle.dumps(o)) == o
    assert type(o.rotated(1)) is CyclicObject
    assert o.rotated(2) is o
    assert repr(o).startswith("CyclicObject(kind='festoon'")
    assert CyclicObject("word", ("a",)) < CyclicObject("word", ("b",))


def test_content_count_is_the_enumerated_size():
    for alpha in MIXED.elements(Window(8)):
        assert content_count(MIXED, alpha) == len(festoons_by_content(MIXED, alpha))
    for alpha in LETTERS.elements(Window(6)):
        words = words_with_content(list(zip("abc", alpha)))
        assert content_count(LETTERS, alpha) == len(words)


COLORED = zpos_spec("c", {1: 1, 2: 3, 4: 2}, 8)
REFINED = refined_c()
REPEATED = zpos_spec("b", {1: 2, 2: 1, 4: 3}, 12)
SIGNED = negative_partition_c(7)
SIZES = [
    ("words", LETTERS, Window(6), lambda a: words_with_content(list(zip("abc", a)))),
    ("festoons-content", MIXED, Window(8), lambda a: festoons_by_content(MIXED, a)),
    ("festoons-colored", COLORED, None, lambda s: festoons_colored(COLORED, s)),
    ("festoons-colored", REFINED, None, lambda s: festoons_colored(REFINED, s)),
    ("festoons-repeated", REPEATED, None, lambda s: festoons_repeated(REPEATED, s)),
    ("signed-festoons", SIGNED, None, lambda s: sum(signed_festoons(SIGNED, s), [])),
]


@pytest.mark.parametrize(
    "family, source, window, enumerate_at", SIZES,
    ids=["words", "festoons-content", "festoons-colored", "festoons-colored-chain",
         "festoons-repeated", "signed-festoons"],
)
def test_predicted_count_is_the_enumerated_size(family, source, window, enumerate_at):
    if window is None:  # a sequence family ranges over its spec's window
        elements = source.instance.elements(source.window)
    else:
        elements = source.elements(window)
    total = sum(len(enumerate_at(s)) for s in elements)
    assert predicted_count(family, source, window) == total


def test_predicted_count_refuses_what_the_enumerators_refuse():
    with pytest.raises(ValueError, match="lengths"):
        predicted_count("festoons-content", FreeRanked((("e", 0), ("x", 1))),
                        Window(3, max_total=3))
    with pytest.raises(ValueError, match="signed"):
        predicted_count("festoons-colored", zpos_spec("c", {1: -1}, 3))
    with pytest.raises(ValueError, match="signed"):
        predicted_count("festoons-repeated", zpos_spec("b", {2: -1}, 3))
    with pytest.raises(ValueError):
        predicted_count("festoons-colored", zpos_spec("b", {1: 1}, 3))
    with pytest.raises(ValueError, match="unknown family"):
        predicted_count("necklaces", zpos_spec("c", {1: 1}, 3))
