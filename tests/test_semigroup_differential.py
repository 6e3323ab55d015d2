"""The shared element model of ``_SemigroupBase`` against the per-class
checks it replaced (``tests/semigroup_oracle.py``), on random instances and
random coordinates: bools, floats and other junk, wrong arity, negatives,
nested chains of all three extra kinds, and free instances with bead
lengths in -2..3.  The free window listing is checked against every
multiplicity tuple within the bead budget that the oracle accepts, and
against the walk it replaced (``oracle.free_walk``)."""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings, strategies as st

import semigroup_oracle as oracle
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window

ZPOS = PositiveIntegers()
COORD = st.integers(-3, 6)
JUNK = st.one_of(st.booleans(), st.floats(-3, 6), st.none(), st.just("1"))


def arity(inst) -> int:
    if isinstance(inst, PositiveIntegers):
        return 1
    return 1 + len(inst.extras) if isinstance(inst, Chain) else len(inst.beads)


@st.composite
def instances(draw, some_positive_bead: bool = False):
    kind = draw(st.sampled_from(["zpos", "chain", "free"]))
    if kind == "zpos":
        return ZPOS
    if kind == "chain":
        inst = ZPOS
        for extra in draw(st.lists(st.sampled_from(["ints", "nonneg", "pos"]),
                                   min_size=1, max_size=3)):
            inst = Chain(inst, extra)
        return inst
    lengths = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3))
    if some_positive_bead and max(lengths) < 1:
        lengths[0] = draw(st.integers(1, 3))  # so that the instance has elements
    return FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))


@st.composite
def candidates(draw, inst):
    """Anything that might be offered as an element of inst."""
    if isinstance(inst, PositiveIntegers):
        return draw(st.one_of(COORD, JUNK, st.tuples(COORD)))
    n = arity(inst)
    how = draw(st.sampled_from(["ints", "ints", "ints", "junk", "arity", "list"]))
    size = n + draw(st.sampled_from([-1, 1])) if how == "arity" else n
    cs = draw(st.lists(COORD, min_size=size, max_size=size))
    if how == "junk":
        cs[draw(st.integers(0, n - 1))] = draw(JUNK)
    return cs if how == "list" else tuple(cs)


def elements(draw, inst, lo: int = -2, hi: int = 5):
    """A valid element of inst with coordinates in lo..hi."""
    if isinstance(inst, PositiveIntegers):
        return draw(st.integers(1, hi))
    s = draw(st.tuples(*[st.integers(lo, hi)] * arity(inst)))
    assume(oracle.is_valid(inst, s))
    return s


def accepts(inst, s) -> bool:
    try:
        inst.validate(s)
    except ValueError:
        return False
    return True


@settings(max_examples=300)  # one in three candidates is an element
@given(st.data())
def test_element_checks_match_the_oracle(data):
    inst = data.draw(instances())
    s = data.draw(candidates(inst))
    valid = oracle.is_valid(inst, s)
    assert accepts(inst, s) == valid
    if not valid:
        return
    assert inst.rank(s) == oracle.rank(inst, s)
    for d in range(1, 5):
        root = inst.nth_root(s, d)
        assert ([] if root is None else [root]) == oracle.root_list(inst, s, d)
    assert inst.unit_divisors(s) == oracle.unit_divisors(inst, s)


@given(st.data())
def test_build_and_remainder_match_the_oracle(data):
    inst = data.draw(instances())
    cs = data.draw(st.tuples(*[COORD] * arity(inst)))
    assert inst._build(cs) == oracle.build(inst, cs)
    assert inst._remainder_ok(cs) == oracle.remainder_ok(inst, cs)


@given(st.data())
def test_subtract_matches_the_oracle(data):
    inst = data.draw(instances(some_positive_bead=True))
    s, t = elements(data.draw, inst), elements(data.draw, inst)
    u = inst._subtract(s, t)
    assert ([] if u is None else [u]) == oracle.difference_list(inst, s, t)


@given(st.data())
def test_decompositions_match_the_oracle(data):
    inst = data.draw(instances(some_positive_bead=True))
    s = elements(data.draw, inst, 0, 4)
    support = [elements(data.draw, inst, -1, 3) for _ in range(data.draw(st.integers(1, 5)))]
    assert inst.decompositions(s, support) == oracle.decompositions(inst, s, support)


@settings(max_examples=150)
@given(st.lists(st.integers(-2, 3), min_size=1, max_size=3),
       st.integers(1, 6), st.integers(1, 6))
def test_free_elements_match_the_oracle(lengths, max_rank, max_total):
    inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
    box = itertools.product(range(max_total + 1), repeat=len(lengths))
    held = [
        cs for cs in box
        if sum(cs) <= max_total and oracle.is_valid(inst, cs)
        and oracle.rank(inst, cs) <= max_rank
    ]
    want = sorted(held, key=lambda cs: (oracle.rank(inst, cs), cs))
    assert inst.elements(Window(max_rank, max_total=max_total)) == want


@settings(max_examples=150)
@given(st.lists(st.integers(-2, 4), min_size=1, max_size=5),
       st.integers(1, 12), st.one_of(st.none(), st.integers(1, 8)))
def test_free_elements_match_the_stacked_walk(lengths, max_rank, max_total):
    # the lazy walk lists what the walk that stacked whole ranges listed
    assume(max_total is not None or min(lengths) >= 1)
    inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
    want = oracle.free_walk(inst, max_rank, max_total)
    assert inst.elements(Window(max_rank, max_total=max_total)) == want


def test_free_elements_with_a_negative_bead_and_a_large_bead_budget():
    # the elements (x, y) with 1 <= x - y <= 5 and x + y <= 16,000; the
    # count of the negative bead is chosen from its admissible range, not
    # stepped through from 0
    inst = FreeRanked((("a", 1), ("b", -1)))
    assert len(inst.elements(Window(5, max_total=16_000))) == 39_996
