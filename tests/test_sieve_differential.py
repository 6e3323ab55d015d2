"""The shared divisor-check kernel against the verifier loops it replaced.

Every report must equal the oracle's field for field: ``ok``, ``checked``
and each failure's element, divisor and detail string, on passing families
and on corrupted ones.  The censuses built from necklaces must equal those
read off the oracle's materialised families.
"""

from __future__ import annotations

import itertools
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objects_oracle
import sieve_oracle as oracle
import tubings_oracle
from helpers import corrupt, sequence_corpus, zpos_spec
from sievekit.arith import divisors, totient
from sievekit.gaussseq import SequenceSpec
from sievekit.objects import (
    CyclicFamily,
    CyclicObject,
    _canonical,
    fixed_points,
    festoon_census,
    festoons_by_content,
    festoons_colored,
    festoons_repeated,
    necklaces,
    signed_festoons,
    verify_csp,
    verify_lyndon,
    verify_signed_csp,
    words_with_content,
)
from sievekit.qgauss import (
    PolyFamily,
    check_qgauss_roots,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    fund_family,
)
from sievekit.qpoly import IntPoly, eval_at_primitive_root, q_binomial
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window
from sievekit.tubings import improper_cycle_census

ZPOS = PositiveIntegers()
NK = Chain(ZPOS, "nonneg")
LETTERS = FreeRanked((("a", 1), ("b", 1)))
BEADS = FreeRanked((("x", 1), ("y", 2)))


def poly_families() -> list[tuple[str, PolyFamily]]:
    binomials = PolyFamily.from_function(
        NK, Window(6, ((0, 6),)), lambda s: q_binomial(s[0], s[1])
    )
    fams = [(name, construct_ramanujan(a)) for name, a in sequence_corpus(8)]
    return fams + [("q-binomial", binomials), ("fund", fund_family(BEADS, Window(6)))]


def corrupted_poly_families() -> list[tuple[str, PolyFamily]]:
    out = []
    for name, F in poly_families():
        for s, _ in F.polys:
            if F.instance.rank(s) in (4, 6):
                out.append((f"{name}@{s}", corrupt(F, s)))
                break
    return out


COLORED_C = zpos_spec("c", {1: 1, 2: 1, 3: 2}, 7)
REPEATED_B = zpos_spec("b", {1: 1, 2: 2, 3: 1}, 6)
SIGNED_WEIGHTS = {"all-negative": {n: -1 for n in range(1, 8)}, "mixed": {1: 1, 2: -1, 3: 1}}


def object_families() -> list[tuple[str, CyclicFamily, PolyFamily]]:
    c, b = COLORED_C, REPEATED_B

    def words(alpha):
        return words_with_content(list(zip(("a", "b"), alpha)))

    def by_content(alpha):
        return festoons_by_content(BEADS, alpha)

    gen = CyclicFamily.from_generator
    return [
        ("colored", gen(ZPOS, Window(7), lambda n: festoons_colored(c, n)),
         construct_from_c(c)),
        ("repeated", gen(ZPOS, Window(6), lambda n: festoons_repeated(b, n)),
         construct_from_b(b)),
        ("words", gen(LETTERS, Window(6), words), fund_family(LETTERS, Window(6))),
        ("by-content", gen(BEADS, Window(6), by_content), fund_family(BEADS, Window(6))),
        ("tubings", tubings_oracle.cycle_family(5, "free"),
         improper_cycle_census(5, "free")[1]),
    ]


def signed_families() -> list[tuple[str, CyclicFamily, PolyFamily]]:
    out = []
    for name, w in SIGNED_WEIGHTS.items():
        c = zpos_spec("c", w, 7)

        def gen(n, c=c):
            pos, neg = signed_festoons(c, n)
            return pos + neg

        fam = CyclicFamily.from_generator(ZPOS, Window(7), gen)
        out.append((name, fam, construct_from_c(c)))
    return out


def replace_set(fam: CyclicFamily, s, objs) -> CyclicFamily:
    sets = tuple((t, objs if t == s else old) for t, old in fam.sets)
    return CyclicFamily(fam.instance, fam.window, sets)


def drop_orbit(fam: CyclicFamily) -> CyclicFamily:
    """Remove the first orbit of the first rank >= 2 set that has one."""
    s, objs = next(
        (s, objs) for s, objs in fam.sets if objs and fam.instance.rank(s) >= 2
    )
    orbit = {objs[0].rotated(j) for j in range(objs[0].n)}
    return replace_set(fam, s, [o for o in objs if o not in orbit])


def flip_sign(fam: CyclicFamily) -> CyclicFamily:
    """Negate one object at the first odd rank >= 3."""
    s, objs = next(
        (s, objs) for s, objs in fam.sets
        if objs and fam.instance.rank(s) >= 3 and fam.instance.rank(s) % 2
    )
    o = objs[0]
    return replace_set(fam, s, (CyclicObject(o.kind, o.slots, -o.sign),) + objs[1:])


ROOTS = poly_families() + corrupted_poly_families()
OBJECTS = object_families()
SIGNED = signed_families()


@pytest.mark.parametrize("name, F", ROOTS, ids=[name for name, _ in ROOTS])
def test_check_qgauss_roots_matches_oracle(name, F):
    rep = check_qgauss_roots(F)
    assert rep == oracle.check_qgauss_roots(F)
    assert rep.ok == ("@" not in name)


@pytest.mark.parametrize("name, fam, F", OBJECTS, ids=[n for n, _, _ in OBJECTS])
def test_verify_lyndon_matches_oracle(name, fam, F):
    rep = verify_lyndon(fam.census())
    assert rep.ok and rep == oracle.verify_lyndon(fam)
    broken = drop_orbit(fam)
    rep = verify_lyndon(broken.census())
    assert not rep.ok and rep == oracle.verify_lyndon(broken)


@pytest.mark.parametrize("name, fam, F", OBJECTS, ids=[n for n, _, _ in OBJECTS])
def test_verify_csp_matches_oracle(name, fam, F):
    rep = verify_csp(fam.census(), F)
    assert rep.ok and rep == oracle.verify_csp(fam, F)
    s = next(s for s, _ in F.polys if F.instance.rank(s) >= 2)
    rep = verify_csp(fam.census(), corrupt(F, s))
    assert not rep.ok and rep == oracle.verify_csp(fam, corrupt(F, s))


@pytest.mark.parametrize("name, fam, F", SIGNED, ids=[n for n, _, _ in SIGNED])
def test_verify_signed_csp_matches_oracle(name, fam, F):
    rep = verify_signed_csp(fam.census(), F)
    assert rep.ok and rep == oracle.verify_signed_csp(fam, F)
    broken = flip_sign(fam)
    rep = verify_signed_csp(broken.census(), F)
    assert not rep.ok and rep == oracle.verify_signed_csp(broken, F)


CENSUSED = OBJECTS + SIGNED


@pytest.mark.parametrize("name, fam, F", CENSUSED, ids=[n for n, _, _ in CENSUSED])
def test_census_counts_the_stored_sets(name, fam, F):
    census = fam.census()
    assert (census.instance, census.window) == (fam.instance, fam.window)
    assert [s for s, _, _ in census.rows] == [s for s, _ in fam.sets]
    for (s, objs), (_, count, fixed) in zip(fam.sets, census.rows):
        assert count == len(objs)
        assert sorted(fixed) == divisors(fam.instance.rank(s))
        pos = [o for o in objs if o.sign > 0]
        neg = [o for o in objs if o.sign < 0]
        for d, split in fixed.items():
            assert split == (len(fixed_points(pos, d)), len(fixed_points(neg, d)))


def test_uncovered_roots_raise_like_the_oracle():
    # (2, 2) has the square root (1, 1), below the extra bound 2
    F = PolyFamily.from_function(
        Chain(ZPOS, "ints"), Window(4, ((2, 4),)), lambda s: IntPoly((1,))
    )
    msg = r"does not cover the root \(1, 1\) of \(2, 2\)"
    for check in (check_qgauss_roots, oracle.check_qgauss_roots):
        with pytest.raises(ValueError, match=msg):
            check(F)
    fam = CyclicFamily(ZPOS, Window(4), ((4, ()),))
    for check, arg in ((verify_lyndon, fam.census()), (oracle.verify_lyndon, fam)):
        with pytest.raises(ValueError, match="does not cover the root 2 of 4"):
            check(arg)


@given(
    st.lists(st.integers(-10**6, 10**6), max_size=40),
    st.integers(1, 12),
)
def test_residue_matches_oracle(coeffs, d):
    p = IntPoly(coeffs)
    expected = oracle.eval_at_primitive_root(p, d).coeffs
    assert eval_at_primitive_root(p, d).coeffs == expected


@given(st.lists(st.text("ab", min_size=3, max_size=3), max_size=20))
def test_canonical_matches_oracle(words):
    objs = [CyclicObject("word", tuple(w)) for w in words]
    assert _canonical(objs) == oracle._canonical(objs)


# -- censuses from necklaces ------------------------------------------------------


def multinomial(counts) -> int:
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


CONTENTS = st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(
    lambda counts: 0 < sum(counts) <= 10
)


def smallest_rotation_and_period(seq: tuple) -> tuple[tuple, int]:
    rotations = [seq[j:] + seq[:j] for j in range(1, len(seq) + 1)]  # the last is seq
    return min(rotations), rotations.index(seq) + 1


@given(CONTENTS)
def test_necklace_count_is_the_burnside_sum(counts):
    n = sum(counts)
    expected = sum(
        totient(d) * multinomial([c // d for c in counts])
        for d in divisors(gcd(*counts))
    ) // n
    found = list(necklaces(counts))
    assert len(found) == expected
    periods = [p for _, p in found]
    assert all(n % p == 0 for p in periods)
    # a necklace of period p holds p of the multinomial(counts) sequences
    assert sum(periods) == multinomial(counts)
    for seq, p in found:
        assert [seq.count(i) for i in range(len(counts))] == list(counts)
        assert smallest_rotation_and_period(seq) == (seq, p)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
    lambda counts: 0 < sum(counts) <= 7
))
def test_necklace_periods_match_brute_force(counts):
    items = [i for i, c in enumerate(counts) for _ in range(c)]
    expected = {smallest_rotation_and_period(w) for w in itertools.permutations(items)}
    found = list(necklaces(counts))
    assert len(found) == len(expected)
    assert set(found) == expected


def test_empty_content_has_no_necklace():
    assert list(necklaces([])) == list(necklaces([0, 0])) == []


def materialised(inst, window, enumerate_at):
    """The census of the oracle's objects over the window."""
    return CyclicFamily.from_generator(inst, window, enumerate_at).census()


def oracle_signed(c: SequenceSpec):
    return lambda n: sum(objects_oracle.signed_festoons(c, n), [])


def necklace_cases() -> list[tuple]:
    """(name, necklace census, oracle census) on the object families above."""
    c, b, o = COLORED_C, REPEATED_B, objects_oracle
    cases = [
        ("colored", festoon_census("festoons-colored", c),
         materialised(ZPOS, Window(7), lambda n: o.festoons_colored(c, n))),
        ("repeated", festoon_census("festoons-repeated", b),
         materialised(ZPOS, Window(6), lambda n: o.festoons_repeated(b, n))),
        ("words", festoon_census("words", LETTERS, Window(6)),
         materialised(LETTERS, Window(6),
                      lambda a: o.words_with_content(list(zip("ab", a))))),
        ("by-content", festoon_census("festoons-content", BEADS, Window(6)),
         materialised(BEADS, Window(6), lambda a: o.festoons_by_content(BEADS, a))),
    ]
    for name, w in SIGNED_WEIGHTS.items():
        c = zpos_spec("c", w, 7)
        cases.append((name, festoon_census("signed-festoons", c),
                      materialised(ZPOS, Window(7), oracle_signed(c))))
    return cases


NECKLACE_CASES = necklace_cases()


@pytest.mark.parametrize("name, got, expected", NECKLACE_CASES,
                         ids=[n for n, _, _ in NECKLACE_CASES])
def test_necklace_census_equals_the_stored_sets_census(name, got, expected):
    assert got == expected


def test_necklace_census_on_a_chain_matches_the_oracle():
    # festoons graded by bead count: types (rank, beads) on a two-coordinate chain
    c = SequenceSpec.from_mapping(
        Chain(ZPOS, "pos"), Window(6, ((1, 6),)), "c", {(1, 1): 1, (3, 1): 1, (5, 1): 2}
    )
    expected = materialised(c.instance, c.window,
                            lambda s: objects_oracle.festoons_colored(c, s))
    assert festoon_census("festoons-colored", c) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 5))
def test_content_census_matches_the_oracle(lengths, max_rank):
    labels = [f"b{i}" for i in range(len(lengths))]
    inst = FreeRanked(tuple(zip(labels, lengths)))
    window = Window(max_rank)
    fam = CyclicFamily.from_generator(
        inst, window, lambda a: objects_oracle.festoons_by_content(inst, a)
    )
    assert festoon_census("festoons-content", inst, window) == fam.census()
    if set(lengths) == {1}:
        fam = CyclicFamily.from_generator(
            inst, window, lambda a: objects_oracle.words_with_content(list(zip(labels, a)))
        )
        assert festoon_census("words", inst, window) == fam.census()


def weights(values, max_rank: int = 6):
    return st.dictionaries(st.integers(1, max_rank), values, max_size=3)


@settings(max_examples=40, deadline=None)
@given(weights(st.integers(1, 3)), st.integers(1, 6))
def test_colored_census_matches_the_oracle(w, max_rank):
    c = zpos_spec("c", {t: v for t, v in w.items() if t <= max_rank}, max_rank)
    expected = materialised(ZPOS, c.window, lambda n: objects_oracle.festoons_colored(c, n))
    assert festoon_census("festoons-colored", c) == expected


@settings(max_examples=40, deadline=None)
@given(weights(st.integers(-3, 3).filter(bool)), st.integers(1, 6))
def test_signed_census_matches_the_oracle(w, max_rank):
    c = zpos_spec("c", {t: v for t, v in w.items() if t <= max_rank}, max_rank)
    expected = materialised(ZPOS, c.window, oracle_signed(c))
    assert festoon_census("signed-festoons", c) == expected


@settings(max_examples=40, deadline=None)
@given(weights(st.integers(0, 3), 9), st.integers(1, 9))
def test_repeated_census_matches_the_oracle(w, max_rank):
    b = zpos_spec("b", {t: v for t, v in w.items() if t <= max_rank}, max_rank)
    expected = materialised(ZPOS, b.window, lambda n: objects_oracle.festoons_repeated(b, n))
    assert festoon_census("festoons-repeated", b) == expected


def test_festoon_census_refuses_like_predicted_count():
    with pytest.raises(ValueError, match="lengths"):
        festoon_census("festoons-content", FreeRanked((("e", 0), ("x", 1))),
                       Window(3, max_total=3))
    with pytest.raises(ValueError, match="signed"):
        festoon_census("festoons-colored", zpos_spec("c", {1: -1}, 3))
    with pytest.raises(ValueError, match="signed"):
        festoon_census("festoons-repeated", zpos_spec("b", {2: -1}, 3))
    with pytest.raises(ValueError, match="role"):
        festoon_census("signed-festoons", zpos_spec("b", {1: 1}, 3))
    with pytest.raises(ValueError, match="unknown family"):
        festoon_census("necklaces", zpos_spec("c", {1: 1}, 3))
