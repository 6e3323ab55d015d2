"""The shared divisor-check kernel against the verifier loops it replaced.

Every report must equal the oracle's field for field: ``ok``, ``checked``
and each failure's element, divisor and detail string, on passing families
and on corrupted ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sieve_oracle as oracle
from helpers import corrupt, sequence_corpus, zpos_spec
from sievekit.arith import divisors
from sievekit.objects import (
    CyclicFamily,
    CyclicObject,
    _canonical,
    fixed_points,
    festoons_by_content,
    festoons_colored,
    festoons_repeated,
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
from sievekit.tubings import improper_cycle_family

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


def object_families() -> list[tuple[str, CyclicFamily, PolyFamily]]:
    c = zpos_spec("c", {1: 1, 2: 1, 3: 2}, 7)
    b = zpos_spec("b", {1: 1, 2: 2, 3: 1}, 6)

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
        ("tubings", *improper_cycle_family(5, "free")),
    ]


def signed_families() -> list[tuple[str, CyclicFamily, PolyFamily]]:
    weights = {"all-negative": {n: -1 for n in range(1, 8)}, "mixed": {1: 1, 2: -1, 3: 1}}
    out = []
    for name, w in weights.items():
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
    rep = verify_lyndon(fam)
    assert rep.ok and rep == oracle.verify_lyndon(fam)
    broken = drop_orbit(fam)
    rep = verify_lyndon(broken)
    assert not rep.ok and rep == oracle.verify_lyndon(broken)


@pytest.mark.parametrize("name, fam, F", OBJECTS, ids=[n for n, _, _ in OBJECTS])
def test_verify_csp_matches_oracle(name, fam, F):
    rep = verify_csp(fam, F)
    assert rep.ok and rep == oracle.verify_csp(fam, F)
    s = next(s for s, _ in F.polys if F.instance.rank(s) >= 2)
    rep = verify_csp(fam, corrupt(F, s))
    assert not rep.ok and rep == oracle.verify_csp(fam, corrupt(F, s))


@pytest.mark.parametrize("name, fam, F", SIGNED, ids=[n for n, _, _ in SIGNED])
def test_verify_signed_csp_matches_oracle(name, fam, F):
    rep = verify_signed_csp(fam, F)
    assert rep.ok and rep == oracle.verify_signed_csp(fam, F)
    broken = flip_sign(fam)
    rep = verify_signed_csp(broken, F)
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
    for check in (verify_lyndon, oracle.verify_lyndon):
        with pytest.raises(ValueError, match="does not cover the root 2 of 4"):
            check(fam)


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
