"""Acceptance gate: ten end-to-end checks, one reported line each.

Each test prints exactly one "ACCEPTANCE <k>: PASS/FAIL" line so the gate
can be read off a bare pytest run, then asserts the collected problems
are empty.  Nothing here is mocked; every count is recomputed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from sievekit.gaussseq import (
    TruncatedSeries,
    a_from_b,
    a_from_c,
    b_from_a,
    c_from_a,
    check_gauss,
    riordan_count,
    solve_functional_equation,
    SequenceSpec,
)
from sievekit.objects import (
    Census,
    CyclicFamily,
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
    check_qgauss_definition,
    check_qgauss_roots,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    equivalent_mod,
    fund_family,
)
from sievekit.qpoly import (
    IntPoly,
    ZERO,
    q_binomial,
    q_int,
    q_multinomial,
    q_power,
    reduce_mod_qn_minus_1,
)
from sievekit.semigroup import Chain, FreeRanked, PositiveIntegers, Window
from sievekit.tubings import (
    count_paths,
    enumerate_paths,
    enumerate_tubings,
    cycle_tubing_to_delannoy,
    delannoy_to_cycle_tubing,
    free_vertex_polynomial,
    free_vertices,
    improper_total_polynomial,
    interval_tubing_to_schroder,
    schroder_to_interval_tubing,
    tube_count_polynomial,
    tubings_all_improper,
    tubings_by_free_vertices,
    tubings_by_tube_count,
)

from helpers import (partition_numbers, qb0, sequence_corpus, sigma, strict_path_recurrence,
                     zpos_spec)
from objects_oracle import barrier_festoons, compositions, maj_polynomial, orbit_census
from qpoly_oracle import c_from_b_series
from tubings_oracle import delannoy_to_marked, ref_unmark, step_heights

ZPOS = PositiveIntegers()


def announce(capsys, num: int, problems: list[str], detail: str) -> None:
    verdict = "PASS" if not problems else f"FAIL ({problems[0]})"
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {verdict} - {detail}")
    assert not problems, problems


def nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def corrupt(F: PolyFamily, s) -> PolyFamily:
    bump = IntPoly.monomial(1, F.instance.rank(s) - 1)
    pairs = tuple((t, p + bump if t == s else p) for t, p in F.polys)
    return PolyFamily(F.instance, F.window, pairs)


@lru_cache(maxsize=1)
def valid_family_pool() -> tuple:
    """At least twenty congruent families of assorted shapes."""
    out = []
    for name, a in sequence_corpus(8):
        out.append((f"row {name}", construct_ramanujan(a)))
    lucas = next(a for name, a in sequence_corpus(8) if name == "lucas")
    out.append(("lucas via b", construct_from_b(b_from_a(lucas))))
    out.append(("lucas via c", construct_from_c(c_from_a(lucas))))
    out.append(("two letters", fund_family((("a", 1), ("b", 1)), Window(6))))
    out.append(("mixed beads", fund_family((("x", 1), ("y", 2)), Window(6))))
    out.append(
        (
            "binomial grid",
            PolyFamily.from_function(
                Chain(ZPOS, "nonneg"),
                Window(5, ((0, 5),)),
                lambda s: q_binomial(s[0], s[1]),
            ),
        )
    )
    out.append(
        (
            "power row",
            PolyFamily.from_function(ZPOS, Window(6), lambda n: q_power(2, n)),
        )
    )
    out.append(
        (
            "geometric",
            PolyFamily.from_function(ZPOS, Window(6), lambda n: IntPoly.monomial(1, n)),
        )
    )
    return tuple(out)


def first_corruptible(F: PolyFamily):
    for s, _ in F.polys:
        if F.instance.rank(s) >= 2:
            return s
    raise AssertionError("family has no element of rank 2 or more")


def test_criterion_01_role_transforms_roundtrip(capsys):
    problems = []
    corpus = sequence_corpus(12)
    for name, a in corpus:
        b = b_from_a(a)
        c = c_from_a(a)
        if a_from_b(b).as_dict() != a.as_dict():
            problems.append(f"{name}: a->b->a drifted")
        if a_from_c(c).as_dict() != a.as_dict():
            problems.append(f"{name}: a->c->a drifted")
        if nonzero(c_from_b_series(b, 13).as_dict()) != nonzero(c.as_dict()):
            problems.append(f"{name}: b->c mismatch")
        if nonzero(b_from_a(a_from_c(c)).as_dict()) != nonzero(b.as_dict()):
            problems.append(f"{name}: c->b mismatch")
        if not check_gauss(a).ok:
            problems.append(f"{name}: congruence check failed")
    announce(
        capsys, 1, problems,
        f"{len(corpus)} corpus rows, ranks to 12, four transform legs each",
    )


def test_criterion_02_three_constructions_agree(capsys):
    problems = []
    corpus = sequence_corpus(10)
    built = 0
    for name, a in corpus:
        fams = {
            "ramanujan": construct_ramanujan(a),
            "from-b": construct_from_b(b_from_a(a)),
            "from-c": construct_from_c(c_from_a(a)),
        }
        for label, F in fams.items():
            built += 1
            if not check_qgauss_definition(F).ok:
                problems.append(f"{name}/{label}: definition check failed")
            if not check_qgauss_roots(F).ok:
                problems.append(f"{name}/{label}: roots check failed")
        for x, y in itertools.combinations(fams, 2):
            if not equivalent_mod(fams[x], fams[y]).ok:
                problems.append(f"{name}: {x} and {y} differ mod q^n - 1")
    announce(
        capsys, 2, problems,
        f"{built} families from {len(corpus)} rows, pairwise congruent",
    )


def test_criterion_03_checkers_agree(capsys):
    problems = []
    pool = valid_family_pool()
    if len(pool) < 20:
        problems.append(f"only {len(pool)} valid families")
    for name, F in pool:
        d_ok = check_qgauss_definition(F).ok
        r_ok = check_qgauss_roots(F).ok
        if not (d_ok and r_ok):
            problems.append(f"{name}: checkers disagree on a valid family")
    corrupted = 0
    for name, F in pool:
        bad = corrupt(F, first_corruptible(F))
        corrupted += 1
        d_ok = check_qgauss_definition(bad).ok
        r_ok = check_qgauss_roots(bad).ok
        if d_ok or r_ok:
            problems.append(f"{name}: corruption slipped past a checker")
    announce(
        capsys, 3, problems,
        f"{len(pool)} valid and {corrupted} corrupted families, both checkers",
    )


def _csp_suite(census: Census, F: PolyFamily, label: str, problems: list) -> None:
    if not verify_lyndon(census).ok:
        problems.append(f"{label}: fixed-point law failed")
    if not verify_csp(census, F).ok:
        problems.append(f"{label}: sieving values off")


REFINEMENTS = {
    "ones": ([1], [1, -1], lambda n, k: qb0(2 * n - k - 1, n - k)),
    "alternating": (
        [1, 0, 1], [1],
        lambda n, k: qb0(n, (n - k) // 2) if (n - k) % 2 == 0 else ZERO,
    ),
    "doubling": ([1, -1], [1, -2], free_vertex_polynomial),
}


def refined_weights(numer, denom, max_rank: int) -> SequenceSpec:
    """Bead weights on (type, bead count) pairs from a series equation."""
    D = TruncatedSeries.from_rational(numer, denom, max_rank + 1)
    C = solve_functional_equation(D, max_rank + 1)
    inst = Chain(ZPOS, "pos")
    window = Window(max_rank, ((1, max_rank),))
    mapping = {}
    for l in range(1, max_rank + 1):
        v = C.coeff(l)
        if v:
            mapping[(l, 1)] = int(v)
    return SequenceSpec.from_mapping(inst, window, "c", mapping)


def test_criterion_04_csp_suites(capsys):
    problems = []
    suites = 0

    letters = FreeRanked((("a", 1), ("b", 1), ("c", 1)))
    fam = CyclicFamily.from_generator(
        letters, Window(6), lambda alpha: words_with_content(zip("abc", alpha))
    )
    _csp_suite(fam.census(), fund_family(letters, Window(6)), "words", problems)
    suites += 1

    beads = FreeRanked((("x", 1), ("y", 2)))
    fam = CyclicFamily.from_generator(
        beads, Window(8), lambda alpha: festoons_by_content(beads, alpha)
    )
    _csp_suite(fam.census(), fund_family(beads, Window(8)), "festoons by content", problems)
    suites += 1

    for label, c in (
        ("lucas", zpos_spec("c", {1: 1, 2: 1}, 8)),
        ("two-three", zpos_spec("c", {2: 3, 3: 2}, 8)),
    ):
        fam = CyclicFamily.from_generator(
            ZPOS, Window(8), lambda n: festoons_colored(c, n)
        )
        _csp_suite(fam.census(), construct_from_c(c), f"colored {label}", problems)
        suites += 1

    b = zpos_spec("b", {n: 1 for n in range(1, 11)}, 10)
    fam = CyclicFamily.from_generator(
        ZPOS, Window(10), lambda n: festoons_repeated(b, n)
    )
    _csp_suite(fam.census(), construct_from_b(b), "repeated beads", problems)
    suites += 1

    for label, (numer, denom, poly) in REFINEMENTS.items():
        c = refined_weights(numer, denom, 8)
        fam = CyclicFamily.from_generator(
            c.instance, c.window, lambda s: festoons_colored(c, s)
        )
        F = PolyFamily.from_function(c.instance, c.window, lambda s: poly(*s))
        _csp_suite(fam.census(), F, f"bead-count {label}", problems)
        suites += 1

    fam = tubings_by_free_vertices(6)
    F = PolyFamily.from_function(
        fam.instance, fam.window, lambda s: free_vertex_polynomial(*s)
    )
    _csp_suite(fam, F, "tubings by free vertices", problems)
    suites += 1

    fam = tubings_by_tube_count(6)
    F = PolyFamily.from_function(
        fam.instance, fam.window, lambda s: tube_count_polynomial(*s)
    )
    _csp_suite(fam, F, "tubings by tube count", problems)
    suites += 1

    fam = tubings_by_tube_count(5, colors=2)
    F = PolyFamily.from_function(
        fam.instance, fam.window, lambda s: tube_count_polynomial(*s, colors=2)
    )
    _csp_suite(fam, F, "colored tubings", problems)
    suites += 1

    fam = tubings_all_improper(6)
    F = PolyFamily.from_function(fam.instance, fam.window, improper_total_polynomial)
    _csp_suite(fam, F, "improper totals", problems)
    suites += 1

    announce(capsys, 4, problems, f"{suites} object families sieved")


def test_criterion_05_census_checks(capsys):
    problems = []

    proper = [
        t for t in enumerate_tubings(3, "interval") if not free_vertices(3, t, "interval")
    ]
    if len(proper) != 11:
        problems.append(f"proper interval tubings: {len(proper)} != 11")

    improper_totals = []
    for n in range(1, 5):
        improper_totals.append(
            sum(1 for t in enumerate_tubings(n, "cycle") if free_vertices(n, t, "cycle"))
        )
    if improper_totals != [1, 3, 13, 63]:
        problems.append(f"improper cycle totals: {improper_totals}")

    c = refined_weights([1, 0, 1], [1], 6)
    objs = festoons_colored(c, (6, 2))
    if len(objs) != 15:
        problems.append(f"two-bead refinement count: {len(objs)} != 15")
    if orbit_census(objs) != {3: 1, 6: 2}:
        problems.append(f"refinement census: {orbit_census(objs)}")

    D = TruncatedSeries.from_rational([1, -1], [1, -2], 13)
    solved = list(solve_functional_equation(D, 13).coeffs[1:])
    counted = [count_paths(2 * (n - 1), "strict") for n in range(1, 13)]
    if not solved == strict_path_recurrence(12) == counted or counted[:5] != [1, 1, 3, 11, 45]:
        problems.append(f"strict path counts: {solved[:5]} {counted[:5]}")

    announce(capsys, 5, problems, "tubing censuses and strict path counts")


def test_criterion_06_bijections(capsys):
    problems = []
    interval_total = 0
    for n in range(1, 9):
        images = set()
        for tubing in enumerate_tubings(n, "interval"):
            p = interval_tubing_to_schroder(n, tubing)
            if schroder_to_interval_tubing(n, p) != tubing:
                problems.append(f"interval roundtrip broke at n={n}")
                break
            if p.count("U") != len(tubing):
                problems.append(f"tube statistic broke at n={n}")
                break
            ground = sum(
                1 for s, h in zip(p, step_heights(p)) if s == "F" and h == 0
            )
            if ground != len(free_vertices(n, tubing, "interval")):
                problems.append(f"free-vertex statistic broke at n={n}")
                break
            images.add(p)
            interval_total += 1
        if images != set(enumerate_paths(2 * n, "schroder")):
            problems.append(f"interval image mismatch at n={n}")

    cycle_total = 0
    for n in range(1, 9):
        improper = [
            t for t in enumerate_tubings(n, "cycle") if free_vertices(n, t, "cycle")
        ]
        images = set()
        for tubing in improper:
            w = cycle_tubing_to_delannoy(n, tubing)
            if delannoy_to_cycle_tubing(n, w) != tubing:
                problems.append(f"cycle roundtrip broke at n={n}")
                break
            images.add(w)
            cycle_total += 1
        if images != set(enumerate_paths(2 * (n - 1), "delannoy")):
            problems.append(f"cycle image mismatch at n={n}")

    p, j, w = "UUFDDFUUDDUDF", 4, "DFUUDDUDDUUF"
    if ref_unmark(p, j) != w or delannoy_to_marked(w) != (p, j):
        problems.append("worked eight-cycle instance off")

    announce(
        capsys, 6, problems,
        f"{interval_total} interval and {cycle_total} cycle roundtrips",
    )


def test_criterion_07_major_index(capsys):
    problems = []
    contents = 0
    for mults in itertools.product(range(7), repeat=3):
        if not 0 < sum(mults) <= 6:
            continue
        contents += 1
        ws = words_with_content([("a", mults[0]), ("b", mults[1]), ("c", mults[2])])
        expected = q_multinomial([m for m in mults if m])
        if maj_polynomial(ws) != expected:
            problems.append(f"content {mults}: distribution off")

    checked = 0
    for n in range(1, 7):
        modulus_ok = lambda p, q: reduce_mod_qn_minus_1(p - q, n) == ZERO
        for k in range(0, 7):
            got = maj_polynomial(compositions(n, k, range(k + 1)))
            if not modulus_ok(got, qb0(n + k - 1, k)):
                problems.append(f"nonneg alphabet at {(n, k)}")
            checked += 1
        for k in range(n, n + 7):
            got = maj_polynomial(compositions(n, k, range(1, k - n + 2)))
            if not modulus_ok(got, qb0(k - 1, k - n)):
                problems.append(f"positive alphabet at {(n, k)}")
            checked += 1
        for k in range(-n, n + 1):
            got = maj_polynomial(compositions(n, k, (-1, 0, 1)))
            expected = ZERO
            for i in range(0, (n - k) // 2 + 1):
                expected = expected + q_binomial(n, i) * q_binomial(n - i, k + i)
            if not modulus_ok(got, expected):
                problems.append(f"bounded alphabet at {(n, k)}")
            checked += 1
    announce(
        capsys, 7, problems,
        f"{contents} word contents exact, {checked} composition classes mod q^n - 1",
    )


def test_criterion_08_signed_models(capsys):
    problems = []
    p = partition_numbers(10)
    c = zpos_spec("c", {n: -p[n - 1] for n in range(1, 11)}, 10)
    for n in range(1, 11):
        pos, neg = signed_festoons(c, n)
        if len(pos) - len(neg) != -sigma(n):
            problems.append(f"signed net at n={n}")

    c9 = zpos_spec("c", {n: -p[n - 1] for n in range(1, 10)}, 9)
    fam = CyclicFamily.from_generator(
        ZPOS, Window(9),
        lambda n: [o for part in signed_festoons(c9, n) for o in part],
    )
    if not verify_signed_csp(fam.census(), construct_from_c(c9)).ok:
        problems.append("signed sieving failed")

    bare_fam = CyclicFamily.from_generator(
        ZPOS, Window(9), lambda n: barrier_festoons(n, allow_bare=True)
    )
    zero = PolyFamily.from_function(ZPOS, Window(9), lambda n: ZERO)
    if not verify_signed_csp(bare_fam.census(), zero).ok:
        problems.append("barrier drawings do not cancel")

    announce(capsys, 8, problems, "net counts to rank 10, signed sieving to rank 9")


def compositions_of(n: int, k: int):
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def test_criterion_09_riordan_counts(capsys):
    problems = []
    checked = 0
    for label, (numer, denom, _) in REFINEMENTS.items():
        D = TruncatedSeries.from_rational(numer, denom, 12)
        C = solve_functional_equation(D, 12)
        c = [0] + [int(C.coeff(l)) for l in range(1, 11)]
        for n in range(1, 11):
            for k in range(1, n + 1):
                direct = 0
                for parts in compositions_of(n, k):
                    w = parts[0]
                    for t in parts:
                        w *= c[t]
                    direct += w
                got = riordan_count(D, n, k)
                if got != direct:
                    problems.append(f"{label} at {(n, k)}: {got} != {direct}")
                checked += 1
    announce(capsys, 9, problems, f"{checked} series coefficients vs enumeration")


def test_criterion_10_negative_controls(capsys):
    problems = []
    witnesses = 0
    for name, F in valid_family_pool():
        bad = corrupt(F, first_corruptible(F))
        for checker in (check_qgauss_definition, check_qgauss_roots):
            rep = checker(bad)
            if rep.ok or not rep.failures:
                problems.append(f"{name}: corruption produced no witness")
            else:
                witnesses += 1

    for label, values in (
        ("identity row", {n: n for n in range(1, 9)}),
        ("squares row", {n: n * n for n in range(1, 9)}),
    ):
        rep = check_gauss(zpos_spec("a", values, 8))
        if rep.ok or not rep.failures:
            problems.append(f"{label}: expected a named failure")
        elif rep.failures[0].element != 2:
            problems.append(f"{label}: witness {rep.failures[0].element} != 2")

    bad_rows = PolyFamily.from_function(ZPOS, Window(6), q_int)
    rep = check_qgauss_roots(bad_rows)
    if rep.ok or not rep.failures or rep.failures[0].element != 2:
        problems.append("plain q-integer family: expected witness at 2")

    announce(
        capsys, 10, problems,
        f"{witnesses} corruption witnesses plus named sequence failures",
    )
