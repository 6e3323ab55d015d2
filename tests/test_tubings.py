"""Cycle and interval tubings, lattice paths, and the two bijections."""

from __future__ import annotations

import pytest

from sievekit.gaussseq import NoSolution, TruncatedSeries, solve_functional_equation
from sievekit.objects import verify_csp, verify_lyndon
from sievekit.qgauss import PolyFamily
from sievekit.qpoly import ONE, q_power
from sievekit.semigroup import MAX_OBJECTS
from sievekit.tubings import (
    bijection_roundtrips,
    check_bijection_job,
    count_paths,
    cycle_tubing_to_delannoy,
    delannoy_to_cycle_tubing,
    enumerate_paths,
    enumerate_tubings,
    free_vertex_polynomial,
    free_vertices,
    improper_total_polynomial,
    interval_tubing_to_schroder,
    is_tubing,
    mask_to_tubing,
    schroder_to_interval_tubing,
    tube_count_polynomial,
    tubing_masks,
    tubings_all_improper,
    tubings_by_free_vertices,
    tubings_by_tube_count,
)

from helpers import strict_path_recurrence
from tubings_oracle import (delannoy_to_marked, final_vertices, is_path, ref_marked_to_cycle_mask,
                            ref_unmark, step_heights)

INTERVAL_TOTALS = [2, 6, 22, 90, 394, 1806]
CYCLE_IMPROPER = [1, 3, 13, 63, 321, 1683]


class TestEnumeration:
    def test_interval_totals(self):
        got = [len(enumerate_tubings(n, "interval")) for n in range(1, 7)]
        assert got == INTERVAL_TOTALS

    def test_proper_interval_tubings(self):
        tubings = enumerate_tubings(3, "interval")
        proper = [t for t in tubings if not free_vertices(3, t, "interval")]
        assert len(proper) == 11
        assert frozenset() not in proper

    def test_cycle_improper_totals(self):
        got = []
        for n in range(1, 7):
            tubings = enumerate_tubings(n, "cycle")
            got.append(sum(1 for t in tubings if free_vertices(n, t, "cycle")))
        assert got == CYCLE_IMPROPER

    def test_no_cycle_tubing_covers_every_vertex(self):
        # the whole cycle is no tube and touching tubes are not compatible,
        # so every cycle tubing leaves a vertex free
        for n in range(1, 9):
            full = (1 << n) - 1
            assert all(covered != full for _, covered in tubing_masks(n, "cycle"))

    def test_caps_and_kinds(self):
        with pytest.raises(ValueError):
            enumerate_tubings(13, "interval")
        with pytest.raises(ValueError):
            enumerate_tubings(11, "cycle")
        with pytest.raises(ValueError):
            enumerate_tubings(3, "wheel")

    def test_classify_vertices(self):
        # free vertices from the library, final ones from the set-based oracle
        assert free_vertices(3, {(0, 2), (0, 1)}, "interval") == {2}
        assert final_vertices(3, {(0, 2), (0, 1)}, "interval") == {(0, 2): 1, (0, 1): 0}
        assert free_vertices(4, {(3, 2)}, "cycle") == {1, 2}
        assert final_vertices(4, {(3, 2)}, "cycle") == {(3, 2): 0}
        with pytest.raises(ValueError):
            is_tubing(3, {(0, 3), (1, 1)}, "cycle")


class TestBijectionJobs:
    def test_predicted_roundtrips_match_the_enumeration(self):
        interval = [len(enumerate_tubings(n, "interval")) for n in range(1, 7)]
        assert [bijection_roundtrips("interval", n) for n in range(1, 7)] == [
            sum(interval[:n]) for n in range(1, 7)
        ]
        cycle = [
            sum(1 for t in enumerate_tubings(n, "cycle") if free_vertices(n, t, "cycle"))
            for n in range(1, 7)
        ]
        assert [bijection_roundtrips("cycle", n) for n in range(1, 7)] == [
            sum(cycle[:n]) for n in range(1, 7)
        ]

    @pytest.mark.parametrize(
        "kind, allowed, refused",
        [("interval", 258_562, 1_296_280), ("cycle", 325_441, 1_788_004)],
    )
    def test_cap_allows_nine_and_refuses_ten(self, kind, allowed, refused):
        assert bijection_roundtrips(kind, 9) == allowed <= MAX_OBJECTS
        check_bijection_job(kind, 9)
        with pytest.raises(ValueError, match=str(refused)):
            check_bijection_job(kind, 10)

    @pytest.mark.parametrize(
        "kind, max_n", [("interval", 0), ("interval", 13), ("cycle", 11), ("path", 3)]
    )
    def test_malformed_jobs_are_refused(self, kind, max_n):
        with pytest.raises(ValueError):
            check_bijection_job(kind, max_n)


class TestPaths:
    def test_classification(self):
        def kinds(path):  # the kinds of path it is, strongest first
            length = len(path) + path.count("F")
            return [k for k in ("strict", "schroder", "delannoy") if is_path(path, length, k)]

        assert kinds("") == kinds("UUDD") == ["strict", "schroder", "delannoy"]
        assert kinds("UFDF") == ["schroder", "delannoy"]
        assert kinds("DUDU") == ["delannoy"]
        assert kinds("UU") == kinds("UXDU") == []
        with pytest.raises(ValueError):  # an odd x-extent
            kinds("UXD")

    def test_step_heights(self):
        assert step_heights("UUFDD") == [0, 1, 2, 2, 1]

    def test_path_counts(self):
        delannoy = [len(enumerate_paths(2 * (n - 1), "delannoy")) for n in range(1, 6)]
        assert delannoy == [1, 3, 13, 63, 321]
        schroder = [len(enumerate_paths(2 * n, "schroder")) for n in range(0, 5)]
        assert schroder == [1, 2, 6, 22, 90]
        strict = [len(enumerate_paths(2 * (n - 1), "strict")) for n in range(1, 6)]
        assert strict == [1, 1, 3, 11, 45]

    def test_flat_counts_partition(self):
        paths = enumerate_paths(4, "delannoy")
        by_flats = [sum(p.count("F") == f for p in paths) for f in range(3)]
        assert sum(by_flats) == len(paths)
        assert by_flats == [6, 6, 1]

    def test_length_guard(self):
        with pytest.raises(ValueError):
            enumerate_paths(3)


class TestIntervalBijection:
    def test_exhaustive_roundtrip(self):
        for n in range(1, 7):
            tubings = enumerate_tubings(n, "interval")
            images = set()
            for tubing in tubings:
                p = interval_tubing_to_schroder(n, tubing)
                assert schroder_to_interval_tubing(n, p) == tubing
                # statistics carried across: tubes to rises, free
                # vertices to ground-level flats
                assert p.count("U") == len(tubing)
                assert p.count("F") == n - len(tubing)
                ground_flats = sum(
                    1
                    for step, h in zip(p, step_heights(p))
                    if step == "F" and h == 0
                )
                assert ground_flats == len(free_vertices(n, tubing, "interval"))
                images.add(p)
            assert images == set(enumerate_paths(2 * n, "schroder"))

    def test_small_cases(self):
        assert interval_tubing_to_schroder(1, frozenset()) == "F"
        assert interval_tubing_to_schroder(1, {(0, 1)}) == "UD"
        assert interval_tubing_to_schroder(3, {(0, 2), (0, 1)}) == "UUDDF"

    def test_decoder_guards(self):
        with pytest.raises(ValueError):
            schroder_to_interval_tubing(2, "DU" + "FF")
        with pytest.raises(ValueError):
            schroder_to_interval_tubing(2, "UD")


class TestCycleBijection:
    def test_exhaustive_roundtrip(self):
        for n in range(1, 7):
            improper = [t for t in enumerate_tubings(n, "cycle") if free_vertices(n, t, "cycle")]
            images = set()
            for tubing in improper:
                w = cycle_tubing_to_delannoy(n, tubing)
                assert delannoy_to_cycle_tubing(n, w) == tubing
                images.add(w)
            assert images == set(enumerate_paths(2 * (n - 1), "delannoy"))

    def test_worked_instance(self):
        p, j = "UUFDDFUUDDUDF", 4
        w = "DFUUDDUDDUUF"
        assert ref_unmark(p, j) == w
        assert delannoy_to_marked(w) == (p, j)
        tubing = mask_to_tubing(8, ref_marked_to_cycle_mask(8, p, j), "cycle")
        assert cycle_tubing_to_delannoy(8, tubing) == w
        assert delannoy_to_cycle_tubing(8, w) == tubing

    def test_empty_tubing_small_cycle(self):
        w = cycle_tubing_to_delannoy(3, frozenset())
        assert w == "FF"
        assert delannoy_to_cycle_tubing(3, "FF") == frozenset()

    def test_unmarking_tie_breaks(self):
        # one witness per branch: bare nonnegative, no flat at the minimum
        # level, and flats that all sit above the minimum level
        assert delannoy_to_marked("F") == ("FF", 1)
        assert delannoy_to_marked("DUDU") == ("UDUDF", 4)
        assert delannoy_to_marked("FFFFFDUDU") == ("UDUDFFFFFF", 4)
        for w, (p, j) in (
            ("F", ("FF", 1)),
            ("DUDU", ("UDUDF", 4)),
            ("FFFFFDUDU", ("UDUDFFFFFF", 4)),
        ):
            assert ref_unmark(p, j) == w

    def test_marked_guards(self):
        # a pair that is no marked path does not come back from its unmarking
        assert delannoy_to_marked(ref_unmark("UDF", 1)) != ("UDF", 1)  # mark right after a rise
        assert delannoy_to_marked(ref_unmark("FUDF", 4)) != ("FUDF", 4)  # mark past a ground flat
        with pytest.raises(ValueError):
            delannoy_to_marked(ref_unmark("UD", 1))  # no final flat
        with pytest.raises(ValueError, match="not a valid cycle tubing"):
            cycle_tubing_to_delannoy(2, {(0, 1), (1, 1)})  # adjacent tubes must merge
        with pytest.raises(ValueError):
            delannoy_to_cycle_tubing(3, "UD")

    def test_basepoint_choices_roundtrip(self):
        figure_members = [
            frozenset({(2, 4), (3, 3), (3, 1), (5, 1), (7, 2)}),
            frozenset({(3, 4), (6, 1), (3, 1), (0, 2), (0, 1)}),
            frozenset({(1, 6)}),
        ]
        for tubing in figure_members:
            assert is_tubing(8, tubing, "cycle")
            assert len(free_vertices(8, tubing, "cycle")) == 2
            for base in range(8):
                # base plays vertex 0: rotate it there, round-trip, rotate back
                rotated = frozenset(((s - base) % 8, length) for s, length in tubing)
                back = delannoy_to_cycle_tubing(8, cycle_tubing_to_delannoy(8, rotated))
                assert frozenset(((s + base) % 8, length) for s, length in back) == tubing


class TestFamilies:
    def test_free_vertex_counts_and_sieving(self):
        fam = tubings_by_free_vertices(6)
        counts = fam.counts()
        assert counts[(4, 1)] == 44
        assert all(counts[(n, n)] == 1 for n in range(1, 7))
        assert sum(counts[(6, k)] for k in range(1, 7)) == 1683
        F = PolyFamily.from_function(
            fam.instance, fam.window, lambda s: free_vertex_polynomial(*s)
        )
        assert verify_lyndon(fam).ok
        assert verify_csp(fam, F).ok

    def test_tube_count_sieving(self):
        fam = tubings_by_tube_count(6)
        F = PolyFamily.from_function(
            fam.instance, fam.window, lambda s: tube_count_polynomial(*s)
        )
        assert verify_lyndon(fam).ok
        assert verify_csp(fam, F).ok

    def test_colored_tube_count_sieving(self):
        fam = tubings_by_tube_count(5, colors=2)
        F = PolyFamily.from_function(
            fam.instance, fam.window,
            lambda s: tube_count_polynomial(s[0], s[1], colors=2),
        )
        assert verify_csp(fam, F).ok

    def test_improper_totals_sieving(self):
        fam = tubings_all_improper(6)
        assert [fam.counts()[n] for n in range(1, 7)] == CYCLE_IMPROPER
        F = PolyFamily.from_function(
            fam.instance, fam.window, improper_total_polynomial
        )
        assert verify_lyndon(fam).ok
        assert verify_csp(fam, F).ok


class TestPolynomials:
    def test_free_vertex_closed_form(self):
        assert free_vertex_polynomial(4, 1).coeffs == (6, 9, 11, 11, 5, 2)
        assert free_vertex_polynomial(4, 1)(1) == 44
        for n in range(1, 7):
            assert free_vertex_polynomial(n, n) == ONE

    def test_tube_count_closed_form(self):
        assert tube_count_polynomial(4, 1).coeffs == (1, 2, 3, 3, 2, 1)
        assert tube_count_polynomial(4, 1, colors=2).coeffs == (2, 4, 6, 6, 4, 2)
        assert tube_count_polynomial(3, 0) == ONE

    def test_improper_total(self):
        assert improper_total_polynomial(3).coeffs == (3, 3, 4, 2, 1)
        assert improper_total_polynomial(3)(1) == 13

    def test_colored_total_is_weighted_row_sum(self):
        n = 4
        total = sum(
            (tube_count_polynomial(n, k, colors=2) for k in range(n)),
            start=ONE - ONE,
        )
        fam = tubings_by_tube_count(n, colors=2)
        assert total(1) == sum(
            fam.counts()[(n, k)] for k in range(n)
        )


class TestOnlyLastFree:
    def test_matches_strict_counts(self):
        # interval tubings whose unique free vertex is the last one
        got = [
            sum(
                1
                for t in enumerate_tubings(n, "interval")
                if free_vertices(n, t, "interval") == {n - 1}
            )
            for n in range(1, 7)
        ]
        assert got == [1, 1, 3, 11, 45, 197]


class TestStrictPathCounts:
    # C = x * D(C) with D = (1 - t)/(1 - 2t), known below x^13
    D = TruncatedSeries.from_rational([1, -1], [1, -2], 13)

    def test_three_way_agreement(self):
        solved = list(solve_functional_equation(self.D, 13).coeffs[1:])
        assert solved == [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859, 2646723]
        assert solved == strict_path_recurrence(12)
        assert solved == [count_paths(2 * (n - 1), "strict") for n in range(1, 13)]

    def test_order_guard(self):
        with pytest.raises(NoSolution):
            solve_functional_equation(self.D, 15)
        with pytest.raises(ValueError):
            count_paths(-2, "strict")
