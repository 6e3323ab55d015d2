"""Cycle and interval tubings, lattice paths, and the two bijections."""

from __future__ import annotations

import pytest

from sievekit.objects import verify_csp, verify_lyndon
from sievekit.qgauss import PolyFamily
from sievekit.qpoly import ONE, q_power
from sievekit.tubings import (
    MAX_OBJECTS,
    bijection_roundtrips,
    check_bijection_job,
    classify_path,
    classify_vertices,
    cycle_tubing_to_delannoy,
    cycle_tubing_to_marked,
    delannoy_to_cycle_tubing,
    delannoy_to_marked,
    enumerate_paths,
    enumerate_tubings,
    free_vertex_polynomial,
    free_vertices,
    improper_total_polynomial,
    interval_tubing_to_schroder,
    is_proper,
    is_tubing,
    marked_to_cycle_tubing,
    marked_to_delannoy,
    schroder_to_interval_tubing,
    step_heights,
    strict_schroder_gf_check,
    tube_count_polynomial,
    tubing_masks,
    tubings_all_improper,
    tubings_by_free_vertices,
    tubings_by_tube_count,
)

INTERVAL_TOTALS = [2, 6, 22, 90, 394, 1806]
CYCLE_IMPROPER = [1, 3, 13, 63, 321, 1683]


class TestEnumeration:
    def test_interval_totals(self):
        got = [len(enumerate_tubings(n, "interval")) for n in range(1, 7)]
        assert got == INTERVAL_TOTALS

    def test_proper_interval_tubings(self):
        tubings = enumerate_tubings(3, "interval")
        proper = [t for t in tubings if is_proper(3, t, "interval")]
        assert len(proper) == 11
        assert frozenset() not in proper

    def test_cycle_improper_totals(self):
        got = []
        for n in range(1, 7):
            tubings = enumerate_tubings(n, "cycle")
            got.append(
                sum(1 for t in tubings if not is_proper(n, t, "cycle"))
            )
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
        assert classify_vertices(3, {(0, 2), (0, 1)}, "interval") == {
            0: "final", 1: "final", 2: "free"
        }
        assert classify_vertices(4, {(3, 2)}, "cycle") == {
            0: "final", 1: "free", 2: "free", 3: "nonfinal"
        }
        with pytest.raises(ValueError):
            classify_vertices(3, {(0, 3), (1, 1)}, "cycle")


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
        assert classify_path("") == "strict"
        assert classify_path("UUDD") == "strict"
        assert classify_path("UFDF") == "schroder"
        assert classify_path("DUDU") == "delannoy"
        with pytest.raises(ValueError):
            classify_path("UU")
        with pytest.raises(ValueError):
            classify_path("UXD")

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
        by_flats = [len(enumerate_paths(4, "delannoy", flats=f)) for f in range(3)]
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
            improper = [
                t
                for t in enumerate_tubings(n, "cycle")
                if not is_proper(n, t, "cycle")
            ]
            images = set()
            for tubing in improper:
                w = cycle_tubing_to_delannoy(n, tubing)
                assert delannoy_to_cycle_tubing(n, w) == tubing
                images.add(w)
            assert images == set(enumerate_paths(2 * (n - 1), "delannoy"))

    def test_worked_instance(self):
        p, j = "UUFDDFUUDDUDF", 4
        w = "DFUUDDUDDUUF"
        assert marked_to_delannoy(p, j) == w
        assert delannoy_to_marked(w) == (p, j)
        tubing = marked_to_cycle_tubing(8, p, j)
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
            assert marked_to_delannoy(p, j) == w

    def test_marked_guards(self):
        with pytest.raises(ValueError):
            marked_to_delannoy("UDF", 1)  # mark right after a rise
        with pytest.raises(ValueError):
            marked_to_delannoy("UD", 1)  # no final flat
        with pytest.raises(ValueError):
            marked_to_delannoy("FUDF", 4)  # mark beyond the first ground flat
        with pytest.raises(ValueError, match="not a valid cycle tubing"):
            cycle_tubing_to_marked(2, {(0, 1), (1, 1)})  # adjacent tubes must merge
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
                w = cycle_tubing_to_delannoy(8, tubing, basepoint=base)
                assert delannoy_to_cycle_tubing(8, w, basepoint=base) == tubing


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
    def test_three_way_agreement(self):
        out = strict_schroder_gf_check(12)
        assert out["ok"]
        assert out["solved"] == [
            1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859, 2646723
        ]
        assert out["solved"] == out["recurrence"]
        assert out["enumerated"] == out["solved"][:8]

    def test_order_guard(self):
        with pytest.raises(ValueError):
            strict_schroder_gf_check(0)
        with pytest.raises(ValueError):
            strict_schroder_gf_check(15)
