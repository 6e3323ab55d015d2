"""The mask-based tubings core against the set-based oracles it replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubings_oracle as oracle
from sievekit.qpoly import ZERO
from sievekit.tubings import (
    MAX_CYCLE,
    MAX_OBJECTS,
    enumerate_paths,
    enumerate_tubings,
    final_vertices,
    free_vertices,
    improper_cycle_family,
    improper_tubing_count,
    is_tubing,
    schroder_to_interval_tubing,
    tube_count_polynomial,
    tube_vertices,
    tubes_compatible,
    tubings_all_improper,
    tubings_by_free_vertices,
    tubings_by_tube_count,
)

KINDS = ("interval", "cycle")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_matches_oracle_in_order(n, kind):
    assert enumerate_tubings(n, kind) == oracle.enumerate_tubings(n, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_tube_vertices_and_compatibility_match_sets(kind):
    for n in range(1, 7):
        tubes = oracle.all_tubes(n, kind)
        for t in tubes:
            assert tube_vertices(n, t, kind) == oracle.tube_vertices(n, t, kind)
        for t1 in tubes:
            for t2 in tubes:
                assert tubes_compatible(n, t1, t2, kind) == oracle.tubes_compatible(
                    n, t1, t2, kind
                )


@pytest.mark.parametrize("kind", KINDS)
def test_free_and_final_vertices_match_sets(kind):
    for n in range(1, 7):
        for tubing in oracle.enumerate_tubings(n, kind):
            covered = set().union(*(oracle.tube_vertices(n, t, kind) for t in tubing))
            assert free_vertices(n, tubing, kind) == set(range(n)) - covered
            assert final_vertices(n, tubing, kind) == oracle.final_vertices(
                n, tubing, kind
            )


@st.composite
def tube_lists(draw):
    """A graph and a short tube list: mostly tubes that fit, some that do
    not (negative, empty, overlong, or the full cycle), repeats allowed."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 7))
    fitting = oracle.all_tubes(n, kind)
    any_tube = st.tuples(st.integers(-1, n), st.integers(0, n + 1))
    tube = st.sampled_from(fitting) | any_tube if fitting else any_tube
    return n, kind, draw(st.lists(tube, max_size=6))


@settings(max_examples=400)
@given(tube_lists())
def test_is_tubing_matches_pairwise_sets(case):
    n, kind, tubes = case
    try:
        want = oracle.is_tubing(n, tubes, kind)
    except ValueError:
        with pytest.raises(ValueError):
            is_tubing(n, tubes, kind)
    else:
        assert is_tubing(n, tubes, kind) == want


def test_ill_fitting_tubes_raise():
    for n, tube, kind in [
        (3, (2, 2), "interval"),
        (3, (-1, 1), "interval"),
        (3, (0, 0), "interval"),
        (3, (0, 3), "cycle"),
        (3, (3, 1), "cycle"),
    ]:
        with pytest.raises(ValueError):
            is_tubing(n, [(0, 1), tube], kind)
        with pytest.raises(ValueError):
            free_vertices(n, [tube], kind)
    # duplicates are refused before any tube is checked
    assert is_tubing(3, [(2, 2), (2, 2)], "interval") is False
    # not a tubing: (0, 2) is covered by its subtubes, so it has no final
    with pytest.raises(ValueError):
        final_vertices(3, {(0, 2), (0, 1), (1, 1)}, "interval")


def test_stack_decoder_matches_scan_decoder():
    for n in range(0, 8):
        for path in enumerate_paths(2 * n, "schroder"):
            assert schroder_to_interval_tubing(n, path) == (
                oracle.schroder_to_interval_tubing(n, path)
            )


def test_graded_builders_bucket_like_the_oracle():
    rank = 5
    want = {"free": {}, "tubes": {}, "all": {}}
    for n in range(1, rank + 1):
        for tubing in oracle.enumerate_tubings(n, "cycle"):
            covered = set().union(
                *(oracle.tube_vertices(n, t, "cycle") for t in tubing)
            )
            free = n - len(covered)
            if free:
                for grading, key in (
                    ("free", (n, free)), ("tubes", (n, len(tubing))), ("all", n)
                ):
                    want[grading][key] = want[grading].get(key, 0) + 1
    for grading, fam in (
        ("free", tubings_by_free_vertices(rank)),
        ("tubes", tubings_by_tube_count(rank)),
        ("all", tubings_all_improper(rank)),
    ):
        assert {s: c for s, c in fam.counts().items() if c} == want[grading]


def test_predicted_count_is_tube_count_polynomial_at_one():
    for colors in (1, 2, 3):
        for rank in range(1, 7):
            total = sum(
                (tube_count_polynomial(n, k, colors) for n in range(1, rank + 1)
                 for k in range(n)),
                start=ZERO,
            )
            assert improper_tubing_count(rank, colors) == total(1)
    fam = tubings_by_tube_count(4, colors=2)
    assert sum(fam.counts().values()) == improper_tubing_count(4, 2)


def test_job_guards_refuse_before_building():
    assert improper_tubing_count(MAX_CYCLE - 1) <= MAX_OBJECTS
    for args in [
        (0, "tubes", 1),
        (MAX_CYCLE + 1, "tubes", 1),
        (MAX_CYCLE, "tubes", 1),  # 1.79M improper tubings: over the cap
        (7, "tubes", 9),
        (3, "tubes", 0),
        (3, "free", 2),
        (3, "wheel", 1),
    ]:
        with pytest.raises(ValueError):
            improper_cycle_family(*args)
    with pytest.raises(ValueError, match=str(improper_tubing_count(7, 9))):
        improper_cycle_family(7, "tubes", 9)
