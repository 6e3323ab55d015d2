"""The mask-based tubings core against the set-based oracles it replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functools
import itertools
import re

import semigroup_oracle
import tubings_oracle as oracle
from helpers import corrupt, run_job
from tubings_oracle import is_path
from sievekit import tubings as tb
from sievekit.config import MAX_OBJECTS
from sievekit.qgauss import Census, verify_csp, verify_lyndon
from sievekit.qpoly import ZERO
from sievekit.tubings import (
    MAX_CYCLE,
    _graph,
    count_paths,
    enumerate_paths,
    enumerate_tubings,
    free_vertices,
    improper_cycle_census,
    improper_tubing_count,
    is_tubing,
    mask_to_path,
    mask_to_tubing,
    path_to_mask,
    schroder_to_interval_tubing,
    tube_count_polynomial,
    tube_vertices,
    tubes_compatible,
    tubing_masks,
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
    sizes = range(1, 9) if kind == "interval" else range(1, 8)
    for n in sizes:
        graph = _graph(n, kind)
        walks = zip(tubing_masks(n, kind), tb._path_walk(graph, graph.every), strict=True)
        for (bits, covered), (walked, path) in walks:
            assert walked == bits
            tubing = graph.tubing(bits)
            vertices = set().union(*(oracle.tube_vertices(n, t, kind) for t in tubing))
            assert covered == sum(1 << v for v in vertices)
            if n <= 6:
                assert free_vertices(n, tubing, kind) == set(range(n)) - vertices
            # the walk carries each tubing's steps in vertex order: a rise
            # per tube that starts at a vertex, then a fall at each tube's
            # final vertex and a flat elsewhere; the path is those steps on
            # the interval, four slices of them on the cycle
            finals = set(oracle.final_vertices(n, tubing, kind).values())
            starts = [sum(1 for s, _ in tubing if s == v) for v in range(n)]
            steps = ["U" * k + ("D" if v in finals else "F") for v, k in enumerate(starts)]
            assert path == oracle.vertex_order_path(n, kind, steps, covered)
            assert path == oracle.table_mask_to_path(n, bits, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_the_path_walk_lists_the_census_walk_in_order(kind):
    for n in range(1, 8):
        graph = _graph(n, kind)
        plain = [bits for bits, _ in tubing_masks(n, kind)]
        assert [bits for bits, _ in tb._path_walk(graph, graph.every)] == plain
        # and over the tubes of one tubing, as mask_to_path walks
        for bits in plain[:: max(1, len(plain) // 50)]:
            assert [s[0] for s in tb._walk(graph, bits)] == [
                s[0] for s in tb._path_walk(graph, bits)]


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
    assert is_tubing(3, {(0, 2), (0, 1), (1, 1)}, "interval") is False


def test_stack_decoder_matches_scan_decoder():
    for n in range(1, 8):
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
            improper_cycle_census(*args)
    with pytest.raises(ValueError, match=str(improper_tubing_count(7, 9))):
        improper_cycle_census(7, "tubes", 9)


def test_builders_refuse_what_the_cli_refuses():
    for build in (
        lambda: tubings_by_free_vertices(0),
        lambda: tubings_all_improper(MAX_CYCLE + 1),
        lambda: tubings_by_tube_count(MAX_CYCLE),
        lambda: tubings_by_tube_count(7, colors=9),
        lambda: tubings_by_tube_count(3, colors=0),
    ):
        with pytest.raises(ValueError):
            build()


# -- the bitset kernels ---------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_tubing_masks_cover_the_union_of_their_tubes(kind):
    for n in range(1, 7):
        graph = _graph(n, kind)
        pairs = list(tubing_masks(n, kind))
        assert [graph.tubing(bits) for bits, _ in pairs] == oracle.enumerate_tubings(n, kind)
        for bits, covered in pairs:
            vertices = set().union(
                *(oracle.tube_vertices(n, t, kind) for t in graph.tubing(bits))
            )
            assert covered == sum(1 << v for v in vertices)


def test_tubing_masks_refuse_bad_sizes_and_kinds_before_building_a_graph():
    cached = _graph.cache_info().currsize
    for kind in KINDS:
        for n in (0, -1, -2, -3):
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                tubing_masks(n, kind)
    assert _graph.cache_info().currsize == cached
    for n in (20, 3, 0):
        with pytest.raises(ValueError, match="unknown graph kind 'bogus'"):
            tubing_masks(n, "bogus")


@pytest.mark.parametrize("kind", KINDS)
def test_graph_helpers_refuse_sizes_below_one_without_caching_a_graph(kind):
    cached = _graph.cache_info().currsize
    for n in (0, -1):
        for call in (
            lambda: is_tubing(n, [], kind),
            lambda: free_vertices(n, [], kind),
            lambda: tube_vertices(n, (0, 1), kind),
            lambda: mask_to_tubing(n, 0, kind),
        ):
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                call()
    assert _graph.cache_info().currsize == cached


@pytest.mark.parametrize("kind", KINDS)
def test_graph_helpers_refuse_sizes_past_the_cap_without_caching_a_graph(kind):
    """n past the cap once built and kept an n-vertex graph (is_tubing at
    n = 60 took 0.5 s); now each helper refuses it as tubing_masks does."""
    cap = tb.MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    cached = _graph.cache_info().currsize
    for n in (cap + 1, 40, 80):
        for call in (
            lambda: is_tubing(n, [(0, 1)], kind),
            lambda: tubes_compatible(n, (0, 1), (2, 1), kind),
            lambda: free_vertices(n, [], kind),
            lambda: tube_vertices(n, (0, 1), kind),
            lambda: mask_to_tubing(n, 0, kind),
        ):
            with pytest.raises(ValueError, match=f"refusing to enumerate {kind} tubings beyond"
                                                 f" n = {cap}"):
                call()
    assert _graph.cache_info().currsize == cached
    # the caps themselves are served
    assert is_tubing(cap, [(0, 1)], kind) and tubes_compatible(cap, (0, 1), (2, 1), kind)
    assert free_vertices(cap, [], kind) == set(range(cap))
    assert tube_vertices(cap, (0, 1), kind) == {0} and mask_to_tubing(cap, 0, kind) == frozenset()


@pytest.mark.parametrize("kind", KINDS)
def test_bitset_maps_refuse_bits_past_the_tubes(kind):
    """A negative bitset, or one naming a tube index the graph lacks, is
    no tubing: ValueError before any walk."""
    tubes = len(_graph(3, kind).tubes)
    for bits in (-1, -2, 1 << tubes, 1 << 40, (1 << 40) | 1, -(1 << 40)):
        for call in (mask_to_path, mask_to_tubing):
            with pytest.raises(ValueError, match=f"not a valid {kind} tubing"):
                call(3, bits, kind)
    assert mask_to_tubing(3, (1 << tubes) - 1, kind)  # the top index still fits


@pytest.mark.parametrize("kind", KINDS)
def test_path_maps_refuse_sizes_tubing_masks_refuses_without_a_graph(kind):
    cap = tb.MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    path = "F" * (2 * cap)
    cached = _graph.cache_info().currsize
    for n in (cap + 1, 13, 40):
        for call in (lambda: mask_to_path(n, 0, kind), lambda: path_to_mask(n, path, kind),
                     lambda: list(tubing_masks(n, kind))):
            with pytest.raises(ValueError, match=f"refusing to enumerate {kind} tubings beyond"
                                                 f" n = {cap}"):
                call()
    for n in (0, -1):
        for call in (lambda: mask_to_path(n, 0, kind), lambda: path_to_mask(n, "", kind)):
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                call()
    assert _graph.cache_info().currsize == cached
    # the caps themselves are served
    assert mask_to_path(cap, 0, kind) == ("F" * cap if kind == "interval" else "F" * (cap - 1))
    assert path_to_mask(cap, mask_to_path(cap, 0, kind), kind) == 0


def test_path_functions_refuse_an_unknown_kind_alike():
    for call in (
        lambda kind: is_path("UD", 2, kind),
        lambda kind: count_paths(2, kind),
        lambda kind: enumerate_paths(2, kind),
    ):
        with pytest.raises(ValueError, match="unknown path kind 'bogus'"):
            call("bogus")


@pytest.mark.parametrize("length", (1, 3, -2, -1))
def test_path_functions_refuse_an_odd_or_negative_length_alike(length):
    # is_path("U", 1) among them: an odd length raises, as in count_paths
    for call in (
        lambda kind: is_path("U" * max(length, 0), length, kind),
        lambda kind: count_paths(length, kind),
        lambda kind: enumerate_paths(length, kind),
    ):
        for kind in ("delannoy", "schroder", "strict"):
            with pytest.raises(ValueError, match=f"must be even and nonnegative, got {length}"):
                call(kind)


@pytest.mark.parametrize("kind", ("delannoy", "schroder", "strict"))
def test_count_paths_counts_what_enumerate_paths_lists(kind):
    for length in range(0, 19, 2):
        assert count_paths(length, kind) == len(enumerate_paths(length, kind))
    with pytest.raises(ValueError):
        count_paths(3, kind)
    with pytest.raises(ValueError):
        count_paths(4, "motzkin")


PATH_KINDS = ("strict", "schroder", "delannoy")  # strongest first


def _words_up_to(max_length: int) -> dict[int, list[str]]:
    """Every word over U, D, F by its x-extent (a flat is two wide)."""
    words = {0: [""], 1: ["U", "D"]}
    for length in range(2, max_length + 1):
        words[length] = [w + s for s in "UD" for w in words[length - 1]]
        words[length] += [w + "F" for w in words[length - 2]]
    return words


def test_path_functions_match_the_branching_oracle_up_to_length_12():
    words = _words_up_to(12)
    member = {}
    for length in range(0, 13, 2):
        for kind in PATH_KINDS:
            listed = oracle.enumerate_paths(length, kind)
            assert enumerate_paths(length, kind) == listed
            assert count_paths(length, kind) == len(listed)
            member[length, kind] = set(listed)
    for word_length, group in words.items():
        for w in group:
            for length in range(0, 13, 2):
                for kind in PATH_KINDS:
                    want = length == word_length and w in member[length, kind]
                    assert is_path(w, length, kind) == want
    for w in ("X", "UXD", "UDFX", "udf", "U D", "XX", "UXXD", "UDFXX"):  # unknown steps
        length = len(w) + w.count("F")
        for kind in PATH_KINDS:
            if length % 2:
                with pytest.raises(ValueError, match="must be even"):
                    is_path(w, length, kind)
            else:
                assert not is_path(w, length, kind)


def test_is_path_accepts_exactly_the_enumerated_paths():
    words = ["".join(w) for m in range(9) for w in itertools.product("UDF", repeat=m)]
    words += ["X", "UXD", "UDFX", "udf"]  # unknown steps are never paths
    for kind in ("delannoy", "schroder", "strict"):
        for length in range(0, 9, 2):
            listed = set(enumerate_paths(length, kind))
            assert {w for w in words if is_path(w, length, kind)} == listed


def _rotate(graph, bits, step):
    """A cycle tube set rotated by ``step`` vertices, as the census rotates it."""
    stay, wrap = graph.rotation(step)
    return (bits << step) & stay | (bits >> (graph.n - step)) & wrap


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_rotation_maps_tubings_to_tubings_of_the_same_grade(n):
    graph = _graph(n, "cycle")
    covered_by = dict(tubing_masks(n, "cycle"))
    for bits, covered in covered_by.items():
        turned = _rotate(graph, bits, 1)
        assert turned in covered_by
        assert turned.bit_count() == bits.bit_count()
        assert covered_by[turned].bit_count() == covered.bit_count()
        # the bitset rotation is the rotation of the tubes
        tubes = graph.tubing(bits)
        for step in range(n):
            want = graph.bits(((s + step) % n, length) for s, length in tubes)
            assert _rotate(graph, bits, step) == want


CENSUS_JOBS = [(8, g, 1) for g in ("free", "tubes", "all")] + [
    (6, "tubes", 2), (6, "tubes", 3),
]


@pytest.mark.parametrize("job", CENSUS_JOBS, ids=[f"{r}-{g}-{c}" for r, g, c in CENSUS_JOBS])
def test_bitset_census_equals_the_oracle_census(job):
    census, F = improper_cycle_census(*job)
    assert census.rows == oracle.cycle_census(*job)
    want = Census(census.instance, census.window, oracle.cycle_census(*job))
    assert verify_lyndon(census) == verify_lyndon(want)
    assert verify_csp(want, F).ok
    s = next(s for s, _ in F.polys if semigroup_oracle.rank(F.instance, s) == 6)
    for G in (F, corrupt(F, s)):
        assert verify_csp(census, G) == verify_csp(want, G)


# -- the streaming bijection check against the stored one -------------------------------


def _swapped(walk, n, kind, a, b):
    """The kernel's path walk with the paths of the bitsets a and b of the
    n-vertex graph of the kind exchanged."""
    pa, pb = mask_to_path(n, a, kind), mask_to_path(n, b, kind)

    def swapped(graph, candidates):
        for bits, path in walk(graph, candidates):
            if (graph.n, graph.kind) == (n, kind) and path in (pa, pb):
                path = pb if path == pa else pa
            yield bits, path

    return swapped


def _misdecoded(decode, path, wrong):
    """A graph's decoder, except that ``path`` decodes to the bitset ``wrong``."""

    def misdecoded(p):
        return wrong if p == path else decode(p)

    return misdecoded


def _plant(monkeypatch, fault):
    """Plant a fault at size 4 where both bijection checks reach it: in
    ``tb._path_walk``, the walk that yields each tubing's path, which the
    streaming loop runs over every tubing and ``mask_to_path`` (under the
    frozenset maps of the stored check) runs to one bitset; in the 4-vertex
    graph's ``decode``, which ``round_trip`` and ``path_to_mask`` call; or
    in the path set, listed and counted."""
    n = 4
    kind = fault.split("-")[0]
    interval = [bits for bits, *_ in tubing_masks(n, "interval")]
    improper = [bits for bits, covered in tubing_masks(n, "cycle") if covered != 15]
    if kind == "interval":
        swap, (victim, wrong) = (interval[5], interval[17]), (interval[40], interval[3])
    else:
        swap, (victim, wrong) = (improper[7], improper[30]), (improper[20], improper[2])
    if fault.endswith("-swap"):
        monkeypatch.setattr(tb, "_path_walk", _swapped(tb._path_walk, n, kind, *swap))
    elif fault.endswith("-decode"):
        graph, path = _graph(n, kind), mask_to_path(n, victim, kind)
        monkeypatch.setattr(graph, "decode", _misdecoded(graph.decode, path, wrong))
    else:  # the path set, listed and counted, misses one path
        target = (2 * n, "schroder") if kind == "interval" else (2 * (n - 1), "delannoy")
        paths, count = tb.enumerate_paths, tb.count_paths
        dropped = paths(*target)[9]

        def fewer_paths(length, k="delannoy"):
            out = paths(length, k)
            return [p for p in out if p != dropped] if (length, k) == target else out

        def fewer(length, k="delannoy"):
            return count(length, k) - ((length, k) == target)

        monkeypatch.setattr(tb, "enumerate_paths", fewer_paths)
        monkeypatch.setattr(tb, "count_paths", fewer)


# The witness each planted fault reports: the first tubing whose round trip
# fails, or the smallest path the images miss.
FAULT_WITNESSES = {
    "interval-swap": {"n": 4, "path": "UUUDDFD", "tubing": [[0, 1], [0, 3], [2, 1]]},
    "cycle-swap": {"n": 4, "path": "UUDUDD", "tubing": [[0, 1], [0, 2], [3, 3]]},
    "interval-decode": {"n": 4, "path": "UFUDDF", "tubing": [[0, 3], [1, 1]]},
    "cycle-decode": {"n": 4, "path": "UDDUDU", "tubing": [[0, 2], [1, 1], [3, 3]]},
    "interval-paths": {"n": 4, "path": "FUDUDUD", "detail": "image mismatch"},
    "cycle-paths": {"n": 4, "path": "DFUDU", "detail": "image mismatch"},
}
FAULTS = list(FAULT_WITNESSES)


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_bijection_faults_report_like_the_stored_check(monkeypatch, fault):
    kind = fault.split("-")[0]
    _plant(monkeypatch, fault)
    got = run_job("bijection", {"kind": kind, "max_n": 5})
    want = oracle.bijection_payload(tb, kind, 5)
    assert got == want
    payload, code = got
    assert code == 2 and payload["witness"] == FAULT_WITNESSES[fault]


@pytest.mark.parametrize("kind", KINDS)
def test_streaming_bijection_check_equals_the_stored_one(kind):
    assert run_job("bijection", {"kind": kind, "max_n": 6}) == oracle.bijection_payload(
        tb, kind, 6
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("planted", ["UUU", "DU", "UFX"])
def test_planted_non_path_image_names_its_tubing(monkeypatch, kind, planted):
    """An image off the target path set (an end off height 0, a dip below
    0 on the interval, a wrong length on the cycle, an unknown step) exits 2
    naming the tubing and the image, in the streaming check as in the
    stored one."""
    n = 4
    walk = tb._path_walk
    victim = [bits for bits, covered in tubing_masks(n, kind) if covered != 15][11]
    passing = run_job("bijection", {"kind": kind, "max_n": n - 1})[0]["per_n"]

    def planted_walk(graph, candidates):
        for bits, path in walk(graph, candidates):
            if (graph.n, graph.kind, bits) == (n, kind, victim):
                path = planted
            yield bits, path

    monkeypatch.setattr(tb, "_path_walk", planted_walk)
    payload, code = run_job("bijection", {"kind": kind, "max_n": 5})
    assert (payload, code) == oracle.bijection_payload(tb, kind, 5)
    assert code == 2 and payload["ok"] is False
    assert payload["per_n"] == passing
    tubing = tb.tubing_to_jsonable(_graph(n, kind).tubing(victim))
    assert payload["witness"] == {"n": n, "tubing": tubing, "path": planted}


# -- the walk-carried path kernel against the reference maps -------------------------


KERNEL_SIZES = [(n, "interval") for n in range(1, 9)] + [(n, "cycle") for n in range(1, 8)]


def _target(n, kind):
    return (2 * n, "schroder") if kind == "interval" else (2 * (n - 1), "delannoy")


@pytest.mark.parametrize("n,kind", KERNEL_SIZES, ids=[f"{n}-{k}" for n, k in KERNEL_SIZES])
def test_path_maps_match_the_list_building_kernels(n, kind):
    """Every tubing's path, as the walk yields it to ``round_trip`` and to
    ``mask_to_path``, is the reference path; every path of the target set
    P_n, not only the images, decodes to the reference bitset; and the
    table-driven kernels the walk replaced agree."""
    if kind == "interval":
        ref_fwd = oracle.ref_interval_mask_to_schroder
        ref_inv = oracle.ref_schroder_to_interval_mask
        wrap, ref_wrap = tb.interval_tubing_to_schroder, oracle.ref_interval_tubing_to_schroder
    else:
        ref_fwd, ref_inv = oracle.ref_cycle_mask_to_delannoy, oracle.ref_delannoy_to_cycle_mask
        wrap, ref_wrap = tb.cycle_tubing_to_delannoy, oracle.ref_cycle_tubing_to_delannoy
    graph = _graph(n, kind)
    for bits, image in tb._path_walk(graph, graph.every):
        path = ref_fwd(n, bits)
        assert image == path == oracle.table_mask_to_path(n, bits, kind)
        if n <= 6:  # the single-mask map walks to its bitset
            assert mask_to_path(n, bits, kind) == path
    for path in enumerate_paths(*_target(n, kind)):
        bits = ref_inv(n, path)
        assert graph.decode(path) == bits == oracle.table_path_to_mask(n, path, kind)
        assert path_to_mask(n, path, kind) == bits
    if n <= 5:  # the frozenset forms go through the same kernel
        for bits, *_ in tubing_masks(n, kind):
            tubing = graph.tubing(bits)
            assert wrap(n, tubing) == ref_wrap(n, tubing)


def _non_paths(paths, n, kind):
    """Planted non-paths of P_n made from its paths: wrong lengths, an
    unknown step, U/D imbalances at the right length, and on the interval
    a dip below 0 at the right length."""
    out = set()
    for p in paths:
        out |= {p + "F", p[:-1], p + "UD", p.replace("F", "X", 1), p[:-1] + "?"}
        if "F" in p:
            out |= {p.replace("F", "UU", 1), p.replace("F", "DD", 1)}
        out.add(p.replace("U", "D", 1) if "U" in p else p + "DD")
    if kind == "interval":  # a rise and fall around a dip below 0, at the right length
        out |= {"D" + p + "U" for p in enumerate_paths(2 * n - 2, "schroder")}
    return out - set(paths)


@pytest.mark.parametrize("n,kind", KERNEL_SIZES, ids=[f"{n}-{k}" for n, k in KERNEL_SIZES])
def test_one_pass_decoder_refuses_exactly_what_is_path_refuses(n, kind):
    """The decoder refuses exactly the words outside P_n, and decodes each
    path of P_n to the reference bitset, and gives the value and the
    refusal of the stack decoder it replaced, word by word: on the
    interval, the stackless scan from the right; on the cycle, the scan
    that finds the mark, then the interval's scan of the marked path."""
    graph = _graph(n, kind)
    length, target = _target(n, kind)
    paths = enumerate_paths(length, target)
    words = set(paths) | _non_paths(paths, n, kind)
    # far too many vertices, past every row of the decoder's table; an
    # unknown step first, last, or after a whole path
    words |= {w for p in paths[:50] for w in (p * 3 + "F", "X" + p, p + "X", p + "UX")}
    if n <= 4:  # and every word over U, D, F of x-extent up to the length plus 4
        words |= {w for group in _words_up_to(length + 4).values() for w in group}
    ref = (oracle.ref_schroder_to_interval_mask if kind == "interval"
           else oracle.ref_delannoy_to_cycle_mask)
    if kind == "interval":
        replaced = functools.partial(oracle.stack_decode, graph)
    else:
        replaced = oracle.stack_cycle_decoder(n, graph.path_tables[3])
    for w in words:
        got = graph.decode(w)
        assert (got >= 0) == is_path(w, length, target), w
        if got >= 0:
            assert got == ref(n, w), w
        assert got == replaced(w), w
    refused = words - set(paths)
    assert refused and all(graph.decode(w) == -1 for w in refused)
    with pytest.raises(ValueError, match="is not a"):
        path_to_mask(n, min(refused), kind)


def test_marked_paths_match_the_two_pass_restoration():
    words = ["".join(w) for m in range(9) for w in itertools.product("UDF", repeat=m)]
    for w in words + ["X", "UXD", "DUX"]:
        try:
            want = oracle.ref_delannoy_to_marked(w)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                oracle.delannoy_to_marked(w)
        else:
            assert oracle.delannoy_to_marked(w) == want
    for n in range(1, 7):
        for bits, _ in tubing_masks(n, "cycle"):
            path = mask_to_path(n, bits, "cycle")
            marked = oracle.delannoy_to_marked(path)
            assert marked == oracle.ref_cycle_mask_to_marked(n, bits)
            # the decoder cuts where the restoration does
            assert path_to_mask(n, path, "cycle") == oracle.ref_marked_to_cycle_mask(n, *marked)
