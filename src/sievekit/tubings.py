"""Tubings of interval and cycle graphs, and their lattice-path bijections.

A tube is a nonempty connected vertex set; a tubing is a set of tubes that
are pairwise nested, or disjoint with no edge between them.  Vertices are
0-indexed; on the cycle they run clockwise and arcs wrap modulo n.  Tubes
are stored as (start, length) pairs.  On the interval the full vertex set
is a valid tube; on the cycle the full circle is excluded.

Lattice paths are strings over U = (1,1), D = (1,-1), F = (2,0), and the
length of a path is its x-extent.  The height of a step is the y-coordinate
before it.  Tubings of the n-interval biject with nonnegative paths of
length 2n; improper tubings of the n-cycle biject with unrestricted paths
of length 2(n-1), through an intermediate marked path.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import Callable, Iterable, Mapping

from .gaussseq import TruncatedSeries, solve_functional_equation
from .objects import CyclicFamily, CyclicObject
from .qgauss import PolyFamily
from .qpoly import IntPoly, ONE, ZERO, q_binomial, q_power
from .semigroup import Chain, PositiveIntegers, Window

Tube = tuple[int, int]
Tubing = frozenset

MAX_INTERVAL = 12
MAX_CYCLE = 10
# csp and bijection jobs predicting more tubings than this are refused
MAX_IMPROPER_OBJECTS = 400_000

_STEP_X = {"U": 1, "D": 1, "F": 2}
_STEP_Y = {"U": 1, "D": -1, "F": 0}


# -- tubes and tubings -------------------------------------------------------------


def interval_tubes(n: int) -> list[Tube]:
    """All tubes of the n-vertex interval graph, the full interval included."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [
        (start, length)
        for length in range(1, n + 1)
        for start in range(0, n - length + 1)
    ]

def cycle_tubes(n: int) -> list[Tube]:
    """All tubes of the n-vertex cycle graph; the full circle is not a tube."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [(start, length) for length in range(1, n) for start in range(n)]


class _Graph:
    """The tubes of one graph in enumeration order, as vertex masks.

    Bit v of a mask is vertex v; bit i of a tube set is ``tubes[i]``.
    ``compat()[i]`` is the set of tubes compatible with tube i (itself
    included).  It is quadratic in the number of tubes, so it is built on
    first use.
    """

    def __init__(self, n: int, kind: str) -> None:
        if kind not in ("interval", "cycle"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if n < 1:  # no vertices, so no tubes: only the empty tubing
            tubes, n = [], 0
        else:
            tubes = interval_tubes(n) if kind == "interval" else cycle_tubes(n)
        self.n, self.kind, self.full = n, kind, (1 << n) - 1
        self.tubes = tubes
        self.index = {t: i for i, t in enumerate(tubes)}
        self.masks = []
        for start, length in tubes:
            mask = ((1 << length) - 1) << start
            self.masks.append((mask | mask >> n) & self.full)  # wrap on the cycle
        self._compat: list[int] | None = None

    def indices(self, tubes: Iterable[Tube]) -> list[int]:
        """Index of each tube; ValueError on a tube that does not fit."""
        try:
            return [self.index[t] for t in tubes]
        except KeyError as e:
            raise ValueError(
                f"tube {e.args[0]!r} does not fit in the {self.n}-{self.kind}"
            ) from None

    def compat(self) -> list[int]:
        if self._compat is None:
            n, full = self.n, self.full
            self._compat = []
            for a in self.masks:
                near = a | a << 1 | a >> 1  # a and its neighbours
                if self.kind == "cycle":
                    near |= a >> (n - 1) | a << (n - 1)
                near &= full
                row = 0
                for j, b in enumerate(self.masks):
                    both = a & b
                    # nested, or disjoint with no edge between
                    if both == a or both == b or not b & near:
                        row |= 1 << j
                self._compat.append(row)
        return self._compat


@functools.lru_cache(maxsize=None)
def _graph(n: int, kind: str) -> _Graph:
    return _Graph(n, kind)


def _vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def tube_vertices(n: int, tube: Tube, kind: str = "interval") -> frozenset:
    graph = _graph(n, kind)
    (i,) = graph.indices((tube,))
    return frozenset(_vertices(graph.masks[i]))


def tubes_compatible(n: int, t1: Tube, t2: Tube, kind: str = "interval") -> bool:
    """Nested, or vertex-disjoint with no edge between the two tubes."""
    graph = _graph(n, kind)
    i, j = graph.indices((t1, t2))
    return bool(graph.compat()[i] >> j & 1)


def is_tubing(n: int, tubes: Iterable[Tube], kind: str = "interval") -> bool:
    tubes = list(tubes)
    if len(set(tubes)) != len(tubes):
        return False
    graph = _graph(n, kind)
    indices = graph.indices(tubes)
    chosen = 0
    for i in indices:
        chosen |= 1 << i
    compat = graph.compat()
    return all(chosen & compat[i] == chosen for i in indices)


def enumerate_tubings(n: int, kind: str = "interval") -> list[Tubing]:
    """Every tubing of the n-interval or n-cycle, the empty tubing included.

    Depth-first over tube indices: each branch carries the bitset of later
    tubes still compatible with everything chosen, and takes them in
    increasing index order.
    """
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if n > cap:
        raise ValueError(f"refusing to enumerate {kind} tubings beyond n = {cap}")
    graph = _graph(n, kind)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    tubes, compat = graph.tubes, graph.compat()
    out: list[Tubing] = []
    chosen: list[Tube] = []

    def rec(candidates: int) -> None:
        out.append(frozenset(chosen))
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            t = low.bit_length() - 1
            chosen.append(tubes[t])
            rec(candidates & compat[t])
            chosen.pop()

    rec((1 << len(tubes)) - 1)
    return out


def free_vertices(n: int, tubing: Iterable[Tube], kind: str = "interval") -> set[int]:
    graph = _graph(n, kind)
    covered = 0
    for i in graph.indices(tubing):
        covered |= graph.masks[i]
    return set(_vertices(graph.full ^ covered))


def is_proper(n: int, tubing: Iterable[Tube], kind: str = "interval") -> bool:
    return not free_vertices(n, tubing, kind)


def final_vertices(n: int, tubing: Iterable[Tube], kind: str = "interval") -> dict[Tube, int]:
    """Map each tube to the last of its vertices not in a subtube.

    Within a tubing the proper subtubes of a tube never cover it, so the
    final vertex always exists, and distinct tubes get distinct finals.
    On the cycle "last" follows the tube's clockwise traversal.
    """
    tubes = list(set(tubing))
    graph = _graph(n, kind)
    masks = [graph.masks[i] for i in graph.indices(tubes)]
    out: dict[Tube, int] = {}
    for tube, mine in zip(tubes, masks):
        rest = mine
        for other in masks:
            if other != mine and other & mine == other:
                rest &= ~other
        if not rest:
            raise ValueError(f"tube {tube!r} is covered by its subtubes")
        start = tube[0]
        # rotate the tube's start to bit 0, so its traversal runs upwards
        walk = (rest >> start | rest << (n - start)) & graph.full
        out[tube] = (start + walk.bit_length() - 1) % n
    return out


def classify_vertices(n: int, tubing: Iterable[Tube], kind: str = "interval") -> dict[int, str]:
    """Per-vertex classification: free, final, or nonfinal."""
    tubing = set(tubing)
    if not is_tubing(n, tubing, kind):
        raise ValueError(f"not a valid {kind} tubing")
    finals = set(final_vertices(n, tubing, kind).values())
    frees = free_vertices(n, tubing, kind)
    out = {}
    for v in range(n):
        out[v] = "free" if v in frees else ("final" if v in finals else "nonfinal")
    return out


# -- lattice paths -----------------------------------------------------------------


def path_length(path: str) -> int:
    return sum(_STEP_X[s] for s in path)


def step_heights(path: str) -> list[int]:
    """Height before each step."""
    out = []
    h = 0
    for s in path:
        if s not in _STEP_X:
            raise ValueError(f"unknown step {s!r} in {path!r}")
        out.append(h)
        h += _STEP_Y[s]
    return out


def classify_path(path: str) -> str:
    """The strongest of delannoy / schroder / strict that the path satisfies."""
    h = 0
    nonneg = True
    strict = True
    for s in path:
        if s not in _STEP_X:
            raise ValueError(f"unknown step {s!r} in {path!r}")
        if s == "F" and h == 0:
            strict = False
        h += _STEP_Y[s]
        if h < 0:
            nonneg = False
    if h != 0:
        raise ValueError(f"path {path!r} does not return to height 0")
    if nonneg and strict:
        return "strict"
    if nonneg:
        return "schroder"
    return "delannoy"


def enumerate_paths(length: int, kind: str = "delannoy", flats: int | None = None) -> list[str]:
    """All paths of the given x-extent, optionally with a fixed F count."""
    if kind not in ("delannoy", "schroder", "strict"):
        raise ValueError(f"unknown path kind {kind!r}")
    if length < 0 or length % 2:
        raise ValueError(f"path length must be even and nonnegative, got {length}")
    out: list[str] = []
    acc: list[str] = []

    def rec(rem: int, h: int, nf: int) -> None:
        if abs(h) > rem:
            return
        if rem == 0:
            if h == 0 and (flats is None or nf == flats):
                out.append("".join(acc))
            return
        acc.append("U")
        rec(rem - 1, h + 1, nf)
        acc.pop()
        if kind == "delannoy" or h >= 1:
            acc.append("D")
            rec(rem - 1, h - 1, nf)
            acc.pop()
        if rem >= 2 and not (kind == "strict" and h == 0):
            acc.append("F")
            rec(rem - 2, h, nf + 1)
            acc.pop()

    rec(length, 0, 0)
    return sorted(out)


# -- interval bijection ------------------------------------------------------------


def interval_tubing_to_schroder(n: int, tubing: Iterable[Tube]) -> str:
    """Walk the interval: a rise per tube started, then a fall at a final
    vertex or a flat otherwise."""
    tubing = set(tubing)
    if not is_tubing(n, tubing, "interval"):
        raise ValueError("not a valid interval tubing")
    finals = set(final_vertices(n, tubing).values())
    opens = [0] * n
    for start, _ in tubing:
        opens[start] += 1
    return "".join(
        "U" * opens[v] + ("D" if v in finals else "F") for v in range(n)
    )


def schroder_to_interval_tubing(n: int, path: str) -> Tubing:
    """Each rise opens a tube; it closes right before the next flat or fall
    at the rise's height, or at the end of the path."""
    if classify_path(path) == "delannoy":
        raise ValueError(f"path {path!r} dips below height 0")
    if path_length(path) != 2 * n:
        raise ValueError(f"need length {2 * n}, got {path_length(path)}")
    tubes: list[Tube] = []
    # (height, first vertex) of each rise not yet closed, innermost last;
    # heights never decrease up the stack
    rises: list[tuple[int, int]] = []
    h = vi = 0
    for s in path:
        if s == "U":
            rises.append((h, vi))
            h += 1
            continue
        while rises and rises[-1][0] == h:
            start = rises.pop()[1]
            tubes.append((start, vi - start))
        vi += 1
        h += _STEP_Y[s]
    tubes.extend((start, vi - start) for _, start in rises)
    tubing = frozenset(tubes)
    if not is_tubing(n, tubing, "interval"):
        raise ValueError(f"path {path!r} does not decode to a tubing")
    return tubing


# -- cycle bijection ---------------------------------------------------------------


def _marked_ok(path: str, j: int) -> bool:
    if not path or path[-1] != "F":
        return False
    heights = step_heights(path)
    if classify_path(path) == "delannoy":
        return False
    first_flat0 = next(
        t for t, s in enumerate(path) if s == "F" and heights[t] == 0
    )
    return 1 <= j <= first_flat0 + 1 and path[j - 1] in ("D", "F")


def cycle_tubing_to_marked(n: int, tubing: Iterable[Tube], basepoint: int = 0) -> tuple[str, int]:
    """Unroll an improper cycle tubing to a marked nonnegative path (p, j).

    The cycle is cut after the free vertex preceding the basepoint, so the
    linearized tubing has its last vertex free; the mark j is the step of
    the vertex that was the basepoint.
    """
    tubing = set(tubing)
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError("not a valid cycle tubing")
    if basepoint % n:
        tubing = {((s - basepoint) % n, length) for s, length in tubing}
    frees = free_vertices(n, tubing, "cycle")
    if not frees:
        raise ValueError("tubing is proper: it has no free vertex to cut at")
    f = max(frees - {0}) if frees != {0} else 0
    shift = lambda v: (v - f - 1) % n
    unrolled = frozenset((shift(s), length) for s, length in tubing)
    p = interval_tubing_to_schroder(n, unrolled)
    i = shift(0) + 1
    vertex_steps = [t for t, s in enumerate(p) if s in ("D", "F")]
    j = vertex_steps[i - 1] + 1
    return p, j


def marked_to_cycle_tubing(n: int, path: str, j: int, basepoint: int = 0) -> Tubing:
    if not _marked_ok(path, j):
        raise ValueError(f"({path!r}, {j}) is not a marked path")
    unrolled = schroder_to_interval_tubing(n, path)
    i = sum(1 for s in path[:j] if s in ("D", "F"))
    tubing = frozenset(
        ((s - (i - 1) + basepoint) % n, length) for s, length in unrolled
    )
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError(f"({path!r}, {j}) does not roll up to a cycle tubing")
    return tubing


def marked_to_delannoy(path: str, j: int) -> str:
    """Drop the final flat and rotate the mark to the front of the cut."""
    if not _marked_ok(path, j):
        raise ValueError(f"({path!r}, {j}) is not a marked path")
    m = len(path)
    if j == m:
        return path[:-1]
    return path[j : m - 1] + path[j - 1] + path[: j - 1]


def delannoy_to_marked(path: str) -> tuple[str, int]:
    """Restore the marked nonnegative path from an unrestricted one.

    The cut point is recovered from the lowest level of the path: the last
    flat at that level if there is one, the first step reaching it if the
    path dips below zero, and the appended final flat otherwise.
    """
    heights_after: list[int] = []
    h = 0
    for s in path:
        if s not in _STEP_X:
            raise ValueError(f"unknown step {s!r} in {path!r}")
        h += _STEP_Y[s]
        heights_after.append(h)
    if h != 0:
        raise ValueError(f"path {path!r} does not return to height 0")
    m = len(path)
    min_h = min(heights_after, default=0)
    flats_at_min = [
        t for t, s in enumerate(path) if s == "F" and heights_after[t] == min_h
    ]
    if flats_at_min:
        s0 = flats_at_min[-1]
    elif min_h == 0:
        return path + "F", m + 1
    else:
        s0 = heights_after.index(min_h)
    p = path[s0 + 1 :] + path[s0] + path[:s0] + "F"
    return p, m - s0


def cycle_tubing_to_delannoy(n: int, tubing: Iterable[Tube], basepoint: int = 0) -> str:
    p, j = cycle_tubing_to_marked(n, tubing, basepoint)
    return marked_to_delannoy(p, j)


def delannoy_to_cycle_tubing(n: int, path: str, basepoint: int = 0) -> Tubing:
    if path_length(path) != 2 * (n - 1):
        raise ValueError(f"need length {2 * (n - 1)}, got {path_length(path)}")
    p, j = delannoy_to_marked(path)
    return marked_to_cycle_tubing(n, p, j, basepoint)


# -- cyclic families of tubings ----------------------------------------------------


def cycle_tubing_object(n: int, tubing: Iterable[Tube], colors: Mapping | None = None) -> CyclicObject:
    """Encode a cycle tubing slotwise: per vertex, the (length, offset,
    color) of each tube through it, sorted.  Rotation of the cycle is
    rotation of the encoding."""
    slots: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for tube in tubing:
        start, length = tube
        color = colors.get(tube, 0) if colors else 0
        for i in range(length):
            slots[(start + i) % n].append((length, i, color))
    return CyclicObject("tubing", tuple(tuple(sorted(sl)) for sl in slots))


def _improper_family(
    max_rank: int,
    colors: int,
    instance: Chain | PositiveIntegers,
    window: Window,
    grade: Callable[[int, int, int], object],
) -> CyclicFamily:
    """Colored improper cycle tubings of lengths 1..max_rank, each put once
    into the bucket of its grade(length, tube count, free-vertex count)."""
    buckets: dict[object, list[CyclicObject]] = {}
    for n in range(1, max_rank + 1):
        for tubing in enumerate_tubings(n, "cycle"):
            free = len(free_vertices(n, tubing, "cycle"))
            if not free:
                continue
            bucket = buckets.setdefault(grade(n, len(tubing), free), [])
            tubes = sorted(tubing)
            for assignment in itertools.product(range(1, colors + 1), repeat=len(tubes)):
                bucket.append(cycle_tubing_object(n, tubing, dict(zip(tubes, assignment))))
    return CyclicFamily.from_generator(instance, window, lambda s: buckets.pop(s, ()))


def tubings_by_free_vertices(max_rank: int, colors: int = 1) -> CyclicFamily:
    """Improper cycle tubings graded by (length, free-vertex count)."""
    return _improper_family(
        max_rank, colors, Chain(PositiveIntegers(), "pos"),
        Window(max_rank, ((1, max_rank),)), lambda n, tubes, free: (n, free),
    )


def tubings_by_tube_count(max_rank: int, colors: int = 1) -> CyclicFamily:
    """Improper cycle tubings graded by (length, tube count)."""
    return _improper_family(
        max_rank, colors, Chain(PositiveIntegers(), "nonneg"),
        Window(max_rank, ((0, max_rank),)), lambda n, tubes, free: (n, tubes),
    )


def tubings_all_improper(max_rank: int) -> CyclicFamily:
    """All improper cycle tubings graded by length alone."""
    return _improper_family(
        max_rank, 1, PositiveIntegers(), Window(max_rank), lambda n, tubes, free: n
    )


def improper_tubing_count(max_rank: int, colors: int = 1) -> int:
    """Colored improper cycle tubings of lengths 1..max_rank: the sum of
    the tube-count polynomials at q = 1, in plain integers."""
    return sum(
        comb(n + k - 1, k) * comb(n - 1, k) * colors**k
        for n in range(1, max_rank + 1)
        for k in range(n)
    )


def check_improper_job(max_rank: int, grading: str = "tubes", colors: int = 1) -> None:
    """Refuse, before any enumeration, a family job that is malformed or
    too large: a rank outside 1..MAX_CYCLE, an unknown grading, fewer than
    one color, colors with a grading other than "tubes", or more than
    MAX_IMPROPER_OBJECTS predicted objects."""
    if not 1 <= max_rank <= MAX_CYCLE:
        raise ValueError(f"max_rank must be in 1..{MAX_CYCLE}, got {max_rank}")
    if grading not in ("free", "tubes", "all"):
        raise ValueError(f"unknown grading {grading!r}")
    if colors < 1:
        raise ValueError(f"colors must be at least 1, got {colors}")
    if colors != 1 and grading != "tubes":
        raise ValueError("colors only combine with the tubes grading")
    count = improper_tubing_count(max_rank, colors)
    if count > MAX_IMPROPER_OBJECTS:
        raise ValueError(
            f"max_rank {max_rank} and colors {colors} predict {count} objects, "
            f"above the cap of {MAX_IMPROPER_OBJECTS}"
        )


def bijection_roundtrips(kind: str, max_n: int) -> int:
    """Tubings a bijection job over sizes 1..max_n round-trips: the sum of
    the large Schröder numbers sum_k C(n,k) C(n+k,k)/(k+1) for "interval",
    of the central Delannoy numbers (improper cycle tubings) for "cycle"."""
    if kind == "cycle":
        return improper_tubing_count(max_n)
    return sum(
        comb(n, k) * comb(n + k, k) // (k + 1)
        for n in range(1, max_n + 1)
        for k in range(n + 1)
    )


def check_bijection_job(kind: str, max_n: int) -> None:
    """Refuse, before any enumeration, a bijection job of an unknown kind,
    with max_n outside 1..MAX_INTERVAL or 1..MAX_CYCLE, or predicting more
    than MAX_IMPROPER_OBJECTS round trips."""
    if kind not in ("interval", "cycle"):
        raise ValueError(f"unknown kind {kind!r}")
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if not 1 <= max_n <= cap:
        raise ValueError(f"max_n must be in 1..{cap}")
    count = bijection_roundtrips(kind, max_n)
    if count > MAX_IMPROPER_OBJECTS:
        raise ValueError(
            f"max_n {max_n} predicts {count} round trips, "
            f"above the cap of {MAX_IMPROPER_OBJECTS}"
        )


def improper_cycle_family(
    max_rank: int, grading: str = "tubes", colors: int = 1
) -> tuple[CyclicFamily, PolyFamily]:
    """Improper cycle tubings of lengths 1..max_rank with their sieving
    polynomials, graded by "free" vertex count, by "tubes" (the only
    grading that takes colors), or by length alone ("all")."""
    check_improper_job(max_rank, grading, colors)
    if grading == "free":
        fam = tubings_by_free_vertices(max_rank)
        poly = lambda s: free_vertex_polynomial(*s)
    elif grading == "tubes":
        fam = tubings_by_tube_count(max_rank, colors)
        poly = lambda s: tube_count_polynomial(s[0], s[1], colors)
    else:
        fam = tubings_all_improper(max_rank)
        poly = improper_total_polynomial
    return fam, PolyFamily.from_function(fam.instance, fam.window, poly)


def only_last_free_count(n: int) -> int:
    """Tubings of the n-interval whose unique free vertex is the last one."""
    return sum(
        1
        for t in enumerate_tubings(n, "interval")
        if free_vertices(n, t, "interval") == {n - 1}
    )


def free_vertex_polynomial(n: int, k: int) -> IntPoly:
    """Sieving polynomial for improper cycle tubings with k free vertices.

    The m = n-k term only contributes on the diagonal k = n, where the
    empty tubing needs the q-binomial bottom-entry convention to count it.
    """
    total = ZERO
    for m in range(0, max(n - k, 0) + 1):
        exp2 = ONE if m == 0 else q_power(2, m)
        total = total + q_binomial(n, m + k) * q_binomial(n - k - 1, m) * exp2
    return total


def tube_count_polynomial(n: int, k: int, colors: int = 1) -> IntPoly:
    """Sieving polynomial for improper cycle tubings with k tubes."""
    f = q_binomial(n + k - 1, k) * q_binomial(n - 1, k)
    if colors != 1 and k >= 1:
        f = f * q_power(colors, k)
    return f


def improper_total_polynomial(n: int) -> IntPoly:
    """Sieving polynomial for all improper cycle tubings of length n."""
    total = ZERO
    for k in range(0, n):
        total = total + tube_count_polynomial(n, k)
    return total


def strict_schroder_gf_check(order: int, exhaustive_up_to: int = 8) -> dict:
    """Cross-check three ways of counting strict paths of length 2(n-1).

    The counts solve C = x * D(C) with D = (1-t)/(1-2t), equivalently
    C = x + C^2 + C^3 + ...; both are compared against exhaustive path
    enumeration up to a size cap.
    """
    if not 1 <= order <= 14:
        raise ValueError(f"order must be between 1 and 14, got {order}")
    D = TruncatedSeries.from_rational([1, -1], [1, -2], order + 1)
    C = solve_functional_equation(D, order + 1)
    solved = []
    for nn in range(1, order + 1):
        v = C.coeff(nn)
        if v.denominator != 1:
            raise ArithmeticError(f"non-integer series coefficient at {nn}: {v}")
        solved.append(int(v))
    # first-return decomposition: a strict path is empty or a sequence of
    # k >= 2 strict blocks, giving c_n = [n == 1] + sum over compositions
    rec = [0] * (order + 1)
    rec[1] = 1
    for nn in range(2, order + 1):
        total = 0
        conv = rec[:]  # C^k coefficients, starting at k = 1
        for _ in range(2, nn + 1):
            conv = [
                sum(conv[i] * rec[m - i] for i in range(m + 1))
                for m in range(order + 1)
            ]
            total += conv[nn]
        rec[nn] = total
    counted = [
        len(enumerate_paths(2 * (nn - 1), "strict"))
        for nn in range(1, min(order, exhaustive_up_to) + 1)
    ]
    ok = solved == rec[1:] and counted == solved[: len(counted)]
    return {
        "order": order,
        "solved": solved,
        "recurrence": rec[1:],
        "enumerated": counted,
        "ok": ok,
    }


def tubing_to_jsonable(tubing: Iterable[Tube]) -> list[list[int]]:
    return [list(t) for t in sorted(tubing)]
