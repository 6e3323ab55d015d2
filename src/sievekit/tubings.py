"""Tubings of interval and cycle graphs, and their lattice-path bijections.

A tube is a nonempty connected vertex set; a tubing is a set of tubes that
are pairwise nested, or disjoint with no edge between them.  Vertices are
0-indexed; on the cycle they run clockwise and arcs wrap modulo n.  Tubes
are stored as (start, length) pairs.  On the interval the full vertex set
is a valid tube; on the cycle the full circle is excluded.

Inside the module a tubing is also a bitset of tube indices (bit i is the
i-th tube of the graph in enumeration order).  ``tubing_masks`` enumerates
these bitsets, and the bijections and the cyclic census run on them; the
frozenset functions convert at their edges.

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
from typing import Callable, Iterable, Iterator, Mapping

from .arith import divisors
from .gaussseq import TruncatedSeries, solve_functional_equation
from .objects import MAX_OBJECTS, Census, CyclicFamily, CyclicObject
from .qgauss import PolyFamily
from .qpoly import IntPoly, ONE, ZERO, q_binomial, q_power
from .semigroup import Chain, PositiveIntegers, Window

Tube = tuple[int, int]
Tubing = frozenset

MAX_INTERVAL = 12
MAX_CYCLE = 10

_STEP_X = {"U": 1, "D": 1, "F": 2}
_STEP_Y = {"U": 1, "D": -1, "F": 0}
# The steps each kind of path may take below, at and above height 0, each
# with its height change.
_PATH_STEPS = {
    kind: tuple({s: _STEP_Y[s] for s in steps} for steps in rows)
    for kind, rows in (
        ("delannoy", ("UDF", "UDF", "UDF")),
        ("schroder", ("", "UF", "UDF")),
        ("strict", ("", "U", "UDF")),
    )
}


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
    first use.  Tubes are ordered by length, then start, so a tube's
    subtubes all come before it.
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
        self._rotations: dict[int, tuple[int, int]] = {}

    def indices(self, tubes: Iterable[Tube]) -> list[int]:
        """Index of each tube; ValueError on a tube that does not fit."""
        try:
            return [self.index[t] for t in tubes]
        except KeyError as e:
            raise ValueError(
                f"tube {e.args[0]!r} does not fit in the {self.n}-{self.kind}"
            ) from None

    def bits(self, tubes: Iterable[Tube]) -> int:
        """The tube set as a bitset; ValueError on a tube that does not fit."""
        out = 0
        for i in self.indices(tubes):
            out |= 1 << i
        return out

    def tubing(self, bits: int) -> Tubing:
        tubes = self.tubes
        return frozenset([tubes[i] for i in _bits(bits)])

    def rotate(self, bits: int, step: int) -> int:
        """Rotate every tube of a cycle tube set by ``step`` vertices.

        Tube (start, length) has index (length - 1) * n + start, so the
        rotation turns each length's n-bit block: bits that stay in their
        block shift up by step, the top step bits wrap to the bottom.
        """
        n = self.n
        step %= n
        if not step:
            return bits
        if step not in self._rotations:
            low = (1 << step) - 1
            stay = wrap = 0
            for block in range(0, len(self.tubes), n):
                stay |= (self.full ^ low) << block
                wrap |= low << block
            self._rotations[step] = (stay, wrap)
        stay, wrap = self._rotations[step]
        return (bits << step) & stay | (bits >> (n - step)) & wrap

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


def _bits(mask: int) -> list[int]:
    """The positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_to_tubing(n: int, bits: int, kind: str = "interval") -> Tubing:
    """The tubing of the n-interval or n-cycle that a tube bitset stands for."""
    return _graph(n, kind).tubing(bits)


def tube_vertices(n: int, tube: Tube, kind: str = "interval") -> frozenset:
    graph = _graph(n, kind)
    (i,) = graph.indices((tube,))
    return frozenset(_bits(graph.masks[i]))


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
    chosen, compat = graph.bits(tubes), graph.compat()
    return all(chosen & compat[i] == chosen for i in graph.indices(tubes))


def tubing_masks(n: int, kind: str = "interval") -> Iterator[tuple[int, int]]:
    """Every tubing of the n-interval or n-cycle, the empty tubing included,
    as (tube bitset, covered vertex mask) pairs.

    Depth-first over tube indices: each branch carries the bitset of later
    tubes still compatible with everything chosen, and takes them in
    increasing index order.  An explicit stack keeps the generator flat.
    """
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if n > cap:
        raise ValueError(f"refusing to enumerate {kind} tubings beyond n = {cap}")
    graph = _graph(n, kind)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    masks, compat = graph.masks, graph.compat()
    # later[t]: the tubes after t that are compatible with it
    later = [(row >> (t + 1)) << (t + 1) for t, row in enumerate(compat)]

    def walk() -> Iterator[tuple[int, int]]:
        stack = [((1 << len(masks)) - 1, 0, 0)]
        push, pop = stack.append, stack.pop
        while stack:
            candidates, bits, covered = pop()
            yield bits, covered
            # push the highest tube first, so the lowest branch runs next
            rest = candidates
            while rest:
                t = rest.bit_length() - 1
                rest ^= 1 << t
                push((candidates & later[t], bits | 1 << t, covered | masks[t]))

    return walk()


def enumerate_tubings(n: int, kind: str = "interval") -> list[Tubing]:
    """Every tubing of the n-interval or n-cycle, the empty tubing included,
    in the depth-first order of ``tubing_masks``.

    A branch adds tubes in increasing index order, so a tubing with k tubes
    is the last one seen with k - 1 tubes plus its highest-index tube.
    """
    masks = tubing_masks(n, kind)
    tubes = _graph(n, kind).tubes
    out: list[Tubing] = []
    chosen: list[Tube] = []
    for bits, _ in masks:
        del chosen[max(bits.bit_count() - 1, 0):]
        if bits:
            chosen.append(tubes[bits.bit_length() - 1])
        out.append(frozenset(chosen))
    return out


def free_vertices(n: int, tubing: Iterable[Tube], kind: str = "interval") -> set[int]:
    graph = _graph(n, kind)
    covered = 0
    for i in graph.indices(tubing):
        covered |= graph.masks[i]
    return set(_bits(graph.full ^ covered))


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
    """The x-extent of a word over U, D, F: a flat is two wide."""
    return len(path) + path.count("F")


def step_heights(path: str) -> list[int]:
    """Height before each step."""
    try:
        return list(itertools.accumulate(map(_STEP_Y.__getitem__, path), initial=0))[:-1]
    except KeyError as e:
        raise ValueError(f"unknown step {e.args[0]!r} in {path!r}") from None


def classify_path(path: str) -> str:
    """The strongest of strict / schroder / delannoy that the path satisfies."""
    length = path_length(path)
    for kind in ("strict", "schroder", "delannoy"):
        if is_path(path, length, kind):
            return kind
    raise ValueError(f"{path!r} is not a path: an unknown step, or it ends off height 0")


def _check_path_args(length: int, kind: str) -> None:
    if kind not in _PATH_STEPS:
        raise ValueError(f"unknown path kind {kind!r}")
    if length < 0 or length % 2:
        raise ValueError(f"path length must be even and nonnegative, got {length}")


def enumerate_paths(length: int, kind: str = "delannoy", flats: int | None = None) -> list[str]:
    """All paths of the given x-extent, optionally with a fixed F count."""
    _check_path_args(length, kind)
    below, at, above = _PATH_STEPS[kind]
    out: list[str] = []
    acc: list[str] = []

    def rec(rem: int, h: int, nf: int) -> None:
        if abs(h) > rem:
            return
        if rem == 0:
            if h == 0 and (flats is None or nf == flats):
                out.append("".join(acc))
            return
        for s, dy in (above if h > 0 else at if h == 0 else below).items():
            if _STEP_X[s] <= rem:
                acc.append(s)
                rec(rem - _STEP_X[s], h + dy, nf + (s == "F"))
                acc.pop()

    rec(length, 0, 0)
    return sorted(out)


def count_paths(length: int, kind: str = "delannoy") -> int:
    """How many paths ``enumerate_paths(length, kind)`` lists, by a DP over
    (x-extent, height) with its step rules, listing none of them."""
    _check_path_args(length, kind)
    below, at, above = _PATH_STEPS[kind]
    # ways[x][h]: step sequences from (0, 0) to (x, h) under the rules
    ways: list[dict[int, int]] = [{} for _ in range(length + 1)]
    ways[0][0] = 1
    for x in range(length):
        for h, w in ways[x].items():
            for s, dy in (above if h > 0 else at if h == 0 else below).items():
                if x + _STEP_X[s] <= length:
                    nxt = ways[x + _STEP_X[s]]
                    nxt[h + dy] = nxt.get(h + dy, 0) + w
    return ways[length].get(0, 0)


def is_path(path: str, length: int, kind: str = "delannoy") -> bool:
    """Whether ``enumerate_paths(length, kind)`` lists the path: known
    steps under its step rules, the given x-extent, ending at height 0."""
    below, at, above = _PATH_STEPS[kind]
    h = 0
    try:
        for s in path:
            h += (above if h > 0 else at if h == 0 else below)[s]
    except KeyError:  # a step its height does not allow, or an unknown one
        return False
    return h == 0 and path_length(path) == length


# -- interval bijection ------------------------------------------------------------


def _schroder_walk(n: int, tubes: Iterable[tuple[int, int]]) -> tuple[str, list[int]]:
    """The interval path of (start, vertex mask) tubes given shorter first,
    with the number of rises before each vertex.

    Walk the interval: a rise per tube started, then a fall at a final
    vertex or a flat otherwise.  A tube listed before another is inside it
    or apart from it, so the vertices the earlier tubes cover within a tube
    are its subtubes' vertices, and its final is the highest one left.
    """
    opens = [0] * n
    covered = finals = 0
    for start, mask in tubes:
        opens[start] += 1
        finals |= 1 << ((mask & ~covered).bit_length() - 1)
        covered |= mask
    path = "".join(
        "U" * opens[v] + ("D" if finals >> v & 1 else "F") for v in range(n)
    )
    return path, opens


def _decode_tubes(path: str) -> list[Tube]:
    """Each rise opens a tube; it closes right before the next flat or fall
    at the rise's height, or at the end of the path."""
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
    return tubes


def interval_mask_to_schroder(n: int, bits: int) -> str:
    """The Schröder path of an interval tubing given as a tube bitset."""
    graph = _graph(n, "interval")
    tubes, masks = graph.tubes, graph.masks
    return _schroder_walk(n, [(tubes[i][0], masks[i]) for i in _bits(bits)])[0]


def schroder_to_interval_mask(n: int, path: str) -> int:
    """The tube bitset a Schröder path decodes to (steps are not checked)."""
    return _graph(n, "interval").bits(_decode_tubes(path))


def interval_tubing_to_schroder(n: int, tubing: Iterable[Tube]) -> str:
    """The Schröder path of an interval tubing."""
    tubing = set(tubing)
    if not is_tubing(n, tubing, "interval"):
        raise ValueError("not a valid interval tubing")
    return interval_mask_to_schroder(n, _graph(n, "interval").bits(tubing))


def schroder_to_interval_tubing(n: int, path: str) -> Tubing:
    """The interval tubing of a Schröder path of length 2n."""
    if not is_path(path, 2 * n, "schroder"):
        raise ValueError(f"{path!r} is not a Schröder path of length {2 * n}")
    tubing = _graph(n, "interval").tubing(schroder_to_interval_mask(n, path))
    if not is_tubing(n, tubing, "interval"):
        raise ValueError(f"path {path!r} does not decode to a tubing")
    return tubing


# -- cycle bijection ---------------------------------------------------------------


def _marked_ok(path: str, j: int) -> bool:
    """Whether (path, j) is a marked path: a Schröder path ending in a flat,
    marked at a fall or flat no later than its first flat at height 0."""
    if not path.endswith("F") or not is_path(path, path_length(path), "schroder"):
        return False
    heights = step_heights(path)
    first_flat0 = next(
        t for t, s in enumerate(path) if s == "F" and heights[t] == 0
    )
    return 1 <= j <= first_flat0 + 1 and path[j - 1] in ("D", "F")


def cycle_mask_to_marked(n: int, bits: int) -> tuple[str, int]:
    """Unroll an improper cycle tubing, given as a tube bitset, to a marked
    nonnegative path (p, j).

    The cycle is cut after the free vertex preceding vertex 0, so the
    linearized tubing has its last vertex free; the mark j is the step of
    the vertex that was vertex 0.
    """
    graph = _graph(n, "cycle")
    tubes, masks, full = graph.tubes, graph.masks, graph.full
    chosen = [(tubes[i][0], masks[i]) for i in _bits(bits)]
    covered = 0
    for _, mask in chosen:
        covered |= mask
    free = full ^ covered
    if not free:
        raise ValueError("tubing is proper: it has no free vertex to cut at")
    cut = free.bit_length()  # vertex cut - 1 becomes the last one
    p, opens = _schroder_walk(n, [
        ((start - cut) % n, (mask >> cut | mask << (n - cut)) & full)
        for start, mask in chosen
    ])
    v = -cut % n  # where vertex 0 went
    return p, sum(opens[: v + 1]) + v + 1


def marked_to_cycle_mask(n: int, path: str, j: int) -> int:
    """Roll a marked path (p, j) up to the tube bitset of a cycle tubing
    (the marked path is not checked)."""
    shift = j - path.count("U", 0, j) - 1  # vertex steps before the mark
    return _graph(n, "cycle").bits(
        ((start - shift) % n, length) for start, length in _decode_tubes(path)
    )


def cycle_tubing_to_marked(n: int, tubing: Iterable[Tube], basepoint: int = 0) -> tuple[str, int]:
    """Unroll an improper cycle tubing to a marked nonnegative path (p, j),
    with the basepoint in the role of vertex 0."""
    tubing = set(tubing)
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError("not a valid cycle tubing")
    if basepoint % n:
        tubing = {((s - basepoint) % n, length) for s, length in tubing}
    return cycle_mask_to_marked(n, _graph(n, "cycle").bits(tubing))


def marked_to_cycle_tubing(n: int, path: str, j: int, basepoint: int = 0) -> Tubing:
    """Roll a marked path (p, j) up to a cycle tubing, the mark landing on
    the basepoint."""
    if not _marked_ok(path, j):
        raise ValueError(f"({path!r}, {j}) is not a marked path")
    if path_length(path) != 2 * n:
        raise ValueError(f"need length {2 * n}, got {path_length(path)}")
    tubing = _graph(n, "cycle").tubing(marked_to_cycle_mask(n, path, j))
    if basepoint % n:
        tubing = frozenset(((s + basepoint) % n, length) for s, length in tubing)
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError(f"({path!r}, {j}) does not roll up to a cycle tubing")
    return tubing


def _unmark(path: str, j: int) -> str:
    m = len(path)
    if j == m:
        return path[:-1]
    return path[j : m - 1] + path[j - 1] + path[: j - 1]


def marked_to_delannoy(path: str, j: int) -> str:
    """Drop the final flat and rotate the mark to the front of the cut."""
    if not _marked_ok(path, j):
        raise ValueError(f"({path!r}, {j}) is not a marked path")
    return _unmark(path, j)


def delannoy_to_marked(path: str) -> tuple[str, int]:
    """Restore the marked nonnegative path from an unrestricted one.

    The cut point is recovered from the lowest level of the path: the last
    flat at that level if there is one, the first step reaching it if the
    path dips below zero, and the appended final flat otherwise.
    """
    try:
        heights_after = list(itertools.accumulate(map(_STEP_Y.__getitem__, path)))
    except KeyError as e:
        raise ValueError(f"unknown step {e.args[0]!r} in {path!r}") from None
    if heights_after and heights_after[-1]:
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


def cycle_mask_to_delannoy(n: int, bits: int) -> str:
    """The Delannoy path of an improper cycle tubing given as a tube bitset."""
    return _unmark(*cycle_mask_to_marked(n, bits))


def delannoy_to_cycle_mask(n: int, path: str) -> int:
    """The tube bitset a Delannoy path decodes to (steps are checked, the
    length is not)."""
    return marked_to_cycle_mask(n, *delannoy_to_marked(path))


def cycle_tubing_to_delannoy(n: int, tubing: Iterable[Tube], basepoint: int = 0) -> str:
    p, j = cycle_tubing_to_marked(n, tubing, basepoint)
    return marked_to_delannoy(p, j)


def delannoy_to_cycle_tubing(n: int, path: str, basepoint: int = 0) -> Tubing:
    if not is_path(path, 2 * (n - 1), "delannoy"):
        raise ValueError(f"{path!r} is not a Delannoy path of length {2 * (n - 1)}")
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


def _grading(max_rank: int, grading: str) -> tuple:
    """(instance, window, grade) of a grading of improper cycle tubings of
    lengths 1..max_rank: grade(length, tube count, free-vertex count) is
    the window element a tubing belongs to."""
    if grading == "free":
        return (Chain(PositiveIntegers(), "pos"), Window(max_rank, ((1, max_rank),)),
                lambda n, tubes, free: (n, free))
    if grading == "tubes":
        return (Chain(PositiveIntegers(), "nonneg"), Window(max_rank, ((0, max_rank),)),
                lambda n, tubes, free: (n, tubes))
    return PositiveIntegers(), Window(max_rank), lambda n, tubes, free: n


def _improper_family(max_rank: int, colors: int, grading: str) -> CyclicFamily:
    """Colored cycle tubings of lengths 1..max_rank, each put once into the
    bucket of its grade; every cycle tubing leaves a vertex free."""
    instance, window, grade = _grading(max_rank, grading)
    buckets: dict[object, list[CyclicObject]] = {}
    for n in range(1, max_rank + 1):
        for tubing in enumerate_tubings(n, "cycle"):
            free = len(free_vertices(n, tubing, "cycle"))
            bucket = buckets.setdefault(grade(n, len(tubing), free), [])
            tubes = sorted(tubing)
            for assignment in itertools.product(range(1, colors + 1), repeat=len(tubes)):
                bucket.append(cycle_tubing_object(n, tubing, dict(zip(tubes, assignment))))
    return CyclicFamily.from_generator(instance, window, lambda s: buckets.pop(s, ()))


def tubings_by_free_vertices(max_rank: int, colors: int = 1) -> CyclicFamily:
    """Improper cycle tubings graded by (length, free-vertex count)."""
    return _improper_family(max_rank, colors, "free")


def tubings_by_tube_count(max_rank: int, colors: int = 1) -> CyclicFamily:
    """Improper cycle tubings graded by (length, tube count)."""
    return _improper_family(max_rank, colors, "tubes")


def tubings_all_improper(max_rank: int) -> CyclicFamily:
    """All improper cycle tubings graded by length alone."""
    return _improper_family(max_rank, 1, "all")


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
    MAX_OBJECTS predicted objects."""
    if not 1 <= max_rank <= MAX_CYCLE:
        raise ValueError(f"max_rank must be in 1..{MAX_CYCLE}, got {max_rank}")
    if grading not in ("free", "tubes", "all"):
        raise ValueError(f"unknown grading {grading!r}")
    if colors < 1:
        raise ValueError(f"colors must be at least 1, got {colors}")
    if colors != 1 and grading != "tubes":
        raise ValueError("colors only combine with the tubes grading")
    count = improper_tubing_count(max_rank, colors)
    if count > MAX_OBJECTS:
        raise ValueError(
            f"max_rank {max_rank} and colors {colors} predict {count} objects, "
            f"above the cap of {MAX_OBJECTS}"
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
    than MAX_OBJECTS round trips."""
    if kind not in ("interval", "cycle"):
        raise ValueError(f"unknown kind {kind!r}")
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if not 1 <= max_n <= cap:
        raise ValueError(f"max_n must be in 1..{cap}")
    count = bijection_roundtrips(kind, max_n)
    if count > MAX_OBJECTS:
        raise ValueError(
            f"max_n {max_n} predicts {count} round trips, "
            f"above the cap of {MAX_OBJECTS}"
        )


def _sieving_polynomial(grading: str, colors: int) -> Callable:
    if grading == "free":
        return lambda s: free_vertex_polynomial(*s)
    if grading == "tubes":
        return lambda s: tube_count_polynomial(s[0], s[1], colors)
    return improper_total_polynomial


def improper_cycle_family(
    max_rank: int, grading: str = "tubes", colors: int = 1
) -> tuple[CyclicFamily, PolyFamily]:
    """Improper cycle tubings of lengths 1..max_rank with their sieving
    polynomials, graded by "free" vertex count, by "tubes" (the only
    grading that takes colors), or by length alone ("all")."""
    check_improper_job(max_rank, grading, colors)
    fam = _improper_family(max_rank, colors, grading)
    poly = _sieving_polynomial(grading, colors)
    return fam, PolyFamily.from_function(fam.instance, fam.window, poly)


def improper_cycle_census(
    max_rank: int, grading: str = "tubes", colors: int = 1
) -> tuple[Census, PolyFamily]:
    """The census of ``improper_cycle_family``, read off the tube bitsets
    of ``tubing_masks`` without building an object.

    A tubing with k tubes stands for colors**k colored objects.  The
    order-d rotation fixes it when its bitset is invariant under rotation
    by n/d; no nontrivial rotation fixes a proper arc, so its tubes then
    fall into k/d orbits of size d, and colors**(k/d) of its colorings are
    fixed.  Every rotation of an enumerated bitset is enumerated with the
    same grade, so the sets are closed under rotation by construction.
    """
    check_improper_job(max_rank, grading, colors)
    instance, window, grade = _grading(max_rank, grading)
    weight = [colors**k for k in range(max_rank)]
    counts: dict = {}
    fixed: dict = {}  # (s, d) -> colored objects fixed by the order-d rotation, d > 1
    for n in range(1, max_rank + 1):
        rotate = _graph(n, "cycle").rotate
        orders = [d for d in divisors(n) if d > 1]
        for bits, covered in tubing_masks(n, "cycle"):
            free = n - covered.bit_count()
            k = bits.bit_count()
            s = grade(n, k, free)
            counts[s] = counts.get(s, 0) + weight[k]
            for d in orders:
                if not k % d and rotate(bits, n // d) == bits:
                    fixed[s, d] = fixed.get((s, d), 0) + weight[k // d]
    rows = []
    for s in instance.elements(window):
        count = counts.get(s, 0)
        by_order = {
            d: (fixed.get((s, d), 0) if d > 1 else count, 0)
            for d in divisors(instance.rank(s))
        }
        rows.append((s, count, by_order))
    poly = _sieving_polynomial(grading, colors)
    return (
        Census(instance, window, tuple(rows)),
        PolyFamily.from_function(instance, window, poly),
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


def strict_schroder_gf_check(order: int) -> dict:
    """Cross-check three ways of counting strict paths of length 2(n-1).

    The counts solve C = x * D(C) with D = (1-t)/(1-2t), equivalently
    C = x + C^2 + C^3 + ...; both are compared against exhaustive path
    enumeration for n up to 8.
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
        for nn in range(1, min(order, 8) + 1)
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
