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
of length 2(n-1), by cutting the cycle at a free vertex.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from math import comb

from .arith import divisors
from .semigroup import Chain, PositiveIntegers, Window, admit

# objects, qgauss and qpoly are imported inside the census and polynomial
# functions, so a bijection job, a fresh process, loads none of them.

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
# What ``is_path`` reads a flat as, per kind: None where the rules ignore
# the height; else, for a path that must stay at or above 0, nothing where
# a flat may be taken at 0, and a fall then a rise where it may not (such a
# flat then dips below 0).
_FLAT_AS = {
    kind: None if below == at == above else "" if "F" in at else "DU"
    for kind, (below, at, above) in _PATH_STEPS.items()
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

    @functools.cached_property
    def path_tables(self) -> tuple[list, list, list, list]:
        """The tables the path maps read, built on first use.

        ``before[i]`` is the vertices before tube i's start, those a cycle
        tube wraps into; ``opening[v]`` the tubes that start at vertex v;
        ``steps[k]`` the steps of a vertex where k tubes start, as (not
        final, final); ``ends[start][end]`` the bit of the tube on vertices
        start..end-1, for the tubes that do not wrap (0 for the others).
        """
        n = self.n
        before = [(1 << start) - 1 for start, _ in self.tubes]
        opening = [0] * n
        ends = [[0] * (n + 1) for _ in range(n + 1)]
        for i, (start, length) in enumerate(self.tubes):
            opening[start] |= 1 << i
            if start + length <= n:
                ends[start][start + length] = 1 << i
        steps = [("U" * k + "F", "U" * k + "D") for k in range(n + 1)]
        return before, opening, steps, ends


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
    if kind not in ("interval", "cycle"):
        raise ValueError(f"unknown graph kind {kind!r}")
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if n > cap:
        raise ValueError(f"refusing to enumerate {kind} tubings beyond n = {cap}")
    graph = _graph(n, kind)
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


# -- lattice paths -----------------------------------------------------------------


def _check_path_args(length: int, kind: str) -> None:
    if kind not in _PATH_STEPS:
        raise ValueError(f"unknown path kind {kind!r}")
    if length < 0 or length % 2:
        raise ValueError(f"path length must be even and nonnegative, got {length}")


def enumerate_paths(length: int, kind: str = "delannoy") -> list[str]:
    """All paths of the given x-extent."""
    _check_path_args(length, kind)
    below, at, above = _PATH_STEPS[kind]
    out: list[str] = []
    acc: list[str] = []

    def rec(rem: int, h: int) -> None:
        if abs(h) > rem:
            return
        if rem == 0:
            if h == 0:
                out.append("".join(acc))
            return
        for s, dy in (above if h > 0 else at if h == 0 else below).items():
            if _STEP_X[s] <= rem:
                acc.append(s)
                rec(rem - _STEP_X[s], h + dy)
                acc.pop()

    rec(length, 0)
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
    steps under its step rules, the given x-extent, ending at height 0.

    Where the rules ignore the height, the step counts decide.  Elsewhere
    the path, its flats rewritten, must reduce to nothing by deleting
    rises followed by falls: exactly the words over U and D that stay at
    or above height 0 and end there.  An unknown kind, or a length that
    is odd or negative, raises ``ValueError`` as in ``count_paths``.
    """
    _check_path_args(length, kind)
    flat = _FLAT_AS[kind]
    flats = path.count("F")
    if len(path) + flats != length:
        return False
    if flat is None:
        ups = path.count("U")
        return ups == path.count("D") and 2 * ups + flats == len(path)
    word = path.replace("F", flat)
    while "UD" in word:
        word = word.replace("UD", "")
    return not word


# -- interval bijection ------------------------------------------------------------


def _vertex_steps(graph: _Graph, bits: int) -> tuple[list[str], int]:
    """The steps of each vertex in the path of a tube bitset, and the
    vertices its tubes cover.

    A vertex takes a rise per tube that starts at it, then a fall if it is
    the final of a tube, else a flat.  Tubes come in index order, shorter
    first, so the vertices covered before a tube is reached, within it,
    are its subtubes' vertices.  Its final is the last vertex left in its
    traversal: the highest one it wraps to below its start (on the cycle),
    else its highest.
    """
    before, opening, steps, _ = graph.path_tables
    masks = graph.masks
    covered = finals = 0
    rest = bits
    while rest:
        i = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        mask = masks[i]
        left = mask & ~covered
        finals |= 1 << ((left & before[i] or left).bit_length() - 1)
        covered |= mask
    out = []
    for tubes in opening:  # vertex by vertex, its final bit shifted down to bit 0
        out.append(steps[(bits & tubes).bit_count()][finals & 1])
        finals >>= 1
    return out, covered


def _decode(graph: _Graph, path: str) -> int:
    """The tube bitset a Schröder path decodes to, on the graph's vertices
    0..n-1 without wrapping.

    Each rise opens a tube at the current vertex; it closes right before
    the next flat or fall at the rise's height, or at the end of the path.
    """
    ends = graph.path_tables[3]
    bits = h = v = 0
    # of each rise not yet closed, innermost last: its height (under a
    # sentinel), and the row of ``ends`` for its first vertex; heights
    # never decrease up the stack
    heights: list = [None]
    rows: list[list[int]] = []
    for s in path:
        if s == "U":
            heights.append(h)
            rows.append(ends[v])
            h += 1
            continue
        while heights[-1] == h:
            heights.pop()
            bits |= rows.pop()[v]
        v += 1
        if s == "D":
            h -= 1
    for row in rows:
        bits |= row[v]
    return bits


def interval_mask_to_schroder(n: int, bits: int) -> str:
    """The Schröder path of an interval tubing given as a tube bitset."""
    return "".join(_vertex_steps(_graph(n, "interval"), bits)[0])


def schroder_to_interval_mask(n: int, path: str) -> int:
    """The tube bitset a Schröder path of length 2n decodes to (the path
    is not checked)."""
    return _decode(_graph(n, "interval"), path)


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


def delannoy_to_marked(path: str) -> tuple[str, int]:
    """Restore the marked nonnegative path from an unrestricted one.

    A marked path (p, j) is a Schröder path p ending in a flat, marked at
    its j-th step (from 1), a fall or flat no later than its first flat at
    height 0.  Unmarking drops the final flat and moves the steps after
    the mark to the front, p[j:-1] + p[j - 1] + p[:j - 1], or leaves
    p[:-1] when the mark is on the final flat; this inverts that.

    The cut point is recovered from the lowest level of the path: the last
    flat at that level if there is one, the first step reaching it if the
    path dips below zero, and the appended final flat otherwise.
    """
    h = low = 0
    first_low = last_flat = -1  # the first step down to ``low``, the last flat at it
    for t, s in enumerate(path):
        if s == "F":
            if h == low:
                last_flat = t
        elif s == "U":
            h += 1
        elif s == "D":
            h -= 1
            if h < low:
                low, first_low, last_flat = h, t, -1
        else:
            raise ValueError(f"unknown step {s!r} in {path!r}")
    if h:
        raise ValueError(f"path {path!r} does not return to height 0")
    m = len(path)
    if last_flat >= 0:
        s0 = last_flat
    elif not low:
        return path + "F", m + 1
    else:
        s0 = first_low
    p = path[s0 + 1 :] + path[s0] + path[:s0] + "F"
    return p, m - s0


def cycle_mask_to_delannoy(n: int, bits: int) -> str:
    """The Delannoy path of an improper cycle tubing given as a tube bitset.

    The cycle is cut after its last free vertex, cut - 1, and walked from
    vertex cut: a nonnegative path ending in that vertex's flat, marked at
    the last step of vertex 0 (see ``delannoy_to_marked``).  Unmarking
    drops the final flat and turns the mark to the front, which leaves the
    steps of vertices 1..cut-2, the last step of vertex 0, the steps of
    vertices cut..n-1, then the rises of vertex 0.  When vertex 0 is the
    cut vertex (cut = 1) the mark sits on the final flat, and the steps of
    vertices 1..n-1 are left.
    """
    steps, covered = _vertex_steps(_graph(n, "cycle"), bits)
    cut = (~covered & ((1 << n) - 1)).bit_length()
    if not cut:
        raise ValueError("tubing is proper: it has no free vertex to cut at")
    if cut == 1:
        return "".join(steps[1:])
    first = steps[0]
    return "".join(steps[1 : cut - 1]) + first[-1] + "".join(steps[cut:]) + first[:-1]


def delannoy_to_cycle_mask(n: int, path: str) -> int:
    """The tube bitset a Delannoy path of length 2(n - 1) decodes to (the
    steps are checked, the length is not).

    The marked path decodes on vertices 0..n-1, where the vertex of the
    mark is vertex 0; rotating its tubes back puts it there.
    """
    p, j = delannoy_to_marked(path)
    graph = _graph(n, "cycle")
    return graph.rotate(_decode(graph, p), p.count("U", 0, j) + 1 - j)


def cycle_tubing_to_delannoy(n: int, tubing: Iterable[Tube]) -> str:
    """The Delannoy path of an improper cycle tubing."""
    tubing = set(tubing)
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError("not a valid cycle tubing")
    return cycle_mask_to_delannoy(n, _graph(n, "cycle").bits(tubing))


def delannoy_to_cycle_tubing(n: int, path: str) -> Tubing:
    """The improper cycle tubing of a Delannoy path of length 2(n - 1)."""
    if not is_path(path, 2 * (n - 1), "delannoy"):
        raise ValueError(f"{path!r} is not a Delannoy path of length {2 * (n - 1)}")
    tubing = _graph(n, "cycle").tubing(delannoy_to_cycle_mask(n, path))
    if not is_tubing(n, tubing, "cycle"):
        raise ValueError(f"path {path!r} does not roll up to a cycle tubing")
    return tubing


# -- the cyclic census of improper cycle tubings -----------------------------------


# How improper cycle tubings of lengths 1..max_rank are graded, per grading:
# the instance, the window at max_rank, grade(length, tube count,
# free-vertex count) for the element a tubing belongs to, and the sieving
# polynomial poly(s, colors) at an element.
_GRADINGS = {
    "free": (
        Chain(PositiveIntegers(), "pos"),
        lambda max_rank: Window(max_rank, ((1, max_rank),)),
        lambda n, tubes, free: (n, free),
        lambda s, colors: free_vertex_polynomial(*s),
    ),
    "tubes": (
        Chain(PositiveIntegers(), "nonneg"),
        lambda max_rank: Window(max_rank, ((0, max_rank),)),
        lambda n, tubes, free: (n, tubes),
        lambda s, colors: tube_count_polynomial(s[0], s[1], colors),
    ),
    "all": (
        PositiveIntegers(),
        Window,
        lambda n, tubes, free: n,
        lambda s, colors: improper_total_polynomial(s),
    ),
}


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
    one color, colors with a grading other than "tubes", or more predicted
    objects than ``admit`` lets through."""
    if not 1 <= max_rank <= MAX_CYCLE:
        raise ValueError(f"max_rank must be in 1..{MAX_CYCLE}, got {max_rank}")
    if grading not in _GRADINGS:
        raise ValueError(f"unknown grading {grading!r}")
    if colors < 1:
        raise ValueError(f"colors must be at least 1, got {colors}")
    if colors != 1 and grading != "tubes":
        raise ValueError("colors only combine with the tubes grading")
    admit(improper_tubing_count(max_rank, colors), "predicted objects")


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
    round trips than ``admit`` lets through."""
    if kind not in ("interval", "cycle"):
        raise ValueError(f"unknown kind {kind!r}")
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if not 1 <= max_n <= cap:
        raise ValueError(f"max_n must be in 1..{cap}")
    admit(bijection_roundtrips(kind, max_n), "predicted round trips")


def improper_cycle_census(
    max_rank: int, grading: str = "tubes", colors: int = 1
) -> tuple[Census, PolyFamily]:
    """Improper cycle tubings of lengths 1..max_rank with their sieving
    polynomials, graded by "free" vertex count, by "tubes" (the only
    grading that takes colors), or by length alone ("all").  The census
    is read off the tube bitsets of ``tubing_masks`` without building an
    object; every cycle tubing leaves a vertex free.

    A tubing with k tubes stands for colors**k colored objects.  The
    order-d rotation fixes it when its bitset is invariant under rotation
    by n/d; no nontrivial rotation fixes a proper arc, so its tubes then
    fall into k/d orbits of size d, and colors**(k/d) of its colorings are
    fixed.  Every rotation of an enumerated bitset is enumerated with the
    same grade, so the sets are closed under rotation by construction.
    """
    from .objects import Census
    from .qgauss import PolyFamily

    check_improper_job(max_rank, grading, colors)
    instance, window_at, grade, poly = _GRADINGS[grading]
    window = window_at(max_rank)
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
    return (
        Census(instance, window, tuple(rows)),
        PolyFamily.from_function(instance, window, lambda s: poly(s, colors)),
    )


def tubings_by_free_vertices(max_rank: int) -> Census:
    """Improper cycle tubings graded by (length, free-vertex count)."""
    return improper_cycle_census(max_rank, "free")[0]


def tubings_by_tube_count(max_rank: int, colors: int = 1) -> Census:
    """Colored improper cycle tubings graded by (length, tube count)."""
    return improper_cycle_census(max_rank, "tubes", colors)[0]


def tubings_all_improper(max_rank: int) -> Census:
    """All improper cycle tubings graded by length alone."""
    return improper_cycle_census(max_rank, "all")[0]


def free_vertex_polynomial(n: int, k: int) -> IntPoly:
    """Sieving polynomial for improper cycle tubings with k free vertices.

    The m = n-k term only contributes on the diagonal k = n, where the
    empty tubing needs the q-binomial bottom-entry convention to count it.
    """
    from .qpoly import ONE, ZERO, q_binomial, q_power

    total = ZERO
    for m in range(0, max(n - k, 0) + 1):
        exp2 = ONE if m == 0 else q_power(2, m)
        total = total + q_binomial(n, m + k) * q_binomial(n - k - 1, m) * exp2
    return total


def tube_count_polynomial(n: int, k: int, colors: int = 1) -> IntPoly:
    """Sieving polynomial for improper cycle tubings with k tubes."""
    from .qpoly import q_binomial, q_power

    f = q_binomial(n + k - 1, k) * q_binomial(n - 1, k)
    if colors != 1 and k >= 1:
        f = f * q_power(colors, k)
    return f


def improper_total_polynomial(n: int) -> IntPoly:
    """Sieving polynomial for all improper cycle tubings of length n."""
    from .qpoly import ZERO

    total = ZERO
    for k in range(0, n):
        total = total + tube_count_polynomial(n, k)
    return total


def tubing_to_jsonable(tubing: Iterable[Tube]) -> list[list[int]]:
    return [list(t) for t in sorted(tubing)]
