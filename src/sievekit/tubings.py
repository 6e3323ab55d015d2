"""Tubings of interval and cycle graphs, and their lattice-path bijections.

A tube is a nonempty connected vertex set; a tubing is a set of tubes that
are pairwise nested, or disjoint with no edge between them.  Vertices are
0-indexed; on the cycle they run clockwise and arcs wrap modulo n.  Tubes
are stored as (start, length) pairs.  On the interval the full vertex set
is a valid tube; on the cycle the full circle is excluded.

Inside the module a tubing is also a bitset of tube indices (bit i is the
i-th tube of the graph in enumeration order).  ``tubing_masks`` enumerates
these bitsets with the vertices they cover, and the bijections and the
cyclic census run on them; the frozenset functions convert at their edges.
For the bijections a second walk, taking the same branches, also carries
each tubing's steps in vertex order, two edits per added tube, and yields
each tubing's path (on the cycle, four slices of the steps).
``round_trip`` decodes each path back with the graph's decoder, which
checks that it is a path as it goes: on the interval one right-to-left
scan with no stack; on the cycle one left-to-right scan that finds, from
the path's lowest level, where the cycle was cut, then the interval's
scan of the marked path that cutting there made.

Lattice paths are strings over U = (1,1), D = (1,-1), F = (2,0), and the
length of a path is its x-extent.  The height of a step is the y-coordinate
before it.  Tubings of the n-interval biject with nonnegative paths of
length 2n; improper tubings of the n-cycle biject with unrestricted paths
of length 2(n-1), by cutting the cycle at a free vertex.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator
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
    ``compat[i]`` is the set of tubes compatible with tube i (itself
    included).  It is quadratic in the number of tubes, so it is built on
    first use.  Tubes are ordered by length, then start, so a tube's
    subtubes all come before it.
    """

    def __init__(self, n: int, kind: str) -> None:
        tubes = interval_tubes(n) if kind == "interval" else cycle_tubes(n)
        self.n, self.kind, self.full = n, kind, (1 << n) - 1
        self.tubes, self.every = tubes, (1 << len(tubes)) - 1
        self.index = {t: i for i, t in enumerate(tubes)}
        self.masks = []
        for start, length in tubes:
            mask = ((1 << length) - 1) << start
            self.masks.append((mask | mask >> n) & self.full)  # wrap on the cycle

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

    def rotation(self, step: int) -> tuple[int, int]:
        """The masks (stay, wrap) that rotate every tube of a cycle tube set
        by ``step`` vertices, 0 <= step < n: the rotated set is
        ``(bits << step) & stay | (bits >> (n - step)) & wrap``.

        Tube (start, length) has index (length - 1) * n + start, so the
        rotation turns each length's n-bit block: bits that stay in their
        block shift up by step, the top step bits wrap to the bottom.
        """
        low = (1 << step) - 1
        stay = wrap = 0
        for block in range(0, len(self.tubes), self.n):
            stay |= (self.full ^ low) << block
            wrap |= low << block
        return stay, wrap

    @functools.cached_property
    def compat(self) -> list[int]:
        n, full = self.n, self.full
        out = []
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
            out.append(row)
        return out

    @functools.cached_property
    def later(self) -> list[int]:
        """``later[t]``: the tubes after tube t that are compatible with it."""
        return [(row >> (t + 1)) << (t + 1) for t, row in enumerate(self.compat)]

    @functools.cached_property
    def path_tables(self) -> tuple[list, list, list, list]:
        """The tables the path walk and the decoder read, built on first use.

        ``start[i]`` is tube i's start vertex and ``before[i]`` the vertices
        before it, those a cycle tube wraps into.  ``opened[v]``, for v in
        0..n, is the set of tubes that start before vertex v: in a tubing's
        steps in vertex order, vertex v's steps begin at
        ``v + (bits & opened[v]).bit_count()``.  ``ends[a][b]`` is the bit of
        the tube on vertices a..b-1, or 0 where there is no such tube; on
        the cycle a and b run to 2n - 1 and count modulo n, as the decoder
        numbers the n vertices of a marked path from its cut vertex on.
        """
        n, cycle, index = self.n, self.kind == "cycle", self.index
        start = [s for s, _ in self.tubes]
        before = [(1 << s) - 1 for s in start]
        opened = [0] * (n + 1)
        for i, s in enumerate(start):
            for v in range(s + 1, n + 1):
                opened[v] |= 1 << i
        size = 2 * n if cycle else n + 1
        ends = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(a + 1, size):
                tube = (a % n if cycle else a, b - a)
                if tube in index:
                    ends[a][b] = 1 << index[tube]
        return start, before, opened, ends

    @functools.cached_property
    def decode(self) -> Callable[[str], int]:
        """The tube bitset a path of P_n decodes to, or -1 for a word not in
        P_n: the Schröder paths of length 2n for the n-interval, the
        Delannoy paths of length 2(n - 1) for the n-cycle, which
        ``_cycle_decoder`` cuts before it runs ``_interval_decoder``'s scan.
        Built on first use over ``path_tables``, so a round trip is one call."""
        make = _interval_decoder if self.kind == "interval" else _cycle_decoder
        return make(self.n, self.path_tables[3])


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


def _capped_graph(n: int, kind: str) -> _Graph:
    """The graph of a public tubing function: ValueError for an unknown
    kind or n past MAX_INTERVAL or MAX_CYCLE, before any graph is built."""
    if kind not in ("interval", "cycle"):
        raise ValueError(f"unknown graph kind {kind!r}")
    cap = MAX_INTERVAL if kind == "interval" else MAX_CYCLE
    if n > cap:
        raise ValueError(f"refusing to enumerate {kind} tubings beyond n = {cap}")
    return _graph(n, kind)


def _tube_set(graph: _Graph, bits: int) -> int:
    """The bitset, checked to name tubes of the graph only."""
    if bits < 0 or bits >> len(graph.tubes):
        raise ValueError(f"not a valid {graph.kind} tubing")
    return bits


def mask_to_tubing(n: int, bits: int, kind: str = "interval") -> Tubing:
    """The tubing of the n-interval or n-cycle that a tube bitset stands for."""
    graph = _capped_graph(n, kind)
    return graph.tubing(_tube_set(graph, bits))


def tube_vertices(n: int, tube: Tube, kind: str = "interval") -> frozenset:
    graph = _capped_graph(n, kind)
    (i,) = graph.indices((tube,))
    return frozenset(_bits(graph.masks[i]))


def tubes_compatible(n: int, t1: Tube, t2: Tube, kind: str = "interval") -> bool:
    """Nested, or vertex-disjoint with no edge between the two tubes."""
    graph = _capped_graph(n, kind)
    i, j = graph.indices((t1, t2))
    return bool(graph.compat[i] >> j & 1)


def is_tubing(n: int, tubes: Iterable[Tube], kind: str = "interval") -> bool:
    tubes = list(tubes)
    if len(set(tubes)) != len(tubes):
        return False
    graph = _capped_graph(n, kind)
    chosen, compat = graph.bits(tubes), graph.compat
    return all(chosen & compat[i] == chosen for i in graph.indices(tubes))


def tubing_masks(n: int, kind: str = "interval") -> Iterator[tuple[int, int]]:
    """Every tubing of the n-interval or n-cycle, the empty tubing included,
    as (tube bitset, covered vertex mask) pairs, depth first (``_walk``)."""
    graph = _capped_graph(n, kind)
    return _walk(graph, graph.every)


def _walk(graph: _Graph, candidates: int) -> Iterator[tuple[int, int]]:
    """The tubings among the candidate tubes, depth first over tube indices.

    Each branch carries the bitset of later tubes still compatible with
    everything chosen, and takes them in increasing index order; an
    explicit stack keeps the generator flat.
    """
    masks, later = graph.masks, graph.later
    stack = [(candidates, 0, 0)]
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


def _path_walk(graph: _Graph, candidates: int) -> Iterator[tuple[int, str]]:
    """``_walk``, each tubing with its path in P_n, as (bitset, path) pairs.

    The walk takes the same branches in the same order and carries each
    tubing's steps in vertex order: per vertex a rise for each tube that
    starts at it, then a fall if it is a tube's final, else a flat.  A tube
    t joins after every tube of lower index, its subtubes among them, so
    what the branch has not covered of t is t's own, and t's final is the
    highest vertex of that which t wraps to below its start (on the
    cycle), else its highest.  Adding t puts a rise in front of its start's
    steps and turns its final's flat into a fall; ``opened`` places both.

    On the interval the steps are the Schröder path.  The cycle is cut
    after its last free vertex, cut - 1, and walked from vertex cut: a
    nonnegative path ending in that vertex's flat, marked at the last step
    of vertex 0.  Unmarking drops the final flat and turns the mark to the
    front, which leaves the steps of vertices 1..cut-2, the last step of
    vertex 0, the steps of vertices cut..n-1, then the rises of vertex 0;
    or, when vertex 0 is the cut vertex (cut = 1), the steps of vertices
    1..n-1.  Four slices of the steps at vertex boundaries make it.
    """
    masks, later, full = graph.masks, graph.later, graph.full
    start, before, opened, _ = graph.path_tables
    at_start, through = [opened[s] for s in start], opened[1:]
    cycle = graph.kind == "cycle"
    stack = [(candidates, 0, 0, "F" * graph.n)]
    push, pop = stack.append, stack.pop
    while stack:
        candidates, bits, covered, steps = pop()
        if not cycle:
            yield bits, steps
        else:
            one = 1 + (bits & opened[1]).bit_count()  # where vertex 1's steps begin
            cut = (~covered & full).bit_length()  # no cycle tubing covers every vertex
            if cut == 1:
                yield bits, steps[one:]
            else:
                free = cut - 1 + (bits & opened[cut - 1]).bit_count()  # its steps: one flat
                yield bits, steps[one:free] + steps[one - 1] + steps[free + 1:] + steps[:one - 1]
        rest = candidates
        while rest:
            t = rest.bit_length() - 1
            rest ^= 1 << t
            left = masks[t] & ~covered
            final = (left & before[t] or left).bit_length() - 1
            u = start[t] + (bits & at_start[t]).bit_count()  # the new rise
            d = final + (bits & through[final]).bit_count()  # the final's flat
            if u <= d:
                grown = f"{steps[:u]}U{steps[u:d]}D{steps[d + 1:]}"
            else:  # a cycle tube whose final wraps below its start
                grown = f"{steps[:d]}D{steps[d + 1:u]}U{steps[u:]}"
            push((candidates & later[t], bits | 1 << t, covered | masks[t], grown))


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
    graph = _capped_graph(n, kind)
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


# -- the bijections ----------------------------------------------------------------


def _interval_decoder(n: int, ends: list[list[int]]) -> Callable[..., int]:
    """The decoder of Schröder paths over the n-interval, given its ``ends``
    table (rows and columns 0..n): the tube bitset of a path, or -1 for a
    word with other than n vertices (flats and falls), an unknown step, a
    fall below 0 or an end off height 0: the words that
    ``enumerate_paths(2n, "schroder")`` omits.

    Each rise opens a tube at its vertex; the tube closes right before the
    next flat or fall taken from the rise's height, or at the end of the
    path.  So one scan from the right, with the height from the end,
    records in ``nxt[h]`` the vertex of the last flat or fall taken from
    height h (the path's end at first), and each rise from height h ORs in
    ``ends[v][nxt[h]]``.  Heights counted from the end stay nonnegative
    and end at 0 exactly when the path, read from the start, never falls
    below 0 and ends at height 0.  Vertices are numbered from ``first``: 0
    here, the cut vertex where ``_cycle_decoder`` scans its marked path.
    """

    def decode(path: str, first: int = 0) -> int:
        if len(path) - path.count("U") != n:
            return -1
        v, bits, h = first + n, 0, 0
        nxt = [v] * (n + 1)  # heights from the end: at most the n falls
        for s in reversed(path):
            if s == "U":
                if not h:
                    return -1
                h -= 1
                bits |= ends[v][nxt[h]]
            elif s == "F":
                v -= 1
                nxt[h] = v
            elif s == "D":
                v -= 1
                h += 1
                nxt[h] = v
            else:
                return -1
        return -1 if h else bits

    return decode


def _cycle_decoder(n: int, ends: list[list[int]]) -> Callable[[str], int]:
    """The decoder of Delannoy paths of length 2(n - 1) over the n-cycle,
    given its ``ends`` table (rows and columns 0..2n-1, counted modulo n):
    the tube bitset of a path, or -1 for a word that is no such path.

    It undoes the unmarking of ``_path_walk``.  One scan from the left
    finds the mark: the last flat at the path's lowest level, else the
    first step down to it if the path dips below 0, else none.  Swapping
    the steps on either side of the mark and appending the final flat
    restores the marked path, which the interval's scan decodes with its
    n vertices numbered from cut, the vertex after the mark's.
    """
    scan = _interval_decoder(n, ends)

    def decode(path: str) -> int:  # the scan refuses a wrong vertex count or end height
        h, low, mark = 0, 0, -1
        for t, s in enumerate(path):
            if s == "U":
                h += 1
            elif s == "D":
                h -= 1
                if h < low:
                    low, mark = h, t
            elif s != "F":
                return -1
            elif h == low:
                mark = t
        if mark < 0:  # vertex 0 is the cut vertex
            return scan(path + "F", 1)
        cut = mark - path.count("U", 0, mark) + 2  # the path's vertices number from 1
        return scan(path[mark + 1:] + path[mark] + path[:mark] + "F", cut)

    return decode


def tubing_paths(n: int, kind: str) -> Iterator[tuple[int, str]]:
    """Each tubing of the n-interval or n-cycle with its path, as (bitset,
    path) pairs in the order of ``tubing_masks``."""
    graph = _capped_graph(n, kind)
    return _path_walk(graph, graph.every)


def round_trip(n: int, kind: str) -> tuple[int, tuple[int, str] | None]:
    """Send each tubing of the n-interval or n-cycle to its path and back,
    in the order of ``tubing_masks``: the number that come back, and the
    first tubing (bitset and path) whose path is not in P_n or decodes to
    another bitset, or None."""
    graph = _capped_graph(n, kind)
    decode, count = graph.decode, 0
    for bits, path in _path_walk(graph, graph.every):
        if decode(path) != bits:
            return count, (bits, path)
        count += 1
    return count, None


def mask_to_path(n: int, bits: int, kind: str = "interval") -> str:
    """The path of an interval or cycle tubing given as a tube bitset.

    The walk of ``tubing_masks`` over the tubings among its tubes takes
    the lowest tube first, so it reaches the whole bitset after one
    tubing per tube; a bitset that is no tubing raises ValueError.
    """
    graph = _capped_graph(n, kind)
    walk = _path_walk(graph, _tube_set(graph, bits))
    reached, path = next(itertools.islice(walk, bits.bit_count(), None))
    if reached != bits:
        raise ValueError(f"not a valid {kind} tubing")
    return path


def path_to_mask(n: int, path: str, kind: str = "interval") -> int:
    """The tube bitset a path of P_n decodes to; ValueError for a path
    outside P_n."""
    bits = _capped_graph(n, kind).decode(path)
    if bits < 0:
        name, length = ("Schröder", 2 * n) if kind == "interval" else ("Delannoy", 2 * n - 2)
        raise ValueError(f"{path!r} is not a {name} path of length {length}")
    return bits


def interval_tubing_to_schroder(n: int, tubing: Iterable[Tube]) -> str:
    """The Schröder path of an interval tubing."""
    return mask_to_path(n, _capped_graph(n, "interval").bits(tubing), "interval")


def schroder_to_interval_tubing(n: int, path: str) -> Tubing:
    """The interval tubing of a Schröder path of length 2n."""
    tubing = mask_to_tubing(n, path_to_mask(n, path, "interval"), "interval")
    if not is_tubing(n, tubing, "interval"):
        raise ValueError(f"path {path!r} does not decode to a tubing")
    return tubing


def cycle_tubing_to_delannoy(n: int, tubing: Iterable[Tube]) -> str:
    """The Delannoy path of an improper cycle tubing."""
    return mask_to_path(n, _capped_graph(n, "cycle").bits(tubing), "cycle")


def delannoy_to_cycle_tubing(n: int, path: str) -> Tubing:
    """The improper cycle tubing of a Delannoy path of length 2(n - 1)."""
    tubing = mask_to_tubing(n, path_to_mask(n, path, "cycle"), "cycle")
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
    if not isinstance(grading, str) or grading not in _GRADINGS:
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

    The grade and the weight depend on a tubing only through its tube
    count k and covered vertices, so each length's tubings are tallied by
    (k, covered, d) for d = 1 and each order d that fixes them, and each
    tally is graded and weighted once.
    """
    from .objects import Census
    from .qgauss import PolyFamily

    check_improper_job(max_rank, grading, colors)
    instance, window_at, grade, poly = _GRADINGS[grading]
    window = window_at(max_rank)
    weight = [colors**k for k in range(max_rank)]
    fixed: dict = {}  # (s, d) -> colored objects the order-d rotation fixes (d = 1: all)
    for n in range(1, max_rank + 1):
        graph = _graph(n, "cycle")
        # the rotations of order d > 1 as (d, step, n - step, stay, wrap),
        # and per tube count k < n those whose order divides k
        turns = [(d, n // d, n - n // d, *graph.rotation(n // d)) for d in divisors(n) if d > 1]
        turns = [[r for r in turns if not k % r[0]] for k in range(n)]
        tally: dict = {}  # (k, covered, d) -> tubings the order-d rotation fixes
        for bits, covered in tubing_masks(n, "cycle"):
            k = bits.bit_count()
            key = k, covered, 1
            tally[key] = tally.get(key, 0) + 1
            for d, step, back, stay, wrap in turns[k]:
                if (bits << step) & stay | (bits >> back) & wrap == bits:
                    key = k, covered, d
                    tally[key] = tally.get(key, 0) + 1
        for (k, covered, d), c in tally.items():
            s = grade(n, k, n - covered.bit_count())
            fixed[s, d] = fixed.get((s, d), 0) + c * weight[k // d]
    rows = []
    for s in instance.elements(window):
        by_order = {d: (fixed.get((s, d), 0), 0) for d in divisors(instance._rank(s))}
        rows.append((s, by_order[1][0], by_order))
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
