"""Set-based tubing oracles for the differential tests.

These are the straightforward definitions the mask-based library code in
``sievekit.tubings`` replaced: tubes as frozensets of vertices, pairwise
compatibility from the set definition, the depth-first enumerator that
re-checks every chosen tube, the decoder that scans ahead for each rise's
closing step, the path enumerator with each kind's step rules written
out as branches, the membership test ``is_path`` that the cycle decoder
once ran first, the graded census of improper cycle tubings counted
from the set-based enumeration, and the list-building tubing <-> path
kernels (``ref_*``) that the table-driven ones replaced, the one-scan
marked-path restoration (``delannoy_to_marked``) that the cycle decoder
ran before it decoded, those
table-driven kernels (``table_*``), which the maps carried down the tubing
walk replaced in turn, and the two decoders that kept a stack of open
rises (``stack_decode``, ``stack_cycle_decoder``), which one stackless
scan replaced.  They compute nothing with the library,
so a regression there cannot hide behind its own code; ``cycle_family``
only puts its objects into the library's containers, which the checks
under test read.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Iterable


def tube_vertices(n: int, tube, kind: str = "interval") -> frozenset:
    start, length = tube
    if kind == "interval":
        if not (0 <= start and start + length <= n and length >= 1):
            raise ValueError(f"tube {tube!r} does not fit in the {n}-interval")
        return frozenset(range(start, start + length))
    if kind == "cycle":
        if not (0 <= start < n and 1 <= length <= n - 1):
            raise ValueError(f"tube {tube!r} does not fit in the {n}-cycle")
        return frozenset((start + i) % n for i in range(length))
    raise ValueError(f"unknown graph kind {kind!r}")


def tubes_compatible(n: int, t1, t2, kind: str = "interval") -> bool:
    """Nested, or vertex-disjoint with no edge between the two tubes."""
    a = tube_vertices(n, t1, kind)
    b = tube_vertices(n, t2, kind)
    if a <= b or b <= a:
        return True
    if a & b:
        return False
    for v in a:
        if kind == "cycle":
            if (v + 1) % n in b or (v - 1) % n in b:
                return False
        else:
            if v + 1 in b or v - 1 in b:
                return False
    return True


def is_tubing(n: int, tubes: Iterable, kind: str = "interval") -> bool:
    tubes = list(tubes)
    if len(set(tubes)) != len(tubes):
        return False
    for t in tubes:
        tube_vertices(n, t, kind)
    return all(
        tubes_compatible(n, t1, t2, kind)
        for t1, t2 in itertools.combinations(tubes, 2)
    )


def final_vertices(n: int, tubing: Iterable, kind: str = "interval") -> dict:
    """Each tube's last vertex, in traversal order, outside its subtubes."""
    tubing = set(tubing)
    out = {}
    for tube in tubing:
        mine = tube_vertices(n, tube, kind)
        covered: set[int] = set()
        for other in tubing:
            if other != tube:
                vs = tube_vertices(n, other, kind)
                if vs < mine:
                    covered |= vs
        start, length = tube
        walk = [(start + i) % n for i in range(length)]
        out[tube] = [v for v in walk if v not in covered][-1]
    return out


def all_tubes(n: int, kind: str) -> list:
    if kind == "interval":
        return [(s, l) for l in range(1, n + 1) for s in range(0, n - l + 1)]
    return [(s, l) for l in range(1, n) for s in range(n)]


def enumerate_tubings(n: int, kind: str = "interval") -> list[frozenset]:
    """Every tubing, the empty one included, in depth-first order."""
    tubes = all_tubes(n, kind)
    out: list[frozenset] = []
    chosen: list = []

    def rec(i: int) -> None:
        out.append(frozenset(chosen))
        for t in range(i, len(tubes)):
            if all(tubes_compatible(n, tubes[t], c, kind) for c in chosen):
                chosen.append(tubes[t])
                rec(t + 1)
                chosen.pop()

    rec(0)
    return out


@functools.lru_cache(maxsize=None)
def _cycle_tubings(n: int) -> tuple:
    """(tubing, tube count, free-vertex count, {d: tube orbits} over the
    orders d > 1 whose rotation fixes it) per tubing of the n-cycle."""
    out = []
    for tubing in enumerate_tubings(n, "cycle"):
        covered = set().union(*(tube_vertices(n, t, "cycle") for t in tubing))
        orbits = {}
        for d in range(2, n + 1):
            step = n // d
            if n % d == 0 and {((s + step) % n, l) for s, l in tubing} == tubing:
                orbits[d] = len(
                    {min(((s + j * step) % n, l) for j in range(d)) for s, l in tubing}
                )
        out.append((tubing, len(tubing), n - len(covered), orbits))
    return tuple(out)


def _grade(grading: str, n: int, tubes: int, free: int):
    return {"free": (n, free), "tubes": (n, tubes), "all": n}[grading]


def _grade_elements(max_rank: int, grading: str) -> list:
    """The window elements of a grading in (rank, extra) order."""
    if grading == "all":
        return list(range(1, max_rank + 1))
    low = 1 if grading == "free" else 0
    return [(n, x) for n in range(1, max_rank + 1) for x in range(low, max_rank + 1)]


def cycle_census(max_rank: int, grading: str, colors: int = 1) -> tuple:
    """The census rows (s, count, {d: (fixed, 0)}) of colored improper cycle
    tubings of lengths 1..max_rank, graded by "free" vertex count, by
    "tubes" or by length alone ("all"), in window order.

    A tubing with k tubes counts colors**k.  Its coloring is fixed by a
    rotation that fixes the tubing when it is constant on each orbit of
    tubes, so the order-d rotation fixes colors**(orbits) of them.
    """
    count: Counter = Counter()
    fixed: Counter = Counter()
    for n in range(1, max_rank + 1):
        for _, k, free, orbits in _cycle_tubings(n):
            s = _grade(grading, n, k, free)
            count[s] += colors**k
            for d, m in orbits.items():
                fixed[s, d] += colors**m
    rows = []
    for s in _grade_elements(max_rank, grading):
        n = s if grading == "all" else s[0]
        by_order = {
            d: (fixed[s, d] if d > 1 else count[s], 0)
            for d in range(1, n + 1)
            if n % d == 0
        }
        rows.append((s, count[s], by_order))
    return tuple(rows)


def cycle_family(max_rank: int, grading: str):
    """The uncolored improper cycle tubings of lengths 1..max_rank as a
    ``CyclicFamily`` over the grading's instance and window.

    A tubing is encoded slotwise: per vertex, the (length, offset) of each
    tube through it, sorted, so rotating the cycle rotates the encoding.
    """
    from sievekit.objects import CyclicFamily, CyclicObject
    from sievekit.semigroup import Chain, PositiveIntegers, Window

    if grading == "all":
        instance, window = PositiveIntegers(), Window(max_rank)
    else:
        extra, low = ("pos", 1) if grading == "free" else ("nonneg", 0)
        instance = Chain(PositiveIntegers(), extra)
        window = Window(max_rank, ((low, max_rank),))
    buckets: dict = {}
    for n in range(1, max_rank + 1):
        for tubing, k, free, _ in _cycle_tubings(n):
            slots: list[list] = [[] for _ in range(n)]
            for start, length in tubing:
                for i in range(length):
                    slots[(start + i) % n].append((length, i))
            obj = CyclicObject("tubing", tuple(tuple(sorted(sl)) for sl in slots))
            buckets.setdefault(_grade(grading, n, k, free), []).append(obj)
    return CyclicFamily.from_generator(instance, window, lambda s: buckets.get(s, ()))


def enumerate_paths(length: int, kind: str = "delannoy") -> list[str]:
    """All paths of x-extent ``length`` over U = (1,1), D = (1,-1), F = (2,0)
    that end at height 0: "delannoy" paths go anywhere, "schroder" paths
    never fall below 0, "strict" ones also never take a flat at 0."""
    out: list[str] = []
    acc: list[str] = []

    def rec(rem: int, h: int) -> None:
        if abs(h) > rem:
            return
        if rem == 0:
            if h == 0:
                out.append("".join(acc))
            return
        acc.append("U")
        rec(rem - 1, h + 1)
        acc.pop()
        if kind == "delannoy" or h >= 1:
            acc.append("D")
            rec(rem - 1, h - 1)
            acc.pop()
        if rem >= 2 and not (kind == "strict" and h == 0):
            acc.append("F")
            rec(rem - 2, h)
            acc.pop()

    rec(length, 0)
    return sorted(out)


# What ``is_path`` reads a flat as, per kind: None where the rules ignore
# the height; else, for a path that must stay at or above 0, nothing where
# a flat may be taken at 0, and a fall then a rise where it may not (such a
# flat then dips below 0).
_FLAT_AS = {"delannoy": None, "schroder": "", "strict": "DU"}


def is_path(path: str, length: int, kind: str = "delannoy") -> bool:
    """Whether ``enumerate_paths(length, kind)`` lists the path: known
    steps under its step rules, the given x-extent, ending at height 0.

    Where the rules ignore the height, the step counts decide.  Elsewhere
    the path, its flats rewritten, must reduce to nothing by deleting
    rises followed by falls: exactly the words over U and D that stay at
    or above height 0 and end there.  An unknown kind, or a length that
    is odd or negative, raises ``ValueError`` as ``count_paths`` does.
    """
    if kind not in _FLAT_AS:
        raise ValueError(f"unknown path kind {kind!r}")
    if length < 0 or length % 2:
        raise ValueError(f"path length must be even and nonnegative, got {length}")
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


def step_heights(path: str) -> list[int]:
    """The height before each step of a path over U, D, F."""
    steps = ({"U": 1, "D": -1, "F": 0}[s] for s in path)
    return list(itertools.accumulate(steps, initial=0))[:-1]


def schroder_to_interval_tubing(n: int, path: str) -> frozenset:
    """Each rise opens a tube; it closes right before the next flat or fall
    at the rise's height (found by scanning ahead), or at the end."""
    heights = []
    h = 0
    for s in path:
        heights.append(h)
        h += {"U": 1, "D": -1, "F": 0}[s]
    m = len(path)
    close_at: dict[int, list[int]] = {}
    for t, s in enumerate(path):
        if s != "U":
            continue
        slot = m
        for u in range(t + 1, m):
            if path[u] in ("D", "F") and heights[u] == heights[t]:
                slot = u
                break
        close_at.setdefault(slot, []).append(t)
    tubes = []
    stack: list[tuple[int, int]] = []
    vi = 0
    for u in range(m + 1):
        for t in sorted(close_at.get(u, ()), reverse=True):
            opener, start = stack.pop()
            if opener != t:
                raise ValueError(f"mismatched tube brackets in {path!r}")
            tubes.append((start, vi - start))
        if u == m:
            break
        if path[u] == "U":
            stack.append((u, vi))
        else:
            vi += 1
    return frozenset(tubes)


def bijection_payload(tb, kind: str, max_n: int) -> tuple[dict, int]:
    """The bijection check that holds every tubing, every path and the image
    set of each size at once, with its payload and exit code.

    ``tb`` is the library's tubings module, passed in so that this file
    still imports nothing from the library, and so that a fault planted in
    the module's maps reaches this check as it reaches the streaming one.
    The job is assumed to have passed its guards.
    """
    payload: dict = {"command": "bijection", "kind": kind, "per_n": []}
    total = 0
    for n in range(1, max_n + 1):
        if kind == "interval":
            items = tb.enumerate_tubings(n, "interval")
            paths = tb.enumerate_paths(2 * n, "schroder")
            fwd, inv = tb.interval_tubing_to_schroder, tb.schroder_to_interval_tubing
        else:
            items = [
                t
                for t in tb.enumerate_tubings(n, "cycle")
                if tb.free_vertices(n, t, "cycle")
            ]
            paths = tb.enumerate_paths(2 * (n - 1), "delannoy")
            fwd, inv = tb.cycle_tubing_to_delannoy, tb.delannoy_to_cycle_tubing
        seen = set()
        for t in items:
            p = fwd(n, t)
            try:
                back = inv(n, p)
            except ValueError:  # the image is no path of P_n
                back = None
            if back != t:
                payload["ok"] = False
                payload["witness"] = {
                    "n": n,
                    "tubing": tb.tubing_to_jsonable(t),
                    "path": p,
                }
                return payload, 2
            seen.add(p)
        if seen != set(paths):
            bad = sorted(set(paths) ^ seen)[0]
            payload["ok"] = False
            payload["witness"] = {"n": n, "path": bad, "detail": "image mismatch"}
            return payload, 2
        payload["per_n"].append([n, len(items)])
        total += len(items)
    payload["total"] = total
    payload["ok"] = True
    return payload, 0


# -- the tubing <-> path kernels of the list-building implementation ---------------
#
# A copy of the per-tubing maps that ``sievekit.tubings`` replaced with
# table-driven ones: the Schröder walk over a list of (start, vertex mask)
# tubes, the decoder that lists (start, length) tubes, the cycle cut and
# unmarking, and the two-pass restoration of a marked path.  Tubings are
# tube bitsets in the library's enumeration order (``all_tubes``); the
# frozenset forms convert at their edges.


def _tube_masks(n: int, kind: str) -> list[tuple[int, int]]:
    """(start, vertex mask) of each tube, in enumeration order."""
    full = (1 << n) - 1
    out = []
    for start, length in all_tubes(n, kind):
        mask = ((1 << length) - 1) << start
        out.append((start, (mask | mask >> n) & full))
    return out


def _set_bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _tubes_to_bits(n: int, kind: str, tubes: Iterable) -> int:
    index = {t: i for i, t in enumerate(all_tubes(n, kind))}
    out = 0
    for t in tubes:
        out |= 1 << index[t]
    return out


def _schroder_walk(n: int, tubes: Iterable[tuple[int, int]]) -> tuple[str, list[int]]:
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


def _decode_tubes(path: str) -> list[tuple[int, int]]:
    tubes = []
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
        h += {"D": -1, "F": 0}[s]
    tubes.extend((start, vi - start) for _, start in rises)
    return tubes


def ref_interval_mask_to_schroder(n: int, bits: int) -> str:
    table = _tube_masks(n, "interval")
    return _schroder_walk(n, [table[i] for i in _set_bits(bits)])[0]


def ref_schroder_to_interval_mask(n: int, path: str) -> int:
    return _tubes_to_bits(n, "interval", _decode_tubes(path))


def ref_cycle_mask_to_marked(n: int, bits: int) -> tuple[str, int]:
    """Cut the cycle after the free vertex preceding vertex 0."""
    full = (1 << n) - 1
    chosen = [_tube_masks(n, "cycle")[i] for i in _set_bits(bits)]
    covered = 0
    for _, mask in chosen:
        covered |= mask
    free = full ^ covered
    if not free:
        raise ValueError("tubing is proper: it has no free vertex to cut at")
    cut = free.bit_length()
    p, opens = _schroder_walk(n, [
        ((start - cut) % n, (mask >> cut | mask << (n - cut)) & full)
        for start, mask in chosen
    ])
    v = -cut % n
    return p, sum(opens[: v + 1]) + v + 1


def ref_marked_to_cycle_mask(n: int, path: str, j: int) -> int:
    shift = j - path.count("U", 0, j) - 1
    return _tubes_to_bits(
        n, "cycle", (((start - shift) % n, length) for start, length in _decode_tubes(path))
    )


def ref_unmark(path: str, j: int) -> str:
    m = len(path)
    if j == m:
        return path[:-1]
    return path[j : m - 1] + path[j - 1] + path[: j - 1]


def ref_delannoy_to_marked(path: str) -> tuple[str, int]:
    step_y = {"U": 1, "D": -1, "F": 0}
    try:
        heights_after = list(itertools.accumulate(map(step_y.__getitem__, path)))
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


def delannoy_to_marked(path: str) -> tuple[str, int]:
    """The one-scan restoration of the marked path from an unrestricted
    one, which the cycle decoder ran before it decoded: the cut is the last
    flat at the path's lowest level if there is one, the first step
    reaching it if the path dips below zero, and the appended final flat
    otherwise."""
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


def ref_cycle_mask_to_delannoy(n: int, bits: int) -> str:
    return ref_unmark(*ref_cycle_mask_to_marked(n, bits))


def ref_delannoy_to_cycle_mask(n: int, path: str) -> int:
    return ref_marked_to_cycle_mask(n, *ref_delannoy_to_marked(path))


def ref_interval_tubing_to_schroder(n: int, tubing: Iterable) -> str:
    return ref_interval_mask_to_schroder(n, _tubes_to_bits(n, "interval", tubing))


def ref_cycle_tubing_to_delannoy(n: int, tubing: Iterable) -> str:
    return ref_cycle_mask_to_delannoy(n, _tubes_to_bits(n, "cycle", tubing))


# -- the table-driven kernels -------------------------------------------------------
#
# A copy of the per-tubing maps that ``sievekit.tubings`` replaced with the
# maps carried down its walk: the forward map finds every tube's final
# vertex again from the tube bitset, reading per-graph tables, and the
# decoder trusts its path (the library's cycle decoder then ran ``is_path`` first).


@functools.lru_cache(maxsize=None)
def _path_tables(n: int, kind: str) -> tuple:
    """(tube masks, vertices before each tube's start, the tubes opening
    at each vertex, each vertex's steps by its rises and finality, and the
    bit of the non-wrapping tube on vertices start..end-1 by start, end)."""
    tubes = all_tubes(n, kind)
    masks = [mask for _, mask in _tube_masks(n, kind)]
    before = [(1 << start) - 1 for start, _ in tubes]
    opening = [0] * n
    ends = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (start, length) in enumerate(tubes):
        opening[start] |= 1 << i
        if start + length <= n:
            ends[start][start + length] = 1 << i
    steps = [("U" * k + "F", "U" * k + "D") for k in range(n + 1)]
    return masks, before, opening, steps, ends


def _vertex_steps(n: int, kind: str, bits: int) -> tuple[list[str], int]:
    """The steps of each vertex in the path of a tube bitset, and the
    vertices its tubes cover: tubes in index order, shorter first, so the
    vertices covered before a tube, within it, are its subtubes'."""
    masks, before, opening, steps, _ = _path_tables(n, kind)
    covered = finals = 0
    for i in _set_bits(bits):
        left = masks[i] & ~covered
        finals |= 1 << ((left & before[i] or left).bit_length() - 1)
        covered |= masks[i]
    out = []
    for tubes in opening:
        out.append(steps[(bits & tubes).bit_count()][finals & 1])
        finals >>= 1
    return out, covered


def _table_decode(n: int, kind: str, path: str) -> int:
    ends = _path_tables(n, kind)[4]
    bits = h = v = 0
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


def vertex_order_path(n: int, kind: str, steps: list[str], covered: int) -> str:
    """The path of a tubing from its steps per vertex, in vertex order, and
    the vertices it covers: the steps on the interval, four slices of them
    at vertex boundaries on the cycle (cut after the last free vertex)."""
    if kind == "interval":
        return "".join(steps)
    cut = (~covered & ((1 << n) - 1)).bit_length()
    if cut == 1:
        return "".join(steps[1:])
    first = steps[0]
    return "".join(steps[1 : cut - 1]) + first[-1] + "".join(steps[cut:]) + first[:-1]


def table_mask_to_path(n: int, bits: int, kind: str) -> str:
    return vertex_order_path(n, kind, *_vertex_steps(n, kind, bits))


def stack_decode(graph, path: str) -> int:
    """The library's interval decoder before its stackless right-to-left
    scan, unchanged: one scan from the left that keeps the open rises on a
    stack.  ``graph`` is the library's ``_Graph`` of an n-interval.

    The tube bitset a Schröder path over the interval's n vertices
    decodes to; -1 for a path with an unknown step, a fall below 0, an end
    off height 0 or other than n vertices (flats and falls): the paths
    ``enumerate_paths(2n, "schroder")`` omits.

    Each rise opens a tube at the current vertex; it closes right before
    the next flat or fall at the rise's height, or at the end of the path.
    """
    ends = graph.path_tables[3]
    bits = h = v = 0
    # of each open rise, innermost last: its height (under a sentinel; they
    # never decrease up the stack), and the row of ``ends`` of its vertex
    heights, rows = [None], []
    try:
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
            if s == "D" and h:
                h -= 1
            elif s != "F":
                return -1
    except IndexError:  # a vertex past n: ``ends`` has rows and columns 0..n
        return -1
    if h or v != graph.n:
        return -1
    for row in rows:
        bits |= row[v]
    return bits


def table_path_to_mask(n: int, path: str, kind: str) -> int:
    if kind == "interval":
        return _table_decode(n, kind, path)
    p, j = ref_delannoy_to_marked(path)
    shift = p.count("U", 0, j) + 1 - j
    tubes = all_tubes(n, kind)
    decoded = (tubes[i] for i in _set_bits(_table_decode(n, kind, p)))
    return _tubes_to_bits(n, kind, (((start + shift) % n, length) for start, length in decoded))


def stack_cycle_decoder(n: int, ends: list[list[int]]) -> Callable[[str], int]:
    """The library's cycle decoder before it cut the cycle and ran the
    interval's stackless scan, unchanged: one left-to-right scan that keeps
    the open rises on a stack.

    The decoder of Delannoy paths of length 2(n - 1) over the n-cycle,
    given its ``ends`` table (rows and columns 0..2n-1, counted modulo n):
    the tube bitset of a path, or -1 for a word that is no such path.

    A Delannoy path is a marked path unmarked (see ``_path_walk``).  Read
    as it stands, it is the marked path's steps from vertex 1 on, with the
    mark, vertex 0's last step, in the place of the flat of vertex cut - 1,
    and vertex 0's rises last.  So decoded as a Schröder path from the left
    with its flats and falls numbered 1..n-1 (each rise closes right before
    the next flat or fall taken from its height), each tube that closes
    before the end is right: the rises open at the mark are those the flat
    would close.  The same scan refuses an unknown step, an end off height
    0 or other than n - 1 vertices, and finds the mark from the path's
    lowest level: the last flat at that level if there is one, else the
    first step down to it if the path dips below 0, else none (vertex 0 is
    the cut vertex).  The tubes still open at the end run through vertex
    0; the marked path closes them at the mark, in the steps before it,
    which are read again numbered from n, or at the flat of vertex cut - 1.
    """

    def decode(path: str) -> int:
        bits = h = low = 0
        v, mark, cut = 1, len(path), 1
        # of each open rise, innermost last: its height (under a sentinel;
        # they never decrease up the stack), and the row of ``ends`` of its vertex
        heights, rows = [None], []
        try:
            for t, s in enumerate(path):
                if s == "U":
                    heights.append(h)
                    rows.append(ends[v])
                    h += 1
                    continue
                while heights[-1] == h:
                    heights.pop()
                    bits |= rows.pop()[v]
                if s == "D":
                    h -= 1
                    if h < low:
                        low, mark, cut = h, t, v + 1
                elif s != "F":
                    return -1
                elif h == low:
                    mark, cut = t, v + 1
                v += 1
        except IndexError:  # a vertex past 2n - 1
            return -1
        if h or v != n:
            return -1
        if rows and mark < len(path):
            while heights[-1] == 0:  # the mark, at height 0 after the path's end
                heights.pop()
                bits |= rows.pop()[n]
            h, v = -(path[mark] == "D"), n + 1
            for s in path[:mark]:
                if not rows:
                    break
                if s == "U":
                    heights.append(h)
                    rows.append(ends[v])
                    h += 1
                    continue
                while heights[-1] == h:
                    heights.pop()
                    bits |= rows.pop()[v]
                v += 1
                h -= s == "D"
        for row in rows:  # the flat of vertex cut - 1
            bits |= row[n + cut - 1]
        return bits

    return decode
