"""Enumerator oracles for the differential tests of ``sievekit.objects``.

These are the definitions the objects layer replaced: every ordering of a
multiset from ``itertools.permutations``, deduplicated through a dict; each
bead tiling placed slot by slot at every offset; ``fixed_points`` by
rotating each object and comparing it with itself; and rotation closure as
the equality of two sets.  They borrow from the library only what that
rewrite left alone: the ``CyclicObject`` constructor, the content and
support validation, and ``FreeRanked``.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from sievekit.gaussseq import SequenceSpec
from sievekit.objects import CyclicObject, _content_items, _nonneg_support
from sievekit.semigroup import FreeRanked


def rotated(o: CyclicObject, steps: int) -> CyclicObject:
    j = steps % len(o.slots)
    if j == 0:
        return o
    return CyclicObject(o.kind, o.slots[j:] + o.slots[:j], o.sign)


def closed_under_rotation(objs: Sequence[CyclicObject]) -> bool:
    return set(rotated(o, 1) for o in objs) == set(objs)


def fixed_points(objs: Sequence[CyclicObject], d: int) -> list[CyclicObject]:
    objs = list(objs)
    if not objs:
        return []
    n = len(objs[0].slots)
    if d < 1 or n % d:
        raise ValueError(f"fixed_points: {d} does not divide the length {n}")
    step = n // d
    return [o for o in objs if rotated(o, step) == o]


def words_with_content(alpha) -> list[CyclicObject]:
    items = _content_items(alpha)
    perms = dict.fromkeys(itertools.permutations(items))
    return sorted(CyclicObject("word", w) for w in perms)


def _place_beads(n: int, beads: Sequence[tuple], offset: int) -> tuple:
    slots: list = [None] * n
    pos = offset
    for btype, color, length in beads:
        for i in range(length):
            slots[(pos + i) % n] = (btype, color, i == 0)
        pos += length
    return tuple(slots)


def festoons_by_content(beads, alpha) -> list[CyclicObject]:
    inst = beads if isinstance(beads, FreeRanked) else FreeRanked(tuple(beads))
    if any(length < 1 for length in inst.lengths):
        raise ValueError("festoons need bead lengths >= 1")
    if isinstance(alpha, Mapping):
        mults = [0] * len(inst.beads)
        for label, mult in alpha.items():
            mults[inst.label_index(label)] = mult
        alpha = tuple(mults)
    inst.validate(alpha)
    n = inst.rank(alpha)
    items = []
    for (label, length), mult in zip(inst.beads, alpha):
        items.extend([(label, 0, length)] * mult)
    out: dict = {}
    for perm in dict.fromkeys(itertools.permutations(items)):
        for offset in range(n):
            out[CyclicObject("festoon", _place_beads(n, perm, offset))] = None
    return sorted(out)


def _colored_festoons(c: SequenceSpec, s, signed: bool) -> list[CyclicObject]:
    inst = c.instance
    support = c.support() if signed else _nonneg_support(c, "c")
    n = inst.rank(s)
    kind = "signed-festoon" if signed else "festoon"
    out: dict = {}
    for parts in inst.decompositions(s, support=support):
        negatives = sum(1 for t in parts if c.value(t) < 0)
        sign = -1 if signed and negatives % 2 else 1
        for perm in dict.fromkeys(itertools.permutations(parts)):
            lengths = [inst.rank(t) for t in perm]
            color_ranges = [range(1, abs(c.value(t)) + 1) for t in perm]
            for colors in itertools.product(*color_ranges):
                beads = list(zip(perm, colors, lengths))
                for offset in range(n):
                    out[CyclicObject(kind, _place_beads(n, beads, offset), sign)] = None
    return sorted(out)


def festoons_colored(c: SequenceSpec, s) -> list[CyclicObject]:
    return _colored_festoons(c, s, signed=False)


def festoons_repeated(b: SequenceSpec, s) -> list[CyclicObject]:
    _nonneg_support(b, "b")
    inst = b.instance
    n = inst.rank(s)
    out = []
    for t, d in inst.unit_divisors(s):
        bt = b.value(t)
        if not bt:
            continue
        rt = inst.rank(t)
        for color in range(1, bt + 1):
            for r in range(rt):
                slots = tuple((t, color, (i - r) % rt == 0) for i in range(n))
                out.append(CyclicObject("festoon", slots))
    return sorted(out)


def signed_festoons(c: SequenceSpec, s) -> tuple[list, list]:
    objs = _colored_festoons(c, s, signed=True)
    return [o for o in objs if o.sign > 0], [o for o in objs if o.sign < 0]


def _length_tilings(n: int) -> list[tuple]:
    tilings = set()
    acc: list[int] = []

    def rec(left: int):
        if left == 0:
            beads = [(length, 0, length) for length in acc]
            for offset in range(n):
                tilings.add(_place_beads(n, beads, offset))
            return
        for x in range(1, left + 1):
            acc.append(x)
            rec(left - x)
            acc.pop()

    rec(n)
    return sorted(tilings)


def barrier_festoons(n: int, allow_bare: bool = False) -> list[CyclicObject]:
    if n < 1:
        raise ValueError(f"barrier_festoons: need n >= 1, got {n}")
    out = []
    for tiling in _length_tilings(n):
        bead_starts = [i for i, (_, _, is_start) in enumerate(tiling) if is_start]
        forced = []
        optional = []
        for idx, start in enumerate(bead_starts):
            prev = bead_starts[idx - 1]
            if tiling[start][0] > tiling[prev][0]:
                forced.append(start)
            else:
                optional.append(start)
        for r in range(len(optional) + 1):
            for extra in itertools.combinations(optional, r):
                barriers = set(forced) | set(extra)
                if not barriers and not allow_bare:
                    continue
                sign = -1 if len(barriers) % 2 else 1
                enc = tuple(
                    (length, is_start and i in barriers, is_start)
                    for i, (length, _, is_start) in enumerate(tiling)
                )
                out.append(CyclicObject("signed-festoon", enc, sign))
    return sorted(out)
