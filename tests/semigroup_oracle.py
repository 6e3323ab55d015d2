"""The per-class element checks that ``_SemigroupBase`` replaced, as oracles
for ``tests/test_semigroup_differential.py``.

Before the instances became data (a floor per coordinate and a rank row),
``PositiveIntegers``, ``Chain`` and ``FreeRanked`` each wrote their own
``_build``, ``validate``, ``rank`` and ``_remainder_ok``, and the root set
s/d and the difference set s - t came back as lists of at most one
element.  This module keeps those definitions (the two sets as
``root_list`` and ``difference_list``), dispatching on the instance class.
It borrows from the library only the instance classes, their ``extras``
and ``lengths``, and ``divisors``.  The other oracles read ranks, roots
and unit divisors here, not from the instances they check.

``free_walk`` is the free window listing that pushed every admissible
multiplicity of a bead onto its stack before taking the first.
"""

from __future__ import annotations

from sievekit.arith import divisors
from sievekit.semigroup import Chain, PositiveIntegers

_EXTRA_MIN = {"ints": None, "nonneg": 0, "pos": 1}


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


def coords(inst, s) -> tuple:
    return (s,) if isinstance(inst, PositiveIntegers) else tuple(s)


def build(inst, cs):
    """The element with coordinates cs, or None if it is not one."""
    if isinstance(inst, PositiveIntegers):
        return cs[0] if cs[0] >= 1 else None
    if isinstance(inst, Chain):
        if cs[0] < 1:
            return None
        for kind, value in zip(inst.extras, cs[1:]):
            lo = _EXTRA_MIN[kind]
            if lo is not None and value < lo:
                return None
        return tuple(cs)
    if any(c < 0 for c in cs) or sum(cs) < 1:
        return None
    if sum(c * length for c, length in zip(cs, inst.lengths)) < 1:
        return None
    return tuple(cs)


def is_valid(inst, s) -> bool:
    if isinstance(inst, PositiveIntegers):
        return _is_int(s) and s >= 1
    arity = 1 + len(inst.extras) if isinstance(inst, Chain) else len(inst.beads)
    return (
        isinstance(s, tuple)
        and len(s) == arity
        and all(_is_int(c) for c in s)
        and build(inst, s) is not None
    )


def rank(inst, s) -> int:
    if not is_valid(inst, s):
        raise ValueError(f"invalid element {s!r}")
    if isinstance(inst, PositiveIntegers):
        return s
    if isinstance(inst, Chain):
        return s[0]
    return sum(c * length for c, length in zip(s, inst.lengths))


def remainder_ok(inst, remaining) -> bool:
    if isinstance(inst, PositiveIntegers):
        return remaining[0] >= 0
    if isinstance(inst, Chain):
        if remaining[0] < 0:
            return False
        return all(
            kind == "ints" or value >= 0 for kind, value in zip(inst.extras, remaining[1:])
        )
    return all(c >= 0 for c in remaining)


def root_list(inst, s, d: int) -> list:
    """The set s/d = {t | d*t = s}."""
    cs = coords(inst, s)
    if any(c % d for c in cs):
        return []
    t = build(inst, tuple(c // d for c in cs))
    return [] if t is None else [t]


def difference_list(inst, s, t) -> list:
    """The set s - t = {u | u + t = s}."""
    u = build(inst, tuple(a - b for a, b in zip(coords(inst, s), coords(inst, t))))
    return [] if u is None else [u]


def unit_divisors(inst, s) -> list:
    return [(t, d) for d in divisors(rank(inst, s)) for t in root_list(inst, s, d)]


def decompositions(inst, s, support) -> list[tuple]:
    """Every multiset of parts from ``support`` summing to s, by recursion
    over the pool in (rank, coordinates) order."""
    pool = sorted(set(support), key=lambda p: (rank(inst, p), *coords(inst, p)))
    out: list[tuple] = []

    def rec(i: int, remaining: tuple, acc: tuple) -> None:
        for j in range(i, len(pool)):
            nxt = tuple(a - b for a, b in zip(remaining, coords(inst, pool[j])))
            if not remainder_ok(inst, nxt):
                continue
            if any(nxt):
                rec(j, nxt, acc + (pool[j],))
            else:
                out.append(acc + (pool[j],))

    rec(0, coords(inst, s), ())
    return out



def free_walk(inst, max_rank: int, max_total: int | None) -> list:
    """The elements of a free window in (rank, coordinates) order, by a
    depth-first walk whose stack holds every admissible multiplicity of
    each bead it reaches; no cap."""
    lengths = inst.lengths
    budget = max_rank if max_total is None else max_total
    low = [min([0, *lengths[i:]]) for i in range(len(lengths) + 1)]
    high = [max([0, *lengths[i:]]) for i in range(len(lengths) + 1)]
    out = []
    stack = [(0, 0, 0, ())]  # (bead index, rank, beads used, multiplicities)
    while stack:
        i, rank, used, cs = stack.pop()
        if i == len(lengths):
            out.append((rank, cs))
            continue
        length, left = lengths[i], budget - used
        first, last = 0, left
        for d, x in ((length - low[i + 1], max_rank - rank - low[i + 1] * left),
                     (high[i + 1] - length, rank + high[i + 1] * left - 1)):
            if d > 0:
                last = min(last, x // d)
            elif d < 0:
                first = max(first, -(x // -d))
            elif x < 0:
                last = -1
        stack.extend(
            (i + 1, rank + c * length, used + c, cs + (c,))
            for c in range(last, first - 1, -1)
        )
    return [cs for _, cs in sorted(out)]
