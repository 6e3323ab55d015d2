"""Cyclically-acted combinatorial families and their sieving verifiers.

Objects live on the vertex slots of a cycle graph: a length-n encoding,
one symbol per slot, with the cyclic group acting by rotation.  Words and
compositions store a letter per slot.  Festoons store a (type, color,
is-start) triple per slot; beads are the contiguous arcs, a bead of type t
spans rank(t) slots, and slot 0 starts the serialization, so equality of
festoons is equality of encodings.

Verifiers check the fixed-point law (rotation-invariant counts against
root-set totals), the cyclic sieving comparison against a polynomial
family, and the signed variant for odd ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gaussseq import SequenceSpec, a_from_b, a_from_c
from .qgauss import FamilyReport, PolyFamily, _require_role, check_divisors, root_total
from .qpoly import IntPoly, eval_at_primitive_root
from .semigroup import FreeRanked, Window, _SemigroupBase, window_table

OBJECT_KINDS = ("word", "composition", "festoon", "signed-festoon", "tubing")

# csp and bijection jobs predicting more objects than this are refused
MAX_OBJECTS = 400_000


class CyclicObject(tuple):
    """One element of a cyclic family: symbols on the slots of a cycle.

    A ``(kind, slots, sign)`` tuple, so hashing, equality and ordering run
    in C; it compares equal to the plain tuple with the same entries.
    """

    __slots__ = ()

    def __new__(cls, kind: str, slots: tuple, sign: int = 1) -> "CyclicObject":
        if kind not in OBJECT_KINDS:
            raise ValueError(f"CyclicObject: unknown kind {kind!r}")
        if not slots:
            raise ValueError("CyclicObject: empty encoding")
        if sign not in (1, -1):
            raise ValueError(f"CyclicObject: sign must be +-1, got {sign}")
        return tuple.__new__(cls, (kind, slots, sign))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"CyclicObject(kind={self[0]!r}, slots={self[1]!r}, sign={self[2]!r})"

    # Bound in the class body, not inherited, so that a wrapper of the
    # class's own comparison (bench/tracer.py counts calls) finds it.
    __lt__ = tuple.__lt__

    kind = property(itemgetter(0))
    slots = property(itemgetter(1))
    sign = property(itemgetter(2))

    @property
    def n(self) -> int:
        return len(self[1])

    def rotated(self, steps: int) -> "CyclicObject":
        """Rotate the encoding by the given number of slots."""
        kind, slots, sign = self
        j = steps % len(slots)
        if j == 0:
            return self
        return tuple.__new__(CyclicObject, (kind, slots[j:] + slots[:j], sign))


def _canonical(objs: Iterable[CyclicObject]) -> tuple[CyclicObject, ...]:
    return tuple(sorted(dict.fromkeys(objs)))


@dataclass(frozen=True)
class CyclicFamily:
    """Finite object sets indexed by window elements, closed under rotation."""

    instance: _SemigroupBase
    window: Window
    sets: tuple[tuple[object, tuple[CyclicObject, ...]], ...]

    def __post_init__(self) -> None:
        pairs = ((s, _canonical(objs)) for s, objs in self.sets)
        table = window_table(self.instance, pairs, "CyclicFamily")
        object.__setattr__(self, "sets", tuple(table.items()))

    @classmethod
    def from_generator(
        cls,
        instance: _SemigroupBase,
        window: Window,
        fn: Callable[[object], Iterable[CyclicObject]],
    ) -> "CyclicFamily":
        pairs = []
        for s in instance.elements(window):
            objs = list(fn(s))
            n = instance.rank(s)
            for o in objs:
                if o.n != n:
                    raise ValueError(
                        f"generator emitted a length-{o.n} object at rank-{n} {s!r}"
                    )
            members = set(objs)
            if any(o.rotated(1) not in members for o in objs):
                raise ValueError(f"object set at {s!r} is not closed under rotation")
            pairs.append((s, objs))
        return cls(instance, window, tuple(pairs))

    def counts(self) -> dict:
        return {s: len(objs) for s, objs in self.sets}


# -- words and compositions ----------------------------------------------------


def _content_items(alpha) -> list:
    pairs = alpha.items() if isinstance(alpha, Mapping) else alpha
    items = []
    for letter, mult in sorted(pairs):
        if mult < 0:
            raise ValueError(f"negative multiplicity for letter {letter!r}")
        items.extend([letter] * mult)
    if not items:
        raise ValueError("content must have at least one letter")
    return items


def _multiset_permutations(items: Sequence) -> Iterator[tuple]:
    """Every distinct ordering of the items, each once (Knuth's Algorithm L).

    Steps through the next permutations of the sorted list of each item's
    first-occurrence index, so items need only be hashable.  When equal
    items stand together, the orderings come in lexicographic order of
    positions, as ``itertools.permutations`` would first produce them.
    """
    first: dict = {}
    for x in items:
        first.setdefault(x, len(first))
    distinct = list(first)
    a = sorted(first[x] for x in items)
    n = len(a)
    while True:
        yield tuple([distinct[i] for i in a])
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def words_with_content(alpha) -> list[CyclicObject]:
    """All distinct arrangements of the given letter multiset.

    ``alpha`` maps letters to multiplicities; letters must be mutually
    comparable since the major index uses their order.
    """
    items = _content_items(alpha)
    return sorted(CyclicObject("word", w) for w in _multiset_permutations(items))


def maj(w) -> int:
    """Major index: the sum of positions i (1-indexed) with w_i > w_{i+1}.

    Computed on the linear word; the last letter never starts a descent.

    >>> maj("ba")
    1
    >>> maj((2, 1, 2, 1))
    4
    """
    seq = w.slots if isinstance(w, CyclicObject) else tuple(w)
    return sum(i + 1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


def maj_polynomial(objs: Iterable) -> IntPoly:
    """Generating polynomial of the major index over a set of words."""
    counts: dict[int, int] = {}
    for w in objs:
        m = maj(w)
        counts[m] = counts.get(m, 0) + 1
    if not counts:
        return IntPoly()
    top = max(counts)
    return IntPoly([counts.get(e, 0) for e in range(top + 1)])


@dataclass(frozen=True)
class IntegersFrom:
    """The alphabet {lo, lo+1, lo+2, ...}, truncated per composition sum."""

    lo: int


@dataclass(frozen=True)
class IntegersUpTo:
    """The alphabet {..., hi-1, hi}; not admissible for compositions."""

    hi: int


def compositions(n: int, k: int, alphabet) -> list[CyclicObject]:
    """All length-n words of integers from the alphabet summing to k.

    The alphabet is a finite set of integers or IntegersFrom(lo); in the
    latter case only letters up to k - (n-1)*lo can appear, which keeps the
    set finite.  Alphabets unbounded from below are rejected.
    """
    if n < 1:
        raise ValueError(f"compositions: need n >= 1, got {n}")
    if isinstance(alphabet, IntegersUpTo):
        raise ValueError("compositions: alphabet must be bounded from below")
    if isinstance(alphabet, IntegersFrom):
        hi = k - (n - 1) * alphabet.lo
        letters = list(range(alphabet.lo, hi + 1))
    else:
        letters = sorted(set(int(x) for x in alphabet))
    if not letters:
        return []
    lo, hi = letters[0], letters[-1]
    out: list[CyclicObject] = []
    acc: list[int] = []

    def rec(slots_left: int, total_left: int) -> None:
        if slots_left == 0:
            if total_left == 0:
                out.append(CyclicObject("composition", tuple(acc)))
            return
        if total_left < slots_left * lo or total_left > slots_left * hi:
            return
        for x in letters:
            acc.append(x)
            rec(slots_left - 1, total_left - x)
            acc.pop()

    rec(n, k)
    return sorted(out)


# -- festoons --------------------------------------------------------------------


def _placements(beads: Iterable[tuple]) -> list[tuple]:
    """Tile the cycle with (type, color, length) beads whose lengths sum to
    its length n, once with the first bead starting at each slot 0..n-1."""
    line = tuple(
        (btype, color, i == 0)
        for btype, color, length in beads
        for i in range(length)
    )
    n = len(line)
    return [line[n - offset:] + line[:n - offset] for offset in range(n)]


def festoons_by_content(beads, alpha) -> list[CyclicObject]:
    """Festoons using exactly the given multiset of beads.

    ``beads`` is a FreeRanked instance or (label, length) pairs with lengths
    >= 1; ``alpha`` gives multiplicities, as an element tuple or a mapping
    from labels.  Vertex slots are labelled, so rotations of one tiling are
    distinct festoons.
    """
    inst = beads if isinstance(beads, FreeRanked) else FreeRanked(tuple(beads))
    if any(length < 1 for length in inst.lengths):
        raise ValueError("festoons need bead lengths >= 1")
    if isinstance(alpha, Mapping):
        mults = [0] * len(inst.beads)
        for label, mult in alpha.items():
            mults[inst.label_index(label)] = mult
        alpha = tuple(mults)
    inst.validate(alpha)
    items = []
    for (label, length), mult in zip(inst.beads, alpha):
        items.extend([(label, 0, length)] * mult)
    out: dict = {}  # dicts, not sets: the order must not depend on str hashing
    for perm in _multiset_permutations(items):
        for slots in _placements(perm):
            out[CyclicObject("festoon", slots)] = None
    return sorted(out)


def _nonneg_support(seq: SequenceSpec, role: str) -> tuple:
    _require_role(seq, role)
    for t, v in seq.values:
        if v < 0:
            raise ValueError(f"negative weight {v} at {t!r}; use the signed variant")
    return seq.support()


def _colored_festoons(c: SequenceSpec, s, signed: bool) -> list[CyclicObject]:
    inst = c.instance
    if signed:
        support = c.support()
    else:
        support = _nonneg_support(c, "c")
    kind = "signed-festoon" if signed else "festoon"
    out: dict = {}
    for parts in inst.decompositions(s, support=support):
        negatives = sum(1 for t in parts if c.value(t) < 0)
        sign = -1 if signed and negatives % 2 else 1
        for perm in _multiset_permutations(parts):
            lengths = [inst.rank(t) for t in perm]
            color_ranges = [range(1, abs(c.value(t)) + 1) for t in perm]
            for colors in itertools.product(*color_ranges):
                for slots in _placements(zip(perm, colors, lengths)):
                    out[CyclicObject(kind, slots, sign)] = None
    return sorted(out)


def festoons_colored(c: SequenceSpec, s) -> list[CyclicObject]:
    """Festoons of type s with beads of type t in one of c_t colors.

    The festoon's type is the sum of its bead types; the count over a
    window reproduces the divisor-convolution sequence attached to c.
    """
    return _colored_festoons(c, s, signed=False)


def festoons_repeated(b: SequenceSpec, s) -> list[CyclicObject]:
    """Festoons of type s whose beads all share one type and color.

    Pick a unit divisor t of s, one of b_t colors, and one of rank(t)
    rotations; the count over a window is the divisor sum of rank(t) b_t.
    """
    _nonneg_support(b, "b")  # refuses a wrong role or a negative weight
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
                slots = tuple(
                    (t, color, (i - r) % rt == 0) for i in range(n)
                )
                out.append(CyclicObject("festoon", slots))
    return sorted(out)


def signed_festoons(c: SequenceSpec, s) -> tuple[list[CyclicObject], list[CyclicObject]]:
    """Festoons colored by |c|, split by the sign of the bead-weight product.

    A festoon is negative exactly when it has an odd number of beads whose
    type carries a negative weight.
    """
    objs = _colored_festoons(c, s, signed=True)
    return [o for o in objs if o.sign > 0], [o for o in objs if o.sign < 0]


def barrier_festoons(n: int, allow_bare: bool = False) -> list[CyclicObject]:
    """One-color festoons of length n with barriers drawn between beads.

    Travelling clockwise, the bead length may strictly increase only where
    a barrier stands; barriers are optional elsewhere.  By default at least
    one barrier is required; allow_bare admits the barrier-free drawings,
    which forces all bead lengths equal.  The sign is the parity of the
    barrier count.
    """
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


def _length_tilings(n: int) -> list[tuple]:
    """Distinct tilings of the n-cycle by arcs, slots as (length, 0, start)."""
    tilings = set()
    acc: list[int] = []

    def rec(left: int):
        if left == 0:
            tilings.update(_placements((length, 0, length) for length in acc))
            return
        for x in range(1, left + 1):
            acc.append(x)
            rec(left - x)
            acc.pop()

    rec(n)
    return sorted(tilings)


# -- sizes before enumeration -----------------------------------------------------


def content_count(beads: FreeRanked, alpha) -> int:
    """How many festoons have content alpha (words, when all beads have
    length 1): the multinomial of alpha times rank(alpha) / |alpha|."""
    count, total = 1, 0
    for m in alpha:
        total += m
        count *= comb(total, m)
    return count * beads.rank(alpha) // total


def predicted_count(family: str, source, window: Window | None = None) -> int:
    """Objects a csp family holds over its window, from its counting row
    at q = 1, without enumerating them.

    ``source`` is the FreeRanked beads for "words" and "festoons-content"
    (``window`` is then required), the role-b spec for "festoons-repeated",
    and the role-c spec for "festoons-colored" and "signed-festoons", which
    are colored by |c|.  Raises ValueError on what the enumerators refuse:
    beads shorter than 1 and negative weights outside the signed family.
    """
    if family in ("words", "festoons-content"):
        if any(length < 1 for length in source.lengths):
            raise ValueError("festoons need bead lengths >= 1")
        return sum(content_count(source, alpha) for alpha in source.elements(window))
    if family == "festoons-repeated":
        _nonneg_support(source, "b")
        return sum(a_from_b(source).row())
    if family == "festoons-colored":
        _nonneg_support(source, "c")
    elif family == "signed-festoons":
        _require_role(source, "c")
        weights = tuple((t, abs(v)) for t, v in source.values)
        source = SequenceSpec(source.instance, source.window, "c", weights)
    else:
        raise ValueError(f"unknown family {family!r}")
    return sum(a_from_c(source).row())


# -- actions and verifiers --------------------------------------------------------


def fixed_points(objs: Sequence[CyclicObject], d: int) -> list[CyclicObject]:
    """Objects invariant under the order-d rotation subgroup."""
    objs = list(objs)
    if not objs:
        return []
    n = objs[0].n
    if d < 1 or n % d:
        raise ValueError(f"fixed_points: {d} does not divide the length {n}")
    step = n // d
    return [o for o in objs if o.slots[step:] == o.slots[:-step]]


def orbit_census(objs: Sequence[CyclicObject]) -> dict[int, int]:
    """Map orbit size to the number of rotation orbits of that size."""
    remaining = set(objs)
    census: dict[int, int] = {}
    while remaining:
        o = next(iter(remaining))
        orbit = {o.rotated(j) for j in range(o.n)}
        census[len(orbit)] = census.get(len(orbit), 0) + 1
        remaining -= orbit
    return dict(sorted(census.items()))


def verify_lyndon(family: CyclicFamily) -> FamilyReport:
    """Check the fixed-point law: C_d-invariants match root-set totals."""
    inst = family.instance
    lookup = dict(family.sets)

    def compare(s, objs, d):
        got = len(fixed_points(objs, d))
        expected = root_total(inst, lookup, s, d, len)
        if got != expected:
            return f"fixed {got} != {expected}"

    return check_divisors(inst, family.sets, compare)


def _require_match(family: CyclicFamily, F: PolyFamily, who: str) -> None:
    if family.instance != F.instance or family.window != F.window:
        raise ValueError(f"{who} needs matching instance and window")


def verify_csp(family: CyclicFamily, F: PolyFamily) -> FamilyReport:
    """Check cyclic sieving: root-of-unity values count C_d-invariants."""
    _require_match(family, F, "verify_csp")

    def compare(s, entry, d):
        poly, objs = entry
        got = eval_at_primitive_root(poly, d)
        expected = len(fixed_points(objs, d))
        if got != expected:
            return f"value {got.coeffs} != fixed count {expected}"

    items = ((s, (F.value(s), objs)) for s, objs in family.sets)
    return check_divisors(family.instance, items, compare)


def verify_signed_csp(family: CyclicFamily, F: PolyFamily) -> FamilyReport:
    """Signed sieving check at odd ranks: values match signed fixed counts."""
    _require_match(family, F, "verify_signed_csp")
    inst = family.instance

    def compare(s, entry, d):
        poly, pos, neg = entry
        got = eval_at_primitive_root(poly, d)
        expected = len(fixed_points(pos, d)) - len(fixed_points(neg, d))
        if got != expected:
            return f"value {got.coeffs} != signed fixed count {expected}"

    def items():
        for s, objs in family.sets:
            if inst.rank(s) % 2:
                pos = [o for o in objs if o.sign > 0]
                neg = [o for o in objs if o.sign < 0]
                yield s, (F.value(s), pos, neg)

    return check_divisors(inst, items(), compare)
