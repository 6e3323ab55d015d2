"""Cyclically-acted combinatorial families and their census.

Objects live on the vertex slots of a cycle graph: a length-n encoding,
one symbol per slot, with the cyclic group acting by rotation.  Words
store a letter per slot.  Festoons store a (type, color,
is-start) triple per slot; beads are the contiguous arcs, a bead of type t
spans rank(t) slots, and slot 0 starts the serialization, so equality of
festoons is equality of encodings.

Every word and festoon family is a stream of bead contents: at each
element s, ``_contents`` yields the multisets of (type, color, length)
beads its objects are made of, each with a sign.  Sawada's walk
(``necklaces``) lists the necklaces of one content.  The census counts
them, one rotation orbit each; the listers expand each into the
rotations of its tiling, so counting and listing read the same contents.

The sieve checks live in ``qgauss`` and read a ``qgauss.Census``, never
an object.  ``CyclicFamily.census`` takes its numbers from the stored
sets with ``fixed_points``; ``festoon_census`` counts them from the
necklaces without building the objects.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from math import comb
from operator import itemgetter

from .arith import divisors
from .gaussseq import SequenceSpec, _require_role, a_from_b, a_from_c
# the three checks are named here only for bench/tracer.py, which wraps
# them in this module; they leave with ROADMAP item 1a
from .qgauss import Census, verify_csp, verify_lyndon, verify_signed_csp
from .semigroup import CheckedTable, FreeRanked, Record, Window, _SemigroupBase, window_table

OBJECT_KINDS = ("word", "festoon", "signed-festoon", "tubing")


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


class CyclicFamily(Record):
    """Finite object sets indexed by window elements, closed under rotation."""

    instance: _SemigroupBase
    window: Window
    sets: tuple[tuple[object, tuple[CyclicObject, ...]], ...]

    def __post_init__(self) -> None:
        table = window_table(self.instance, self.sets, "CyclicFamily")
        object.__setattr__(self, "sets", tuple((s, _canonical(o)) for s, o in table.items()))

    @classmethod
    def from_generator(
        cls,
        instance: _SemigroupBase,
        window: Window,
        fn: Callable[[object], Iterable[CyclicObject]],
    ) -> "CyclicFamily":
        pairs = CheckedTable()
        for s in instance.elements(window):
            objs = list(fn(s))
            n = instance._rank(s)
            for o in objs:
                if o.n != n:
                    raise ValueError(
                        f"generator emitted a length-{o.n} object at rank-{n} {s!r}"
                    )
            members = set(objs)
            if any(o.rotated(1) not in members for o in objs):
                raise ValueError(f"object set at {s!r} is not closed under rotation")
            pairs[s] = objs
        return cls(instance, window, pairs)

    def census(self) -> "Census":
        """The numbers the verifiers read, taken from the stored sets."""
        rows = []
        for s, objs in self.sets:
            negative = [o for o in objs if o.sign < 0]
            fixed = {}
            for d in divisors(self.instance._rank(s)):
                neg = len(fixed_points(negative, d))
                fixed[d] = (len(fixed_points(objs, d)) - neg, neg)
            rows.append((s, len(objs), fixed))
        return Census(self.instance, self.window, tuple(rows))


# -- words -----------------------------------------------------------------------


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


def words_with_content(alpha) -> list[CyclicObject]:
    """All distinct arrangements of the given letter multiset.

    ``alpha`` maps letters to multiplicities; letters must be mutually
    comparable, since the words are listed in sorted order.  A word is a
    festoon of length-1 beads, one bead type per letter.
    """
    letters = Counter(_content_items(alpha))
    # bead labels are strings: bead "i" stands for the i-th letter
    beads = FreeRanked(tuple((str(i), 1) for i in range(len(letters))))
    contents = _contents("words", beads)(tuple(letters.values()))
    symbols = list(letters)
    return sorted(
        CyclicObject("word", tuple(symbols[int(t)] for t, _, _ in slots))
        for slots, _ in _festoons(contents)
    )


# -- festoons --------------------------------------------------------------------


def festoons_by_content(beads, alpha) -> list[CyclicObject]:
    """Festoons using exactly the given multiset of beads.

    ``beads`` is a FreeRanked instance or (label, length) pairs with lengths
    >= 1; ``alpha`` gives multiplicities, as an element tuple or a mapping
    from labels.  Vertex slots are labelled, so rotations of one tiling are
    distinct festoons.
    """
    inst = beads if isinstance(beads, FreeRanked) else FreeRanked(tuple(beads))
    contents = _contents("festoons-content", inst)
    if isinstance(alpha, Mapping):
        mults = [0] * len(inst.beads)
        for label, mult in alpha.items():
            mults[inst.label_index(label)] = mult
        alpha = tuple(mults)
    inst.validate(alpha)
    return _listed("festoon", contents(alpha))


def _nonneg_support(seq: SequenceSpec, role: str) -> tuple:
    _require_role(seq, role)
    for t, v in seq.values:
        if v < 0:
            raise ValueError(f"negative weight {v} at {t!r}; use the signed variant")
    return seq.support()


def festoons_colored(c: SequenceSpec, s) -> list[CyclicObject]:
    """Festoons of type s with beads of type t in one of c_t colors.

    The festoon's type is the sum of its bead types; the count over a
    window reproduces the divisor-convolution sequence attached to c.
    """
    contents = _contents("festoons-colored", c)
    c.instance.validate(s)
    return _listed("festoon", contents(s))


def festoons_repeated(b: SequenceSpec, s) -> list[CyclicObject]:
    """Festoons of type s whose beads all share one type and color.

    Pick a unit divisor t of s, one of b_t colors, and one of rank(t)
    rotations; the count over a window is the divisor sum of rank(t) b_t.
    """
    contents = _contents("festoons-repeated", b)
    b.instance.validate(s)
    return _listed("festoon", contents(s))


def signed_festoons(c: SequenceSpec, s) -> tuple[list[CyclicObject], list[CyclicObject]]:
    """Festoons colored by |c|, split by the sign of the bead-weight product.

    A festoon is negative exactly when it has an odd number of beads whose
    type carries a negative weight.
    """
    contents = _contents("signed-festoons", c)
    c.instance.validate(s)
    objs = _listed("signed-festoon", contents(s))
    return [o for o in objs if o.sign > 0], [o for o in objs if o.sign < 0]


# -- sizes before enumeration -----------------------------------------------------


def content_count(beads: FreeRanked, alpha) -> int:
    """How many festoons have content alpha (words, when all beads have
    length 1): the multinomial of alpha times rank(alpha) / |alpha|."""
    count, total = 1, 0
    for m in alpha:
        total += m
        count *= comb(total, m)
    return count * beads._rank(alpha) // total


def predicted_count(family: str, source, window: Window | None = None) -> int:
    """Objects a csp family holds over its window, from its counting row
    at q = 1, without enumerating them.

    ``source`` is the FreeRanked beads for "words" and "festoons-content"
    (``window`` is then required), the role-b spec
    for "festoons-repeated", and the role-c spec for "festoons-colored"
    and "signed-festoons", which are colored by |c|.  Raises ValueError on what the enumerators refuse:
    beads shorter than 1, words over beads longer than 1, and negative
    weights outside the signed family.
    """
    _contents(family, source)  # refuses what the family refuses
    if family in ("words", "festoons-content"):
        return sum(content_count(source, alpha) for alpha in source.elements(window))
    if family == "festoons-repeated":
        return sum(a_from_b(source).row())
    weights = CheckedTable((t, abs(v)) for t, v in source.values)
    return sum(a_from_c(SequenceSpec(source.instance, source.window, "c", weights)).row())


# -- bead contents and necklaces --------------------------------------------------


def _contents(family: str, source) -> Callable[[object], Iterable[tuple[list, int]]]:
    """What a csp family holds at each element, as a function of the element.

    At s it yields ``(beads, sign)`` pairs, ``beads`` listing
    ((type, color, length), multiplicity) with multiplicities >= 1: each
    pair stands for the festoons made of exactly those beads, with that
    sign.  ``source`` is as for ``predicted_count``.  Words and festoons by
    content hold their content, in color 0.  Festoons-repeated holds d
    equal beads of type t in each color 1..b_t, per unit divisor (t, d) of
    s.  The colored and signed families hold one content per decomposition
    of s and coloring of its type-t beads from colors 1..|c_t|, signed by
    the decomposition's weight product.  Raises ValueError on what the
    family refuses before reading any element.  ``contents(s)`` reads s
    unchecked: s is a window element, or validated by the caller.
    """
    if family in ("words", "festoons-content"):
        if any(length < 1 for length in source.lengths):
            raise ValueError("festoons need bead lengths >= 1")
        if family == "words" and any(length != 1 for length in source.lengths):
            raise ValueError("words need every bead length equal to 1")

        def contents(alpha):
            beads = [((label, 0, length), m)
                     for (label, length), m in zip(source.beads, alpha) if m]
            return [(beads, 1)]

        return contents
    if family not in ("festoons-repeated", "festoons-colored", "signed-festoons"):
        raise ValueError(f"unknown family {family!r}")
    inst, value = source.instance, source.value
    if family == "festoons-repeated":
        _nonneg_support(source, "b")
        return lambda s: [
            ([((t, color, inst._rank(t)), d)], 1)
            for d, t in inst._divisor_roots(s) if t is not None
            for color in range(1, value(t) + 1)
        ]
    signed = family == "signed-festoons"
    if signed:
        _require_role(source, "c")
        support = source.support()
    else:
        support = _nonneg_support(source, "c")

    def colorings(t, m: int) -> list[list]:
        """The ways to color m beads of type t, each as its bead list."""
        rank, colors = inst._rank(t), range(1, abs(value(t)) + 1)
        return [
            [((t, color, rank), k) for color, k in Counter(pick).items()]
            for pick in itertools.combinations_with_replacement(colors, m)
        ]

    def contents(s):
        for parts in inst.decompositions(s, support=support):
            sign = -1 if signed and sum(value(t) < 0 for t in parts) % 2 else 1
            choices = [colorings(t, m) for t, m in Counter(parts).items()]
            for pick in itertools.product(*choices):
                yield [bead for beads in pick for bead in beads], sign

    return contents


def necklaces(counts: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each necklace with ``counts[i]`` beads of symbol i, once, as its
    smallest rotation and its period.

    Sawada's fixed-content scheme (TCS 301, 2003) grows the smallest
    rotation left to right: position t takes no symbol below the one p
    places back, p being the longest Lyndon prefix so far, and a full
    sequence of k beads is a necklace of period p when p | k.

    >>> list(necklaces([2, 0, 2]))
    [((0, 0, 2, 2), 4), ((0, 2, 0, 2), 2)]
    """
    left = list(counts)
    k = sum(left)
    if not k:
        return
    j = next(i for i, c in enumerate(left) if c)  # the smallest symbol starts
    left[j] -= 1
    seq = [j] * k
    lyn = [1] * (k + 1)  # lyn[t]: the longest Lyndon prefix of seq[:t]
    t = 1  # the position to fill; j is the first symbol to try there
    while t:
        while t < k and j < len(left) and not left[j]:
            j += 1
        if t < k and j < len(left):
            seq[t] = j
            left[j] -= 1
            lyn[t + 1] = lyn[t] if j == seq[t - lyn[t]] else t + 1
            t += 1
            j = seq[t - lyn[t]]
        else:
            if t == k and k % lyn[k] == 0:
                yield tuple(seq), lyn[k]
            t -= 1
            left[seq[t]] += 1
            j = seq[t] + 1


def _festoons(contents: Iterable[tuple[list, int]]) -> Iterator[tuple[tuple, int]]:
    """(slots, sign) of every festoon of the given contents, each once: a
    necklace of k beads and period p tiles n slots, and its orbit is the
    n*p/k rotations of that tiling."""
    for beads, sign in contents:
        tiles = [((t, color, True),) + ((t, color, False),) * (length - 1)
                 for (t, color, length), _ in beads]
        for necklace, p in necklaces([m for _, m in beads]):
            line = tuple(itertools.chain.from_iterable(tiles[i] for i in necklace))
            for r in range(len(line) * p // len(necklace)):
                yield line[r:] + line[:r], sign


def _listed(kind: str, contents: Iterable[tuple[list, int]]) -> list[CyclicObject]:
    return sorted(CyclicObject(kind, slots, sign) for slots, sign in _festoons(contents))


def _necklace_census(inst: _SemigroupBase, window: Window, contents: Callable) -> Census:
    """The census of the festoons of ``contents(s)`` at each element s of
    the window, in window order.  A necklace of k beads and period p is one
    orbit of n*p/k festoons on n slots, all fixed by the order-d rotation
    when n*p/k divides n/d, else none.  Periods depend only on the sorted
    multiplicities, so each sorted content is walked once."""
    periods: dict = {}
    rows = []
    for s in inst.elements(window):
        n = inst._rank(s)
        fixed = {d: [0, 0] for d in divisors(n)}
        count = 0
        for beads, sign in contents(s):
            key = tuple(sorted(m for _, m in beads))
            if key not in periods:
                periods[key] = Counter(p for _, p in necklaces(key)).items()
            for p, orbits in periods[key]:
                size = n * p // sum(key)
                count += orbits * size
                for d, split in fixed.items():
                    if n // d % size == 0:
                        split[sign < 0] += orbits * size
        rows.append((s, count, {d: tuple(split) for d, split in fixed.items()}))
    return Census(inst, window, tuple(rows))


def festoon_census(family: str, source, window: Window | None = None) -> Census:
    """The census of a csp family, counted from the necklaces of its bead
    contents (``_contents``).  ``source`` and ``window`` are as for
    ``predicted_count``."""
    contents = _contents(family, source)
    if isinstance(source, SequenceSpec):  # a sequence family spans its spec's window
        source, window = source.instance, source.window
    return _necklace_census(source, window, contents)


# -- the rotation action ----------------------------------------------------------


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
