"""Concrete ranked commutative semigroups and their division structure.

Three instance kinds cover everything downstream:

- ``PositiveIntegers``: positive integers under addition, rank(n) = n.
- ``Chain``: a base instance extended by one extra integer coordinate; the
  rank is the base rank and ignores the extras.  Chains of chains flatten,
  so elements are plain tuples (rank, x1, ..., xm).
- ``FreeRanked``: the free commutative semigroup on a finite set of beads
  with declared integer lengths; an element is a tuple of multiplicities,
  its rank the length-weighted sum, which must be >= 1.

Each is data: a lower bound per coordinate (``floors``) and the rank as a
linear ``row`` of the coordinates, checked in ``_SemigroupBase`` alone.
Elements are raw payloads (int or tuple), not wrapper objects; instances are
frozen ``Record`` values and all operations are pure.  Division is by repetition:
t divides s when s = d*t for a positive integer d, so d | rank(s).  All
instances are cancellative and torsion free, so the root s/d (``nth_root``)
and the difference s - t (``_subtract``) are each one element or None.
Maps between instances, integer matrices on the coordinates, live in
``transport``.

Infinite instances are always consumed through a finite ``Window`` (rank cap,
per-extra coordinate bounds, bead-count cap), which makes every enumeration
terminating and deterministic.  A window keeps each instance's listing.
``admit``, the one size check, refuses a window, or a job's objects, past
``MAX_OBJECTS`` before any is listed or built.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from math import gcd, prod
from operator import mul, sub

from .arith import divisors

EXTRA_KINDS = ("ints", "nonneg", "pos")

_EXTRA_MIN = {"ints": None, "nonneg": 0, "pos": 1}

# the most elements a window may hold, and the most objects a csp or
# bijection job may predict, before ``admit`` refuses it
MAX_OBJECTS = 400_000


def admit(count: int, what: str) -> None:
    """Refuse a job whose ``count`` of ``what`` (window elements, objects,
    round trips), known before any is built, passes MAX_OBJECTS."""
    if count > MAX_OBJECTS:
        raise ValueError(f"{count} {what}, above the cap of {MAX_OBJECTS}")


def strict_int(value, what: str) -> int:
    """The value itself if it is a true int; floats, strings and bools raise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def require_keys(cfg, allowed: set[str], required: set[str], where: str) -> None:
    """Refuse a config that is not an object, has a key outside ``allowed``
    or lacks one of ``required``."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where}: expected an object, got {cfg!r}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


class Record:
    """A frozen value.  A subclass's fields are its own annotations whose
    names do not start with an underscore; ``__init__`` takes them in order,
    then calls ``__post_init__``, which sets normalised or derived attributes
    with ``object.__setattr__``.  Equality and the hash read the fields' tuple
    as ``__post_init__`` leaves them."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__dict__.get("__annotations__", {}) if n[0] != "_")

    def __init__(self, *args) -> None:
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self._fields)} "
                            f"arguments ({len(args)} given)")
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()
        self.__dict__["_values"] = tuple([getattr(self, name) for name in self._fields])

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class Window(Record):
    """Finite viewport on a semigroup instance.

    ``extra_bounds`` holds one (lo, hi) pair per chain extra; a single pair
    broadcasts to all extras.  ``max_total`` caps the bead count |alpha| on
    FreeRanked instances (required whenever some bead length is <= 0).
    ``_listed`` keeps each instance's listing for ``elements``.
    """

    max_rank: int
    extra_bounds: tuple[tuple[int, int], ...]
    max_total: int | None

    def __init__(self, max_rank, extra_bounds=(), max_total=None) -> None:
        super().__init__(max_rank, extra_bounds, max_total)

    def __post_init__(self) -> None:
        if strict_int(self.max_rank, "Window: max_rank") < 1:
            raise ValueError(f"Window: need max_rank >= 1, got {self.max_rank}")
        eb = self.extra_bounds
        if isinstance(eb, (list, tuple)) and len(eb) == 2 and all(isinstance(b, int) for b in eb):
            eb = (eb,)  # a bare (lo, hi) pair means "every extra"
        if not isinstance(eb, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in eb
        ):
            raise ValueError(f"Window: extra_bounds must be (lo, hi) pairs, got {eb!r}")
        for lo, hi in eb:
            if strict_int(lo, "Window: bound") > strict_int(hi, "Window: bound"):
                raise ValueError(f"Window: empty bound range ({lo}, {hi})")
        object.__setattr__(self, "extra_bounds", tuple(tuple(pair) for pair in eb))
        if self.max_total is not None and strict_int(self.max_total, "Window: max_total") < 1:
            raise ValueError(f"Window: need max_total >= 1, got {self.max_total}")
        object.__setattr__(self, "_listed", {})


class CheckedTable(dict):
    """An (element, value) table whose elements are valid and in canonical
    order: built over a window listing, or from elements validated where
    they entered.  ``window_table`` takes it as it is."""


def window_table(instance: _SemigroupBase, pairs: Iterable, owner: str) -> dict:
    """(element, value) pairs as a dict in canonical element order.

    Each element is validated once (by ``sort_key``), and a repeated
    element is refused; a ``CheckedTable`` is returned unchecked.
    """
    if isinstance(pairs, CheckedTable):
        return pairs
    keyed: dict = {}
    for s, v in pairs:
        key = instance.sort_key(s)
        if s in keyed:
            raise ValueError(f"{owner}: duplicate element {s!r}")
        keyed[s] = (key, v)
    return {s: v for s, (_, v) in sorted(keyed.items(), key=lambda kv: kv[1][0])}


class FamilyCheckFailure(Record):
    element: object
    divisor: int | None
    detail: str


class FamilyReport(Record):
    """Outcome of a checker: how many checks ran, and each failure with its
    element, the divisor it concerns (None when none does) and a detail."""

    ok: bool
    checked: int
    failures: tuple[FamilyCheckFailure, ...]

    @classmethod
    def collect(cls, checks: Iterable[tuple]) -> "FamilyReport":
        """The report of (element, divisor, detail) triples, one per check;
        the detail is None when the check holds."""
        failures = []
        checked = 0
        for s, d, detail in checks:
            checked += 1
            if detail is not None:
                failures.append(FamilyCheckFailure(s, d, detail))
        return cls(not failures, checked, tuple(failures))

    def to_jsonable(self, instance: _SemigroupBase) -> dict:
        failures = [
            {"element": encode_element(instance, f.element), "divisor": f.divisor,
             "detail": f.detail}
            for f in self.failures
        ]
        return {"ok": self.ok, "checked": self.checked, "failures": failures}


def check_divisors(inst: _SemigroupBase, items: Iterable, compare: Callable) -> FamilyReport:
    """The divisor-indexed report: for each (s, x) in items, s a validated
    element, with roots = ``inst._divisor_roots(s)``, compare(s, x, roots)
    yields one result per pair (d, t) of roots, in order: None when the
    check at d holds and a failure detail otherwise."""
    def checks():
        for s, x in items:
            roots = inst._divisor_roots(s)
            for (d, _), detail in zip(roots, compare(s, x, roots), strict=True):
                yield s, d, detail

    return FamilyReport.collect(checks())


class _SemigroupBase:
    """A set of integer coordinate tuples under coordinatewise addition:
    coordinate i is at least ``floors[i]`` (None: unbounded) and the rank,
    the dot product with ``row``, is at least 1.

    An element is validated once, where it enters: a public method of one
    element validates it, then makes the one unchecked read (``_rank``,
    ``_sort_key``, ``_divisor_roots``) that kernels walking elements
    validated before (a window listing's, a table's, a decoded config's)
    make directly, as they make ``_subtract``, which has no checked twin.
    """

    floors: tuple[int | None, ...]
    row: tuple[int, ...]
    _reads: tuple[str, ...] = ()  # the window bounds read besides max_rank

    def coords(self, s) -> tuple[int, ...]:
        return tuple(s)

    def _build(self, cs: tuple[int, ...]):
        """Pack a coordinate tuple into an element, or None if invalid."""
        if any(lo is not None and c < lo for c, lo in zip(cs, self.floors)):
            return None
        return tuple(cs) if sum(map(mul, cs, self.row)) >= 1 else None

    def validate(self, s) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) != len(self.row)
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in s)
            or self._build(s) is None
        ):
            raise ValueError(f"{self.describe()}: invalid element {s!r}")

    def _rank(self, s) -> int:
        return sum(map(mul, s, self.row))

    def rank(self, s) -> int:
        self.validate(s)
        return self._rank(s)

    def _remainder_ok(self, remaining: tuple[int, ...]) -> bool:
        """Whether a remainder may still be a sum of parts."""
        return all(c >= 0 for c, lo in zip(remaining, self.floors) if lo is not None)

    def _sort_key(self, s) -> tuple[int, ...]:
        return (self._rank(s), *self.coords(s))

    def sort_key(self, s) -> tuple[int, ...]:
        """Canonical order: by rank, then coordinates."""
        self.validate(s)
        return self._sort_key(s)

    def nth_root(self, s, d: int):
        """The unique t with d*t = s, or None."""
        self.validate(s)
        if d < 1:
            raise ValueError(f"nth_root: need d >= 1, got {d}")
        cs = self.coords(s)
        if any(c % d for c in cs):
            return None
        return self._build(tuple(c // d for c in cs))

    @functools.cached_property
    def _roots(self) -> dict:  # divisor_roots of each element asked for
        return {}

    def _divisor_roots(self, s) -> tuple[tuple[int, object], ...]:
        if s not in (known := self._roots):
            cs = self.coords(s)
            g = gcd(*cs)
            known[s] = ((1, s), *(
                (d, None if g % d else self._build(tuple(c // d for c in cs)))
                for d in divisors(self._rank(s))[1:]
            ))
        return known[s]

    def divisor_roots(self, s) -> tuple[tuple[int, object], ...]:
        """(d, the root t with d*t = s, or None) for every d dividing rank(s),
        ascending in d, built once per element from its coordinates (d divides
        them all when it divides their gcd) and kept in ``_roots``.  s is
        validated before the lookup, as True hashes like 1."""
        self.validate(s)
        return self._divisor_roots(s)

    def unit_divisors(self, s) -> list[tuple[object, int]]:
        """All pairs (t, d) with d*t = s, ascending in d; (s, 1) included."""
        return [(t, d) for d, t in self.divisor_roots(s) if t is not None]

    def _subtract(self, s, t):  # the unique u with u + t = s, or None
        return self._build(tuple(map(sub, self.coords(s), self.coords(t))))

    def decompositions(self, s, support: Sequence) -> list[tuple]:
        """Every multiset {s_1, ..., s_k} (k >= 1) of parts from ``support``
        summing to s.

        A search kernel: s and the parts are read unchecked, so they must
        be elements of this instance (the sieving census passes window
        elements and a sequence's support).  Each multiset is a tuple sorted
        in canonical element order, and the list comes out sorted by the
        parts' sort keys: the pool is in canonical order, the search takes
        parts with nondecreasing pool index, and no multiset is a prefix of
        another.  The depth-first search keeps its own stack, so a
        decomposition may have more parts than the interpreter's recursion
        limit.
        """
        pool = sorted(set(support), key=self._sort_key)
        pool_coords = [self.coords(p) for p in pool]
        target = self.coords(s)
        prune = self._remainder_ok

        def branches(i: int, remaining: tuple[int, ...]):
            for j in range(i, len(pool)):
                nxt = tuple(a - b for a, b in zip(remaining, pool_coords[j]))
                if prune(nxt):
                    yield j, nxt

        out: list[tuple] = []
        acc: list = []  # the part taken into each open branch below the top
        stack = [branches(0, target)]  # s is never the identity
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if stack:
                    acc.pop()
                continue
            j, nxt = step
            acc.append(pool[j])
            if any(nxt):
                stack.append(branches(j, nxt))
            else:
                out.append(tuple(acc))
                acc.pop()
        return out

    def elements(self, window: Window) -> list:
        """Window contents in canonical (rank, coordinates) order, as a new
        list.  The window keeps the listing (``_list``) of each instance,
        so a job lists it once; one that ``admit`` refuses is not kept."""
        listed = window._listed
        if self not in listed:
            listed[self] = self._list(window)
        return list(listed[self])

    def _list(self, window: Window) -> list:
        raise NotImplementedError

    def check_window(self, window: Window) -> None:
        """Refuse a window that sets a bound this instance does not read,
        that this instance cannot enumerate, or that misses a root t
        (d*t = s) of one of its elements s, which the divisor-sum checks
        read."""
        for key in ("extra_bounds", "max_total"):
            if key not in self._reads and getattr(window, key) not in ((), None):
                raise ValueError(f"window sets {key}, which {type(self).__name__} does not read")


class PositiveIntegers(_SemigroupBase, Record):
    """Positive integers under addition; rank(n) = n.  Elements are bare
    ints, with element checks of their own for speed."""

    floors = (1,)
    row = (1,)

    def coords(self, s) -> tuple[int, ...]:
        return (s,)

    def _build(self, cs):
        return cs[0] if cs[0] >= 1 else None

    def validate(self, s) -> None:
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise ValueError(f"PositiveIntegers: invalid element {s!r}")

    def _rank(self, s) -> int:
        return s

    def _remainder_ok(self, remaining) -> bool:
        return remaining[0] >= 0

    def _list(self, window: Window) -> list:
        admit(window.max_rank, "window elements")
        return list(range(1, window.max_rank + 1))


class Chain(_SemigroupBase, Record):
    """A base instance with one more integer coordinate; rank from the base.

    Elements are flat tuples: chaining ((n,) base, extra) twice gives
    (n, x, y).  The extra kind is one of "ints" (unbounded), "nonneg" and
    "pos" (floors 0 and 1); its entry in the rank row is 0.
    """

    base: _SemigroupBase
    extra: str
    _reads = ("extra_bounds",)

    def __post_init__(self) -> None:
        if self.extra not in EXTRA_KINDS:
            raise ValueError(f"Chain: unknown extra kind {self.extra!r}")
        if not isinstance(self.base, (PositiveIntegers, Chain)):
            raise ValueError("Chain: base must be PositiveIntegers or Chain")
        object.__setattr__(self, "floors", self.base.floors + (_EXTRA_MIN[self.extra],))
        object.__setattr__(self, "row", self.base.row + (0,))

    @property
    def extras(self) -> tuple[str, ...]:
        base_extras = self.base.extras if isinstance(self.base, Chain) else ()
        return base_extras + (self.extra,)

    def describe(self) -> str:
        return "Chain[" + ",".join(self.extras) + "]"

    def resolve_bounds(self, window: Window) -> tuple[tuple[int, int], ...]:
        """Per-extra (lo, hi) enumeration bounds implied by the window."""
        floors = self.floors[1:]
        eb = window.extra_bounds
        if not eb:
            if None in floors:
                raise ValueError("window needs explicit extra_bounds for an ints extra")
            return tuple((floor, window.max_rank) for floor in floors)
        if len(eb) == 1:
            eb = eb * len(floors)
        if len(eb) != len(floors):
            raise ValueError(f"window has {len(eb)} extra bounds for {len(floors)} extras")
        return tuple(
            (lo if floor is None else max(lo, floor), hi)
            for floor, (lo, hi) in zip(floors, eb)
        )

    def check_window(self, window: Window) -> None:
        super().check_window(window)
        bounds = self.resolve_bounds(window)
        for d in range(2, window.max_rank + 1):
            # the roots x/d of the multiples x of d within each extra's bounds;
            # an element of rank d has a root by d when every extra has one
            roots = [range(-(-lo // d), hi // d + 1) for lo, hi in bounds]
            if all(roots) and any(
                r[0] < lo or r[-1] > hi for r, (lo, hi) in zip(roots, bounds)
            ):
                raise ValueError(f"window misses the root by {d} of an element of rank {d}")

    def check_differences(self, window: Window) -> None:
        """Refuse a window that misses a difference s - t of two of its
        elements, which ``c_from_a`` reads.  Over an extra's bounds (lo, hi)
        and floor f the defined differences span max(lo - hi, f)..hi - lo;
        some difference exists when every span is nonempty and max_rank >= 2."""
        bounds = self.resolve_bounds(window)
        spans = [(lo - hi if f is None else max(lo - hi, f), hi - lo)
                 for f, (lo, hi) in zip(self.floors[1:], bounds)]
        if window.max_rank >= 2 and all(a <= b for a, b in spans) and any(
            a < lo or b > hi for (a, b), (lo, hi) in zip(spans, bounds)
        ):
            raise ValueError("window misses a difference s - t of two of its elements, "
                             "which c_from_a reads; widen the role-a spec")

    def _list(self, window: Window) -> list:
        """The product of the rank range and the extras' ranges: it comes
        out in lexicographic order, which is (rank, coordinates) order
        since the rank is the first coordinate."""
        bounds = self.resolve_bounds(window)
        admit(window.max_rank * prod(max(0, hi - lo + 1) for lo, hi in bounds),
              "window elements")
        ranges = [range(1, window.max_rank + 1)]
        ranges.extend(range(lo, hi + 1) for lo, hi in bounds)
        return list(itertools.product(*ranges))


class FreeRanked(_SemigroupBase, Record):
    """Free commutative semigroup on labelled beads with integer lengths.

    An element is a tuple of bead multiplicities (aligned with ``beads``,
    floors 0); its rank is the length-weighted sum (``row`` is the bead
    lengths) and must be >= 1 even though individual bead lengths may be
    zero or negative, so an element has at least one bead.
    """

    beads: tuple[tuple[str, int], ...]
    _reads = ("max_total",)

    def __post_init__(self) -> None:
        beads = tuple(
            (label, strict_int(length, "FreeRanked: bead length"))
            for label, length in self.beads
        )
        labels = [label for label, _ in beads]
        if not all(isinstance(label, str) for label in labels):
            raise ValueError(f"FreeRanked: bead labels must be strings, got {labels}")
        if not beads:
            raise ValueError("FreeRanked: need at least one bead")
        if len(set(labels)) != len(labels):
            raise ValueError(f"FreeRanked: duplicate bead labels in {labels}")
        object.__setattr__(self, "beads", beads)
        object.__setattr__(self, "floors", (0,) * len(beads))
        object.__setattr__(self, "row", tuple(length for _, length in beads))

    @property
    def lengths(self) -> tuple[int, ...]:
        return self.row

    def describe(self) -> str:
        return f"FreeRanked{self.row}"

    def size(self, s) -> int:
        """Total bead count |alpha|."""
        self.validate(s)
        return sum(s)

    def check_window(self, window: Window) -> None:
        super().check_window(window)
        # a root has fewer beads and a smaller rank, so it stays inside
        if window.max_total is None and any(length < 1 for length in self.row):
            raise ValueError("window needs max_total when some bead length is not positive")

    def _list(self, window: Window) -> list:
        """Depth-first over the beads, each branch fixing one multiplicity
        and pruned when no choice of the beads left can bring its rank
        into 1..max_rank within the bead budget.  Both conditions are
        linear in the multiplicity, so the admissible ones form a range,
        computed directly and walked lazily.  The last bead's range is
        counted before it is listed, so the walk stops at the cap having
        built at most MAX_OBJECTS elements."""
        self.check_window(window)
        lengths, max_rank = self.row, window.max_rank
        # without max_total every length is positive, so the rank caps the beads
        budget = max_rank if window.max_total is None else window.max_total
        # the least and the most rank that one bead from index i on adds
        low = [min([0, *lengths[i:]]) for i in range(len(lengths) + 1)]
        high = [max([0, *lengths[i:]]) for i in range(len(lengths) + 1)]
        out, stack = [], []  # stack: (bead index, rank, beads used, multiplicities, choices)

        def enter(i: int, rank: int, used: int, cs: tuple) -> None:
            length, left = lengths[i], budget - used
            first, last = 0, left
            # c beads here leave left - c for the rest: the rank can still
            # come down to max_rank, rank + c*length + low*(left - c) <= max_rank,
            # and up to 1, rank + c*length + high*(left - c) >= 1; each is
            # c * d <= x for the d and x below
            for d, x in ((length - low[i + 1], max_rank - rank - low[i + 1] * left),
                         (high[i + 1] - length, rank + high[i + 1] * left - 1)):
                if d > 0:
                    last = min(last, x // d)
                elif d < 0:
                    first = max(first, -(x // -d))  # the ceiling of x / d
                elif x < 0:
                    last = -1
            choices = range(first, last + 1)
            if i + 1 < len(lengths):
                stack.append((i, rank, used, cs, iter(choices)))
                return
            admit(len(out) + len(choices), "or more window elements")
            out.extend((rank + c * length, cs + (c,)) for c in choices)

        enter(0, 0, 0, ())
        while stack:
            i, rank, used, cs, choices = stack[-1]
            c = next(choices, None)
            if c is None:
                stack.pop()
            else:
                enter(i + 1, rank + c * lengths[i], used + c, cs + (c,))
        return [cs for _, cs in sorted(out)]  # (rank, cs) sorts as the sort key

    def label_index(self, label: str) -> int:
        for i, (name, _) in enumerate(self.beads):
            if name == label:
                return i
        raise ValueError(f"FreeRanked: unknown bead label {label!r}")


# -- JSON plumbing -----------------------------------------------------------


def encode_element(instance: _SemigroupBase, s):
    """JSON-friendly form: int, list of ints, or label->multiplicity dict."""
    instance.validate(s)
    if isinstance(instance, PositiveIntegers):
        return s
    if isinstance(instance, Chain):
        return list(s)
    return {label: c for (label, _), c in zip(instance.beads, s) if c}


def decode_element(instance: _SemigroupBase, obj):
    if isinstance(instance, PositiveIntegers):
        s = obj
    elif isinstance(instance, Chain):
        s = tuple(obj)
    else:
        if not isinstance(obj, dict):
            raise ValueError(f"expected a label->multiplicity object, got {obj!r}")
        counts = [0] * len(instance.beads)
        for label, c in obj.items():
            counts[instance.label_index(label)] = c
        s = tuple(counts)
    instance.validate(s)
    return s


def window_from_config(cfg: dict) -> Window:
    require_keys(cfg, {"max_rank", "extra_bounds", "max_total"}, {"max_rank"}, "window config")
    return Window(cfg["max_rank"], cfg.get("extra_bounds", ()), cfg.get("max_total"))


def window_elements(instance: _SemigroupBase, window: Window) -> list:
    """The elements of a configured window.  Refuses a window that the
    instance cannot list (``elements``, ``check_window``), one that sets a
    bound the instance does not read, and one that holds no element, over
    which every check would pass on nothing."""
    elements = instance.elements(window)
    instance.check_window(window)
    if not elements:
        raise ValueError("window config: no element of the instance lies in the window")
    return elements


# The keys each kind of instance config takes besides "kind" and "window".
_INSTANCE_KEYS = {"zpos": set(), "chain": {"base", "extra"}, "free": {"beads"}}


def instance_from_config(cfg: dict) -> tuple[_SemigroupBase, Window | None]:
    """Build an instance (and optional window) from its JSON declaration.

    {"kind": "zpos"} | {"kind": "chain", "base": ..., "extra": "ints"}
    | {"kind": "free", "beads": [["a", 1], ["b", 2]]}, each optionally with
    a "window" member.
    """
    common = {"kind", "window"}
    require_keys(cfg, common.union(*_INSTANCE_KEYS.values()), {"kind"}, "instance config")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _INSTANCE_KEYS:
        raise ValueError(f"instance config: unknown kind {kind!r}")
    require_keys(cfg, common | _INSTANCE_KEYS[kind], set(), f"{kind} instance config")
    window = window_from_config(cfg["window"]) if "window" in cfg else None
    if kind == "zpos":
        return PositiveIntegers(), window
    if kind == "chain":
        base_cfg = cfg.get("base", "zpos")
        if base_cfg == "zpos":
            base: _SemigroupBase = PositiveIntegers()
        else:
            base, base_window = instance_from_config(base_cfg)
            if base_window is not None:
                raise ValueError("instance config: window belongs on the outer chain")
        if not isinstance(base, (PositiveIntegers, Chain)):
            raise ValueError("chain base must be zpos or another chain")
        return Chain(base, cfg.get("extra", "ints")), window
    beads = tuple((label, length) for label, length in cfg.get("beads", ()))
    return FreeRanked(beads), window
