"""Concrete ranked commutative semigroups and their division structure.

Three instance kinds cover everything downstream:

- ``PositiveIntegers``: positive integers under addition, rank(n) = n.
- ``Chain``: a base instance extended by one extra integer coordinate; the
  rank is the base rank and ignores the extras.  Chains of chains flatten,
  so elements are plain tuples (rank, x1, ..., xm).
- ``FreeRanked``: the free commutative semigroup on a finite set of beads
  with declared integer lengths; an element is a tuple of multiplicities,
  its rank the length-weighted sum, which must be >= 1.

Elements are raw payloads (int or tuple), not wrapper objects; instances are
frozen dataclasses and all operations are pure.  Division is by repetition:
t divides s when s = d*t for a positive integer d, so d | rank(s).  All
instances are cancellative and torsion free, hence every root set s/d and
difference set s - t has at most one element.

Infinite instances are always consumed through a finite ``Window`` (rank cap,
per-extra coordinate bounds, bead-count cap), which makes every enumeration
terminating and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .arith import divisors

Element = "int | tuple[int, ...]"

EXTRA_KINDS = ("ints", "nonneg", "pos")

_EXTRA_MIN = {"ints": None, "nonneg": 0, "pos": 1}


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


@dataclass(frozen=True)
class Window:
    """Finite viewport on a semigroup instance.

    ``extra_bounds`` holds one (lo, hi) pair per chain extra; a single pair
    broadcasts to all extras.  ``max_total`` caps the bead count |alpha| on
    FreeRanked instances (required whenever some bead length is <= 0).
    """

    max_rank: int
    extra_bounds: tuple[tuple[int, int], ...] = ()
    max_total: int | None = None

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
        max_total = self.max_total
        if max_total is not None and strict_int(max_total, "Window: max_total") < 1:
            raise ValueError(f"Window: need max_total >= 1, got {self.max_total}")


def window_table(instance: _SemigroupBase, pairs: Iterable, owner: str) -> dict:
    """(element, value) pairs as a dict in canonical element order.

    Each element is validated once (``sort_key`` goes through ``rank``,
    which validates), and a repeated element is refused.
    """
    keyed: dict = {}
    for s, v in pairs:
        key = instance.sort_key(s)
        if s in keyed:
            raise ValueError(f"{owner}: duplicate element {s!r}")
        keyed[s] = (key, v)
    return {s: v for s, (_, v) in sorted(keyed.items(), key=lambda kv: kv[1][0])}


class _SemigroupBase:
    """Shared division structure; subclasses supply coords/packing."""

    # -- subclass protocol -------------------------------------------------

    def coords(self, s) -> tuple[int, ...]:
        raise NotImplementedError

    def _build(self, cs: tuple[int, ...]):
        """Pack a coordinate tuple into an element, or None if invalid."""
        raise NotImplementedError

    def validate(self, s) -> None:
        raise NotImplementedError

    def rank(self, s) -> int:
        raise NotImplementedError

    # -- generic operations ------------------------------------------------

    def sort_key(self, s) -> tuple[int, ...]:
        """Canonical order: by rank, then coordinates."""
        return (self.rank(s), *self.coords(s))

    def add(self, s, t):
        self.validate(s)
        self.validate(t)
        out = self._build(tuple(a + b for a, b in zip(self.coords(s), self.coords(t))))
        if out is None:
            raise ValueError(f"add: {s} + {t} leaves the instance")
        return out

    def scale(self, d: int, s):
        """The d-fold sum s + s + ... + s."""
        if d < 1:
            raise ValueError(f"scale: need d >= 1, got {d}")
        self.validate(s)
        out = self._build(tuple(d * a for a in self.coords(s)))
        if out is None:
            raise ValueError(f"scale: {d}*{s} leaves the instance")
        return out

    def nth_root(self, s, d: int):
        """The unique t with d*t = s, or None."""
        self.validate(s)
        if d < 1:
            raise ValueError(f"nth_root: need d >= 1, got {d}")
        cs = self.coords(s)
        if any(c % d for c in cs):
            return None
        return self._build(tuple(c // d for c in cs))

    def root_set(self, s, d: int) -> list:
        """The set s/d = {t | d*t = s}; zero or one element here."""
        r = self.nth_root(s, d)
        return [] if r is None else [r]

    def unit_divisors(self, s) -> list[tuple[object, int]]:
        """All pairs (t, d) with d*t = s, ascending in d; (s, 1) included."""
        out = []
        for d in divisors(self.rank(s)):
            r = self.nth_root(s, d)
            if r is not None:
                out.append((r, d))
        return out

    def difference_set(self, s, t) -> list:
        """The set s - t = {u | u + t = s}; zero or one element here."""
        self.validate(s)
        self.validate(t)
        u = self._build(tuple(a - b for a, b in zip(self.coords(s), self.coords(t))))
        return [] if u is None else [u]

    def decompositions(self, s, support: Sequence | None = None) -> list[tuple]:
        """Every multiset {s_1, ..., s_k} (k >= 1) of parts summing to s.

        Parts are drawn from ``support`` when given (required on chains with
        unbounded integer extras), otherwise from every element that can fit
        under s.  Each multiset is a tuple sorted in canonical element order,
        and the list comes out sorted by the parts' sort keys: the pool is in
        canonical order, the search takes parts with nondecreasing pool
        index, and no multiset is a prefix of another.  The depth-first
        search keeps its own stack, so a decomposition may have more parts
        than the interpreter's recursion limit.
        """
        self.validate(s)
        if support is not None:
            pool = sorted(set(support), key=self.sort_key)
            for p in pool:
                self.validate(p)
        else:
            pool = self._default_parts(s)
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

    def _remainder_ok(self, remaining: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def _default_parts(self, s) -> list:
        raise NotImplementedError

    def elements(self, window: Window) -> list:
        """Window contents in canonical (rank, coordinates) order."""
        raise NotImplementedError

    def check_window(self, window: Window) -> None:
        """Refuse a window that this instance cannot enumerate, or that
        misses a root t (d*t = s) of one of its elements s, which the
        divisor-sum checks read.  Every window of positive integers fits."""


@dataclass(frozen=True)
class PositiveIntegers(_SemigroupBase):
    """Positive integers under addition; rank(n) = n."""

    def coords(self, s) -> tuple[int, ...]:
        return (s,)

    def _build(self, cs):
        return cs[0] if cs[0] >= 1 else None

    def validate(self, s) -> None:
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise ValueError(f"PositiveIntegers: invalid element {s!r}")

    def rank(self, s) -> int:
        self.validate(s)
        return s

    def _remainder_ok(self, remaining) -> bool:
        return remaining[0] >= 0

    def _default_parts(self, s) -> list:
        return list(range(1, s + 1))

    def elements(self, window: Window) -> list:
        return list(range(1, window.max_rank + 1))


@dataclass(frozen=True)
class Chain(_SemigroupBase):
    """A base instance with one more integer coordinate; rank from the base.

    Elements are flat tuples: chaining ((n,) base, extra) twice gives
    (n, x, y).  The extra kind is one of "ints", "nonneg", "pos".
    """

    base: _SemigroupBase
    extra: str

    def __post_init__(self) -> None:
        if self.extra not in EXTRA_KINDS:
            raise ValueError(f"Chain: unknown extra kind {self.extra!r}")
        if not isinstance(self.base, (PositiveIntegers, Chain)):
            raise ValueError("Chain: base must be PositiveIntegers or Chain")

    @property
    def extras(self) -> tuple[str, ...]:
        base_extras = self.base.extras if isinstance(self.base, Chain) else ()
        return base_extras + (self.extra,)

    @property
    def arity(self) -> int:
        return 1 + len(self.extras)

    def coords(self, s) -> tuple[int, ...]:
        return tuple(s)

    def _build(self, cs):
        if cs[0] < 1:
            return None
        for kind, value in zip(self.extras, cs[1:]):
            lo = _EXTRA_MIN[kind]
            if lo is not None and value < lo:
                return None
        return tuple(cs)

    def validate(self, s) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) != self.arity
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in s)
            or self._build(s) is None
        ):
            raise ValueError(f"{self.describe()}: invalid element {s!r}")

    def rank(self, s) -> int:
        self.validate(s)
        return s[0]

    def describe(self) -> str:
        return "Chain[" + ",".join(self.extras) + "]"

    def _remainder_ok(self, remaining) -> bool:
        if remaining[0] < 0:
            return False
        for kind, value in zip(self.extras, remaining[1:]):
            if kind != "ints" and value < 0:
                return False
        return True

    def _default_parts(self, s) -> list:
        if "ints" in self.extras:
            raise ValueError(
                "decompositions on a chain with unbounded integer extras "
                "requires an explicit support"
            )
        ranges = [range(1, s[0] + 1)]
        for kind, value in zip(self.extras, s[1:]):
            ranges.append(range(_EXTRA_MIN[kind], value + 1))
        return [tuple(c) for c in itertools.product(*ranges)]

    def resolve_bounds(self, window: Window) -> tuple[tuple[int, int], ...]:
        """Per-extra (lo, hi) enumeration bounds implied by the window."""
        extras = self.extras
        eb = window.extra_bounds
        if not eb:
            pairs = []
            for kind in extras:
                if kind == "ints":
                    raise ValueError(
                        "window needs explicit extra_bounds for an ints extra"
                    )
                pairs.append((_EXTRA_MIN[kind], window.max_rank))
            return tuple(pairs)
        if len(eb) == 1:
            eb = eb * len(extras)
        if len(eb) != len(extras):
            raise ValueError(
                f"window has {len(eb)} extra bounds for {len(extras)} extras"
            )
        out = []
        for kind, (lo, hi) in zip(extras, eb):
            floor = _EXTRA_MIN[kind]
            if floor is not None:
                lo = max(lo, floor)
            out.append((lo, hi))
        return tuple(out)

    def check_window(self, window: Window) -> None:
        bounds = self.resolve_bounds(window)
        for d in range(2, window.max_rank + 1):
            # the roots x/d of the multiples x of d within each extra's bounds;
            # an element of rank d has a root by d when every extra has one
            roots = [range(-(-lo // d), hi // d + 1) for lo, hi in bounds]
            if all(roots) and any(
                r[0] < lo or r[-1] > hi for r, (lo, hi) in zip(roots, bounds)
            ):
                raise ValueError(f"window misses the root by {d} of an element of rank {d}")

    def elements(self, window: Window) -> list:
        bounds = self.resolve_bounds(window)
        ranges = [range(1, window.max_rank + 1)]
        ranges.extend(range(lo, hi + 1) for lo, hi in bounds)
        return sorted(itertools.product(*ranges), key=self.sort_key)


@dataclass(frozen=True)
class FreeRanked(_SemigroupBase):
    """Free commutative semigroup on labelled beads with integer lengths.

    An element is a tuple of bead multiplicities (aligned with ``beads``)
    with at least one bead; its rank is the length-weighted sum and must be
    >= 1 even though individual bead lengths may be zero or negative.
    """

    beads: tuple[tuple[str, int], ...]
    lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "lengths", tuple(length for _, length in beads))

    def coords(self, s) -> tuple[int, ...]:
        return tuple(s)

    def _build(self, cs):
        if any(c < 0 for c in cs):
            return None
        if sum(cs) < 1:
            return None
        if sum(c * length for c, length in zip(cs, self.lengths)) < 1:
            return None
        return tuple(cs)

    def validate(self, s) -> None:
        if (
            not isinstance(s, tuple)
            or len(s) != len(self.beads)
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in s)
            or self._build(s) is None
        ):
            raise ValueError(f"FreeRanked{self.lengths}: invalid element {s!r}")

    def rank(self, s) -> int:
        self.validate(s)
        return sum(c * length for c, length in zip(s, self.lengths))

    def size(self, s) -> int:
        """Total bead count |alpha|."""
        self.validate(s)
        return sum(s)

    def _remainder_ok(self, remaining) -> bool:
        return all(c >= 0 for c in remaining)

    def _default_parts(self, s) -> list:
        out = []
        for cs in itertools.product(*(range(c + 1) for c in s)):
            if sum(cs) >= 1 and self._build(cs) is not None:
                out.append(cs)
        return sorted(out, key=self.sort_key)

    def check_window(self, window: Window) -> None:
        # a root has fewer beads and a smaller rank, so it stays inside
        if window.max_total is None and any(length < 1 for length in self.lengths):
            raise ValueError(
                "window needs max_total when some bead length is not positive"
            )

    def elements(self, window: Window) -> list:
        self.check_window(window)
        caps = []
        for length in self.lengths:
            cap = window.max_rank // length if length >= 1 else window.max_total
            if window.max_total is not None:
                cap = min(cap, window.max_total)
            caps.append(cap)
        out = []
        for cs in itertools.product(*(range(c + 1) for c in caps)):
            total = sum(cs)
            if total < 1 or (window.max_total is not None and total > window.max_total):
                continue
            rank = sum(c * length for c, length in zip(cs, self.lengths))
            if 1 <= rank <= window.max_rank:
                out.append((rank, cs))  # sorts as the sort key (rank, *cs)
        return [cs for _, cs in sorted(out)]

    def label_index(self, label: str) -> int:
        for i, (name, _) in enumerate(self.beads):
            if name == label:
                return i
        raise ValueError(f"FreeRanked: unknown bead label {label!r}")


# -- morphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A named additive map between instances: an integer matrix applied to
    the coordinate tuple (rows indexed by target coordinates).

    Linear maps with no constant term are exactly the additive ones
    expressible on coordinates.  That covers the rank map (the row of bead
    lengths on a free instance, the first coordinate elsewhere),
    projections, permutations, reindexings like (n, k) -> (n, k, n-k), and
    bead label maps (0/1 columns).
    """

    source: _SemigroupBase
    target: _SemigroupBase
    matrix: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(strict_int(c, "Morphism: matrix entry") for c in row) for row in self.matrix
        )
        if not rows:
            raise ValueError("Morphism: needs a matrix")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("Morphism: ragged matrix")
        object.__setattr__(self, "matrix", rows)

    def __call__(self, s):
        return apply_morphism(self, s)


def linear_morphism(
    source: _SemigroupBase,
    target: _SemigroupBase,
    rows: Iterable[Iterable[int]],
    name: str = "",
) -> Morphism:
    return Morphism(source, target, tuple(tuple(r) for r in rows), name=name)


def apply_morphism(m: Morphism, s):
    m.source.validate(s)
    xs = m.source.coords(s)
    if any(len(row) != len(xs) for row in m.matrix):
        raise ValueError("apply_morphism: matrix width does not match source arity")
    ys = tuple(sum(c * x for c, x in zip(row, xs)) for row in m.matrix)
    out = m.target._build(ys)
    if out is None:
        raise ValueError(f"apply_morphism: image {ys} of {s} is not a valid element")
    return out


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    failures: tuple[str, ...]


# Additivity of linear maps is structural, so the pairwise check is a
# packing sanity test; it runs on a bounded prefix of the window to keep
# large windows affordable.
_ADDITIVITY_PREFIX = 48


def check_morphism(m: Morphism, kind: str, window: Window) -> MorphismReport:
    """Verify morphism health on a window.

    kind is "rank-dividing" (rank of the image divides the rank) or
    "rank-multiplying" (rank divides the image rank).  For rank-multiplying
    maps the root-set bijection condition needed for pullbacks is checked:
    for every s and d | rank(s), the sets s/d and image/d have equal size.
    """
    if kind not in ("rank-dividing", "rank-multiplying"):
        raise ValueError(f"check_morphism: unknown kind {kind!r}")
    failures: list[str] = []
    elems = m.source.elements(window)
    images = {}
    for s in elems:
        try:
            images[s] = apply_morphism(m, s)
        except ValueError as exc:
            failures.append(f"image of {s}: {exc}")
    for s, phi_s in images.items():
        rs, rp = m.source.rank(s), m.target.rank(phi_s)
        if kind == "rank-dividing" and rs % rp:
            failures.append(f"rank {rp} of image of {s} does not divide rank {rs}")
        if kind == "rank-multiplying" and rp % rs:
            failures.append(f"rank {rs} of {s} does not divide image rank {rp}")
    prefix = elems[:_ADDITIVITY_PREFIX]
    in_window = set(elems)
    for s in prefix:
        if s not in images:
            continue
        for t in prefix:
            if t not in images:
                continue
            try:
                st = m.source.add(s, t)
            except ValueError:
                continue
            if st not in in_window:
                continue
            lhs = apply_morphism(m, st)
            rhs = m.target.add(images[s], images[t])
            if lhs != rhs:
                failures.append(f"additivity broken at {s} + {t}")
    if kind == "rank-multiplying":
        for s, phi_s in images.items():
            for d in divisors(m.source.rank(s)):
                if len(m.source.root_set(s, d)) != len(m.target.root_set(phi_s, d)):
                    failures.append(f"root sets of {s} and its image differ at d={d}")
    return MorphismReport(ok=not failures, failures=tuple(failures))


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
