"""Polynomial families on ranked instances and their sieve congruence.

A family assigns an integer polynomial in q to every window element.  The
congruence of interest: for each element s, the Mobius-weighted sum of
f_t(q^(s/t)) over unit divisors t of s must vanish mod [rank(s)]_q.  An
equivalent test asks f_s to take, at every primitive d-th root of unity
for d | rank(s), the total E_d of f_t(1) over the d-th roots t of s.

Three constructions build such a family from an integer sequence (given in
role a, b or c form); they agree modulo q^rank - 1, and the Ramanujan-sum
construction is the canonical low-degree representative.  One integer
kernel, ``qpoly.ramanujan_vector``, serves that construction and the root
test: its entry j is the sum over d | rank(s) of E_d * c_d(j), c_d the
Ramanujan sum.  The canonical f_s is that vector divided by rank(s), and
f_s passes the root test at every d exactly when rank(s) times f_s folded
modulo q^rank - 1 equals it.  Transport operations (pushforward,
pullback, multiply, two chainings) produce new families from old,
mirroring how counting problems are rearranged.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Mapping
from operator import add, mul, sub
from types import MappingProxyType

from .arith import mobius
from .gaussseq import SequenceSpec, _require_role
from .qpoly import (
    IntPoly,
    ONE,
    ZERO,
    eval_at_one,
    eval_at_primitive_root,
    fold,
    one_minus_q_pow,
    q_binomial,
    q_int,
    q_multinomial,
    q_power,
    ramanujan_vector,
    reduce_mod_q_int,
    reduce_mod_qn_minus_1,
)
from .semigroup import (  # FamilyCheckFailure and FamilyReport are re-exported
    Chain,
    FamilyCheckFailure,
    FamilyReport,
    FreeRanked,
    Morphism,
    PositiveIntegers,
    Record,
    Window,
    _SemigroupBase,
    apply_morphism,
    check_divisors,
    encode_element,
    window_table,
)


class NonIntegerCoefficient(ValueError):
    """A construction produced a fractional coefficient.

    For the Ramanujan-sum construction this is the integrality certificate
    failing, which means the input sequence was not congruent.
    """

    def __init__(self, element, detail: str):
        self.element = element
        self.detail = detail
        super().__init__(f"non-integer coefficient at {element}: {detail}")


class WindowBoundaryWarning(UserWarning):
    """A pushforward read mass from the edge of its source window.

    Fibers are enumerated inside the declared window, so contributions at
    the boundary suggest the window may be cutting a fiber short.  Widening
    the bounds past the support silences this.
    """


class PolyFamily(Record):
    """Total mapping from window elements to integer polynomials."""

    instance: _SemigroupBase
    window: Window
    polys: tuple[tuple[object, IntPoly], ...]

    def __post_init__(self) -> None:
        table = window_table(self.instance, self.polys, "PolyFamily")
        for s, p in table.items():
            if not isinstance(p, IntPoly):
                raise ValueError(f"PolyFamily: value at {s!r} is not a polynomial")
        for s in self.instance.elements(self.window):
            if s not in table:
                raise ValueError(f"PolyFamily: not total on window, missing {s!r}")
        object.__setattr__(self, "polys", tuple(table.items()))
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_function(
        cls,
        instance: _SemigroupBase,
        window: Window,
        fn: Callable[[object], IntPoly],
    ) -> "PolyFamily":
        """The family of ``fn`` over the window."""
        return cls(instance, window, tuple((s, fn(s)) for s in instance.elements(window)))

    def as_dict(self) -> Mapping:
        return MappingProxyType(self._table)

    def value(self, s) -> IntPoly:
        try:
            return self._table[s]
        except KeyError:
            raise ValueError(f"PolyFamily: no polynomial at {s!r}") from None

    def to_jsonable(self) -> list[dict]:
        return [
            {"element": encode_element(self.instance, s), "poly": list(p.coeffs)}
            for s, p in self.polys
        ]


def root_total(table: Mapping, s, t) -> int:
    """table[t] at the root t of s, or 0 when t is None."""
    if t is None:
        return 0
    if t not in table:
        raise ValueError(f"family window does not cover the root {t!r} of {s!r}")
    return table[t]


# -- the three constructions --------------------------------------------------


def construct_ramanujan(a: SequenceSpec) -> PolyFamily:
    """Canonical family: coefficient j of f_s is (1/rank(s)) times the sum
    of a_t * c_d(j) over the unit divisors t = s/d of s.

    That is the polynomial of degree below rank(s) that takes the value
    a_(s/d) at every primitive d-th root of unity (0 where s has no d-th
    root), built by ``ramanujan_vector``; it is the unique representative
    of its class mod q^rank - 1 in that degree range.  Integer coefficients
    certify that the input satisfies the sieve congruence; a fractional one
    raises NonIntegerCoefficient.
    """
    _require_role(a, "a")
    inst = a.instance

    def build(s):
        rk = inst.rank(s)
        coeffs = ramanujan_vector(rk, [(d, a.value(t)) for t, d in inst.unit_divisors(s)])
        try:
            return IntPoly(coeffs).scale_div(rk)
        except ArithmeticError:
            bad = next(c for c in coeffs if c % rk)
            raise NonIntegerCoefficient(s, f"{bad}/{rk}") from None

    return PolyFamily.from_function(inst, a.window, build)


def construct_from_b(b: SequenceSpec) -> PolyFamily:
    """Family from divisor weights: sum of [rank(t)]_{q^d} b_t over unit divisors."""
    _require_role(b, "b")
    inst = b.instance

    def build(s):
        total = ZERO
        for t, d in inst.unit_divisors(s):
            bt = b.value(t)
            if bt:
                total = total + q_int(inst.rank(t)).subst_power(d) * bt
        return total

    return PolyFamily.from_function(inst, b.window, build)


def _weighted_multinomial(weight: int, mults: list[int]) -> IntPoly:
    """Exact ([weight]_q / [sum]_q) times the q-multinomial of mults.

    The ratio of q-integers is (1 - q^weight) / (1 - q^sum), so this is one
    sparse product and one sparse exact division.
    """
    total = sum(mults)
    return (q_multinomial(mults) * one_minus_q_pow(weight)).exact_div(
        one_minus_q_pow(total)
    )


def construct_from_c(c: SequenceSpec) -> PolyFamily:
    """Family from convolution weights, summed over multiset decompositions.

    Each decomposition of s into parts from the support of c contributes
    [rank(s)]_q / [number of parts]_q times the q-multinomial of its part
    multiplicities times q_power(c_t, m) per distinct part t of multiplicity
    m.  The sums come from one knapsack over the support parts in canonical
    order, not from listing each element's decompositions.  Its state maps
    the coordinates of a partial sum u and its number of parts k to the
    sum over the multisets of the parts taken so far with that sum and
    count; taking part t m more times moves it to (u + m*t, k + m) times
    q_binomial(k + m, m) * q_power(c_t, m), and a partial sum of rank above
    the window's max_rank is dropped, since every part has rank >= 1.  The
    weight depends on a decomposition only through its number of parts, so
    it is applied once per state, as one product by 1 - q^rank(s) and one
    exact division by 1 - q^k.
    """
    _require_role(c, "c")
    inst = c.instance
    max_rank, row = c.window.max_rank, inst.row
    # partial-sum coordinates -> {number of parts: polynomial}
    sums: dict[tuple[int, ...], dict[int, IntPoly]] = {(0,) * len(row): {0: ONE}}
    for t in c.support():
        rt, step, weight = inst.rank(t), inst.coords(t), c.value(t)
        factors: dict[tuple[int, int], IntPoly] = {}
        taken: dict[tuple[int, ...], dict[int, IntPoly]] = {}  # sums with t in them
        for u, by_count in sums.items():
            ru, v, m = sum(map(mul, u, row)), u, 1
            while ru + m * rt <= max_rank:
                v = tuple(map(add, v, step))  # u + m*t
                slot = taken.setdefault(v, {})
                for k, poly in by_count.items():
                    factor = factors.get((k, m))
                    if factor is None:
                        factor = factors[k, m] = q_binomial(k + m, m) * q_power(weight, m)
                    slot[k + m] = slot.get(k + m, ZERO) + poly * factor
                m += 1
        for v, by_count in taken.items():
            slot = sums.setdefault(v, {})
            for k, poly in by_count.items():
                slot[k] = slot.get(k, ZERO) + poly

    def build(s):
        rk = inst.rank(s)
        total = ZERO
        for count, terms in sums.get(inst.coords(s), {}).items():
            weighted = terms * one_minus_q_pow(rk)
            total = total + weighted.exact_div(one_minus_q_pow(count))
        return total

    return PolyFamily.from_function(inst, c.window, build)


# -- checkers ------------------------------------------------------------------


def check_qgauss_definition(F: PolyFamily) -> FamilyReport:
    """Exact-division test: Mobius-weighted divisor sum mod [rank(s)]_q.

    The sum is taken modulo q^rank - 1 in one list: f_t(q^d) folded there
    is f_t folded modulo q^rank(t) - 1, spread to every d-th entry.  Its
    remainder modulo [rank(s)]_q is that list minus its top entry, as
    ``reduce_mod_q_int`` computes it, with no long division.
    """
    lookup = F.as_dict()

    def checks():
        for s, _ in F.polys:
            roots = F.instance.divisor_roots(s)
            rk = roots[-1][0]
            total = [0] * rk
            for d, t in roots:
                mu = 0 if t is None else mobius(d)
                if mu:
                    spread = fold(root_total(lookup, s, t).coeffs, rk // d)
                    total[::d] = map(add if mu > 0 else sub, total[::d], spread)
            if total.count(total[-1]) == rk:  # the remainder, total - top, is 0
                yield s, rk, None
            else:
                yield s, rk, f"remainder {reduce_mod_q_int(IntPoly(total), rk)}"

    return FamilyReport.collect(checks())


def check_root_values(
    inst: _SemigroupBase, items: Iterable, expected: Callable, label: str = ""
) -> FamilyReport:
    """The root-of-unity report: for each (s, (p, x)) in items and each d
    dividing rank(s), p must take the integer E_d = expected(s, x, d, t) at
    every primitive d-th root of unity, t being the root s/d or None.

    All the divisors of one element are decided by one integer comparison,
    with no division: rank(s) times p folded modulo q^rank - 1 must equal
    ``ramanujan_vector(rank(s), [(d, E_d), ...])`` (the ``qpoly`` module
    docstring derives it).  Only an element that fails it is checked one d
    at a time, by the remainder ``eval_at_primitive_root(p, d)``, whose
    value a failing detail names.
    """

    def compare(s, entry, roots):
        p, x = entry
        rank = roots[-1][0]
        wants = [(d, expected(s, x, d, t)) for d, t in roots]
        if [rank * c for c in fold(p.coeffs, rank)] == ramanujan_vector(rank, wants):
            return [None] * len(wants)
        values = [(eval_at_primitive_root(p, d), want) for d, want in wants]
        return [None if v == want else f"value {v.coeffs} != {label}{want}" for v, want in values]

    return check_divisors(inst, items, compare)


def check_qgauss_roots(F: PolyFamily) -> FamilyReport:
    """Root-of-unity test: f_s at a primitive d-th root vs the root-set total.

    For every d dividing rank(s), the evaluation must be the integer
    sum of f_t(1) over d-th roots t of s inside the instance.
    """
    at_one = {s: eval_at_one(p) for s, p in F.polys}
    return check_root_values(
        F.instance,
        ((s, (p, None)) for s, p in F.polys),
        lambda s, _, d, t: root_total(at_one, s, t),
    )


def equivalent_mod(F: PolyFamily, G: PolyFamily) -> FamilyReport:
    """Entrywise congruence mod q^rank - 1 between families on one window."""
    if F.instance != G.instance or F.window != G.window:
        raise ValueError("equivalent_mod needs families on the same instance/window")
    inst = F.instance
    g = G.as_dict()

    def checks():
        for s, p in F.polys:
            rk = inst.rank(s)
            diff = reduce_mod_qn_minus_1(p - g[s], rk)
            yield s, rk, f"difference {diff}" if diff else None

    return FamilyReport.collect(checks())


# -- fundamental family on free instances --------------------------------------


def fund_family(beads, window: Window) -> PolyFamily:
    """Weighted q-multinomial family on a free ranked instance.

    ``beads`` is a FreeRanked instance or a sequence of (label, length)
    pairs.  The entry at a multiset alpha is [rank]_q / [|alpha|]_q times
    the q-multinomial of the multiplicities; the division is exact.
    """
    inst = beads if isinstance(beads, FreeRanked) else FreeRanked(tuple(beads))

    def build(alpha):
        return _weighted_multinomial(inst.rank(alpha), sorted(alpha))

    return PolyFamily.from_function(inst, window, build)


# -- transport along morphisms --------------------------------------------------


def _fiber_directions(m: Morphism) -> set[int]:
    """Source coordinates along which a fiber of the morphism can move.

    These are the coordinates carrying a nonzero entry in some kernel
    vector of the coordinate matrix; window edges only threaten fiber
    completeness in those directions.
    """
    width = len(m.matrix[0])
    mat = [list(row) for row in m.matrix]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                # fraction-free: scaling row i by pv != 0 keeps its zero pattern
                f = mat[i][c]
                mat[i] = [pv * a - f * b for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
    moving: set[int] = set()
    for fc in (c for c in range(width) if c not in pivots):
        moving.add(fc)
        for c, pr in pivots.items():
            if mat[pr][fc]:
                moving.add(c)
    return moving


def _boundary_contact(
    inst: _SemigroupBase, window: Window, s, moving: set[int]
) -> bool:
    """True when s sits on a window edge along a fiber direction."""
    if isinstance(inst, Chain):
        bounds = inst.resolve_bounds(window)
        coords = inst.coords(s)
        return any(
            i + 1 in moving and coords[i + 1] in pair
            for i, pair in enumerate(bounds)
        )
    if isinstance(inst, FreeRanked):
        return (
            bool(moving)
            and window.max_total is not None
            and inst.size(s) >= window.max_total
        )
    return False


def pushforward(F: PolyFamily, m: Morphism, target_window: Window) -> PolyFamily:
    """Sum each fiber of the morphism into a family on the target window.

    Fibers are enumerated inside F's window; it is the caller's job to make
    the window contain every contributing preimage.  A nonzero contribution
    sitting on a window edge along a direction the fiber moves in triggers
    a WindowBoundaryWarning, as does a contribution whose rank differs from
    its image's rank (fibers of such maps are not exhausted by any single
    max_rank).
    """
    if m.source != F.instance:
        raise ValueError("pushforward: family instance does not match morphism source")
    target = m.target
    moving = _fiber_directions(m)
    sums: dict = {}
    edge = None
    rank_jump = None
    for s, p in F.polys:
        t = apply_morphism(m, s)
        sums[t] = sums.get(t, ZERO) + p
        if p:
            if edge is None and _boundary_contact(F.instance, F.window, s, moving):
                edge = s
            if rank_jump is None and F.instance.rank(s) != target.rank(t):
                rank_jump = s
    if edge is not None:
        warnings.warn(
            f"pushforward support touches the source window edge at {edge!r}",
            WindowBoundaryWarning,
            stacklevel=2,
        )
    if rank_jump is not None:
        warnings.warn(
            f"pushforward does not preserve rank at {rank_jump!r}; "
            "fibers may extend beyond the window",
            WindowBoundaryWarning,
            stacklevel=2,
        )
    return PolyFamily.from_function(
        target, target_window, lambda t: sums.get(t, ZERO)
    )


def pullback(G: PolyFamily, m: Morphism, source_window: Window) -> PolyFamily:
    """Restrict a target family along the morphism: f_s = g at the image of s."""
    if m.target != G.instance:
        raise ValueError("pullback: family instance does not match morphism target")
    lookup = G.as_dict()

    def build(s):
        t = apply_morphism(m, s)
        if t not in lookup:
            raise ValueError(
                f"pullback image {t!r} of {s!r} is outside the family window"
            )
        return lookup[t]

    return PolyFamily.from_function(m.source, source_window, build)


def multiply(F: PolyFamily, G: PolyFamily) -> PolyFamily:
    """Entrywise product of two families on the same torsion-free window."""
    if F.instance != G.instance or F.window != G.window:
        raise ValueError("multiply needs families on the same instance/window")
    g = G.as_dict()
    pairs = tuple((s, p * g[s]) for s, p in F.polys)
    return PolyFamily(F.instance, F.window, pairs)


def _chain_shapes(F: PolyFamily, G: PolyFamily) -> tuple[Chain, Chain]:
    if not isinstance(F.instance, Chain) or not isinstance(G.instance, Chain):
        raise ValueError("chaining needs two chain instances")
    return F.instance, G.instance


def _chain_product(F: PolyFamily, G: PolyFamily, bounds, g_key: Callable) -> PolyFamily:
    """h at e is F(e minus its last coordinate) * G(g_key(e)), on F's chain
    extended by G's extra, with the given extra bounds."""
    f, g = F.as_dict(), G.as_dict()
    return PolyFamily.from_function(
        Chain(F.instance, G.instance.extra),
        Window(F.window.max_rank, bounds),
        lambda e: f[e[:-1]] * g[g_key(e)],
    )


def chain_prefix(F: PolyFamily, G: PolyFamily) -> PolyFamily:
    """Combine families sharing a base: h at (s, t, u) is F(s, t) * G(s, u).

    F lives on base[T], G on base[U] with the same base and matching base
    windows; the result lives on base[T][U].
    """
    fi, gi = _chain_shapes(F, G)
    if fi.base != gi.base:
        raise ValueError("chain_prefix: the two chains must share a base instance")
    fb = fi.resolve_bounds(F.window)
    gb = gi.resolve_bounds(G.window)
    if F.window.max_rank != G.window.max_rank or fb[:-1] != gb[:-1]:
        raise ValueError("chain_prefix: base windows differ")
    return _chain_product(F, G, fb + (gb[-1],), lambda e: e[:-2] + (e[-1],))


def chain_suffix(F: PolyFamily, G: PolyFamily) -> PolyFamily:
    """Chain through the middle coordinate: h at (s, t, u) is F(s, t) * G(t, u).

    The middle coordinate must itself be ranked, so F's extra kind must be
    "pos" and G's base the plain positive integers; G's window has to reach
    as high as F's middle bound.  The result lives on base[T][U].
    """
    fi, gi = _chain_shapes(F, G)
    if fi.extra != "pos":
        raise ValueError('chain_suffix: the middle coordinate must have kind "pos"')
    if not isinstance(gi.base, PositiveIntegers):
        raise ValueError("chain_suffix: the second family must sit over plain ranks")
    fb = fi.resolve_bounds(F.window)
    gb = gi.resolve_bounds(G.window)
    if fb[-1][1] > G.window.max_rank:
        raise ValueError(
            "chain_suffix: middle bound exceeds the second family's window"
        )
    return _chain_product(F, G, fb + (gb[-1],), lambda e: (e[-2], e[-1]))
