"""Polynomial families on ranked instances and their sieve congruence.

A family assigns an integer polynomial in q to every window element.  The
congruence of interest: for each element s, the Mobius-weighted sum of
f_t(q^(s/t)) over unit divisors t of s must vanish mod [rank(s)]_q.  An
equivalent test asks f_s to take, at every primitive d-th root of unity
for d | rank(s), the total E_d of f_t(1) over the d-th roots t of s.

Three constructions build such a family from an integer sequence (given in
role a, b or c form); they agree modulo q^rank - 1, and the Ramanujan-sum
construction is the canonical low-degree representative.  One integer
kernel, ``qpoly.ramanujan_classes``, serves that construction and the root
test: the Ramanujan vector, whose entry j is the sum over d | rank(s) of
E_d * c_d(j), c_d the Ramanujan sum.  The canonical f_s is that vector
divided by rank(s), and f_s passes the root test at every d exactly when
rank(s) times f_s folded modulo q^rank - 1 equals it.  Both checks read a
family only through those folds, which ``PolyFamily.folds`` builds once
per family, as do the sieving checks of ``objects``.  Moving families
along morphisms is ``transport``'s.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping, Sequence
from math import comb
from operator import add, mul, sub
from types import MappingProxyType

from .arith import mobius
from .gaussseq import SequenceSpec, _require_role
from .qpoly import (
    IntPoly,
    eval_at_primitive_root,
    fold,
    gcd_classes,
    kronecker_pack,
    kronecker_unpack,
    one_minus_q_pow,
    q_binomial,
    q_multinomial,
    q_power,
    ramanujan_classes,
    slot_size,
)
from .semigroup import (  # FamilyCheckFailure and FamilyReport are re-exported
    CheckedTable,
    FamilyCheckFailure,
    FamilyReport,
    FreeRanked,
    Record,
    Window,
    _SemigroupBase,
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
        """The family of ``fn`` over the window, whose listing gives valid
        elements in canonical order: they are not checked again."""
        return cls(instance, window, CheckedTable((s, fn(s)) for s in instance.elements(window)))

    def as_dict(self) -> Mapping:
        return MappingProxyType(self._table)

    def value(self, s) -> IntPoly:
        try:
            return self._table[s]
        except KeyError:
            raise ValueError(f"PolyFamily: no polynomial at {s!r}") from None

    @functools.cached_property
    def folds(self) -> dict:
        """{s: f_s folded modulo q^rank(s) - 1}, built once: all a checker reads."""
        rank = self.instance._rank  # the table holds valid elements
        return {s: fold(p.coeffs, rank(s)) for s, p in self.polys}

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
    root), the Ramanujan vector divided by rank(s) one gcd class at a time:
    the unique representative of its class mod q^rank - 1 in that degree
    range.  Integer coefficients certify the sieve congruence; the first
    fractional one raises NonIntegerCoefficient.
    """
    _require_role(a, "a")
    inst = a.instance

    def build(s):
        rk = inst._rank(s)
        by_class, classes = ramanujan_classes(
            rk, [(d, a.value(t)) for d, t in inst._divisor_roots(s) if t is not None])
        if any(c % rk for c in by_class):
            bad = next(c for c in map(by_class.__getitem__, classes) if c % rk)
            raise NonIntegerCoefficient(s, f"{bad}/{rk}")
        return IntPoly(map([c // rk for c in by_class].__getitem__, classes))

    return PolyFamily.from_function(inst, a.window, build)


def construct_from_b(b: SequenceSpec) -> PolyFamily:
    """Family from divisor weights: sum of [rank(t)]_{q^d} b_t over unit divisors.

    [rank(t)]_{q^d} is 1 at each multiple of d below rank(s), so coefficient
    j of f_s sums b_t over the roots with d | gcd(j, rank(s)): one sum per
    gcd class, gathered by the class index of ``qpoly.gcd_classes``.
    """
    _require_role(b, "b")
    inst = b.instance

    def build(s):
        roots = inst._divisor_roots(s)
        values = [(d, b.value(t)) for d, t in roots if t is not None]
        by_class = [sum(v for d, v in values if not g % d) for g, _ in roots]
        return IntPoly(map(by_class.__getitem__, gcd_classes(roots[-1][0])[1]))

    return PolyFamily.from_function(inst, b.window, build)


def _weighted_multinomial(weight: int, mults: Sequence[int]) -> IntPoly:
    """Exact ([weight]_q / [sum]_q) times the q-multinomial of mults.

    The ratio of q-integers is (1 - q^weight) / (1 - q^sum), so this is one
    sparse product and one sparse exact division.
    """
    total = sum(mults)
    return (q_multinomial(mults) * one_minus_q_pow(weight)).exact_div(
        one_minus_q_pow(total)
    )


def _divide_one_minus_power(p: int, k: int, width: int) -> int:
    """p / (1 - X^k) for k >= 1, both packed at X = 2^width (``kronecker_pack``)
    with coefficients that fit: the stride-k prefix sum of p's coefficients,
    by adds shifted k, 2k, 4k, ... slots, cut to the quotient's slots as a
    signed value.  Multiplying back checks it: ArithmeticError if inexact."""
    bits = max(width * (abs(p).bit_length() // width + 1 - k), 0)  # the quotient's
    q, shift = p, width * k
    while shift < bits:
        q += q << shift
        shift <<= 1
    half = 1 << bits >> 1  # at bits 0 nothing is cut, and only p = 0 passes the check
    q = (q + half & 2 * half - 1) - half
    if q - (q << width * k) != p:
        raise ArithmeticError(f"exact_div: not a multiple of 1 - q^{k}")
    return q


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
    q_binomial(k + m, m) * q_power(c_t, m).  A partial sum that no window
    element can be is dropped: one of rank above the window's max_rank,
    since every part has rank >= 1, and one past the largest value over
    the window's elements of a coordinate with a floor (a bead count, a
    ``nonneg`` or ``pos`` extra), since such a coordinate is >= 0 on every
    part and never falls.  A coordinate that is the rank (on ``zpos`` and
    chains, the first) gets no cap of its own.

    A state is one integer, its polynomial at q = 2^B (``kronecker_pack``),
    so each product and sum is one integer operation.  The weight depends
    on a decomposition only through its number of parts, so it is applied
    once per state: times 1 - q^rank(s), one shift and one subtraction,
    then divided by 1 - q^k (``_divide_one_minus_power``).  Slots of B
    bits hold twice the largest sum over k of T_k(1) at a partial sum, T_k
    the state of the same knapsack on plain integers with the factors
    C(k + m, m) * |c_t|^m.  As q-binomials and q_power(|c|, m) are
    nonnegative and q_power(-c, m) is a sign or shift of q_power(c, m), a
    state's absolute coefficients sum to at most T_k(1), and each weight
    step adds each of them at most once into a coefficient of f_s.
    """
    _require_role(c, "c")
    inst = c.instance
    max_rank, row = c.window.max_rank, inst.row
    caps = [(i, max(inst.coords(s)[i] for s in inst.elements(c.window)))
            for i, lo in enumerate(inst.floors)
            if lo is not None and row != tuple(int(j == i) for j in range(len(row)))]

    def knapsack(factor: Callable[[int, int, int], int]) -> dict:
        """partial-sum coordinates -> {number of parts: value}; taking t m
        times onto k parts multiplies by factor(k, m, c_t)."""
        sums: dict[tuple[int, ...], dict[int, int]] = {(0,) * len(row): {0: 1}}
        for t in c.support():
            rt, step, weight = inst._rank(t), inst.coords(t), c.value(t)
            factors: dict[tuple[int, int], int] = {}
            taken: dict[tuple[int, ...], dict[int, int]] = {}  # sums with t in them
            for u, by_count in sums.items():
                top = (max_rank - sum(map(mul, u, row))) // rt  # the most copies of t
                for i, cap in caps:
                    if step[i]:
                        top = min(top, (cap - u[i]) // step[i])
                v = u
                for m in range(1, top + 1):
                    v = tuple(map(add, v, step))  # u + m*t
                    slot = taken.setdefault(v, {})
                    for k, value in by_count.items():
                        f = factors.get((k, m))
                        if f is None:
                            f = factors[k, m] = factor(k, m, weight)
                        slot[k + m] = slot.get(k + m, 0) + value * f
            for v, by_count in taken.items():
                slot = sums.setdefault(v, {})
                for k, value in by_count.items():
                    slot[k] = slot.get(k, 0) + value
        return sums

    unsigned = knapsack(lambda k, m, w: comb(k + m, m) * abs(w) ** m)
    size = slot_size(2 * max(sum(by_count.values()) for by_count in unsigned.values()))
    width = 8 * size
    powers = functools.cache(lambda w, m: kronecker_pack(q_power(w, m).coeffs, size))
    sums = knapsack(lambda k, m, w: kronecker_pack(q_binomial(k + m, m).coeffs, size)
                    * powers(w, m))

    def build(s):
        rk = inst._rank(s)
        total = 0
        for count, terms in sums.get(inst.coords(s), {}).items():
            total += _divide_one_minus_power(terms - (terms << width * rk), count, width)
        return IntPoly(kronecker_unpack(total, size))

    return PolyFamily.from_function(inst, c.window, build)


# -- checkers ------------------------------------------------------------------


def check_qgauss_definition(F: PolyFamily) -> FamilyReport:
    """Exact-division test: Mobius-weighted divisor sum mod [rank(s)]_q.

    The sum is taken modulo q^rank - 1 in one list: f_t(q^d) folded there
    is ``F.folds[t]`` spread to every d-th entry.  Its remainder modulo
    [rank(s)]_q is that list minus its top entry, with no long division.
    """
    folds = F.folds

    def checks():
        for s in folds:
            roots = F.instance._divisor_roots(s)
            rk = roots[-1][0]
            total = [0] * rk
            for d, t in roots:
                mu = 0 if t is None else mobius(d)
                if mu:
                    total[::d] = map(add if mu > 0 else sub, total[::d], root_total(folds, s, t))
            if total.count(total[-1]) == rk:  # the remainder, total - top, is 0
                yield s, rk, None
            else:
                yield s, rk, f"remainder {IntPoly([c - total[-1] for c in total])}"

    return FamilyReport.collect(checks())


def check_root_values(
    inst: _SemigroupBase, items: Iterable, expected: Callable, label: str = ""
) -> FamilyReport:
    """The root-of-unity report: for each (s, (folded, x)) in items, folded
    being some p folded modulo q^rank(s) - 1, and each d dividing rank(s),
    p must take the integer E_d = expected(s, x, d, t) at every primitive
    d-th root of unity, t being the root s/d or None.

    All the divisors of one element are decided by one integer comparison,
    with no division: rank(s) times the fold must equal the Ramanujan vector
    of [(d, E_d), ...], ``ramanujan_classes`` spread to length rank(s) (the
    ``qpoly`` module docstring derives it).  Only an element that fails it
    is checked one d at a time, by the fold's remainder modulo Phi_d, which
    is p's as Phi_d divides q^rank - 1; a failing detail names that value.
    """

    def compare(s, entry, roots):
        folded, x = entry
        rank = roots[-1][0]
        wants = [(d, expected(s, x, d, t)) for d, t in roots]
        by_class, classes = ramanujan_classes(rank, wants)
        if [rank * c for c in folded] == list(map(by_class.__getitem__, classes)):
            return [None] * len(wants)
        p = IntPoly(folded)
        values = [(eval_at_primitive_root(p, d), want) for d, want in wants]
        return [None if v == want else f"value {v.coeffs} != {label}{want}" for v, want in values]

    return check_divisors(inst, items, compare)


def check_qgauss_roots(F: PolyFamily) -> FamilyReport:
    """Root-of-unity test: f_s at a primitive d-th root vs the root-set total.

    For every d dividing rank(s), the evaluation must be the integer
    sum of f_t(1) (its fold's sum) over d-th roots t of s inside the instance.
    """
    at_one = {s: sum(f) for s, f in F.folds.items()}
    return check_root_values(
        F.instance,
        ((s, (f, None)) for s, f in F.folds.items()),
        lambda s, _, d, t: root_total(at_one, s, t),
    )


def equivalent_mod(F: PolyFamily, G: PolyFamily) -> FamilyReport:
    """Entrywise congruence mod q^rank - 1 between families on one window."""
    if F.instance != G.instance or F.window != G.window:
        raise ValueError("equivalent_mod needs families on the same instance/window")
    g = G.folds

    def checks():
        for s, f in F.folds.items():  # f has length rank(s)
            yield s, len(f), None if f == g[s] else f"difference {IntPoly(map(sub, f, g[s]))}"

    return FamilyReport.collect(checks())


# -- fundamental family on free instances --------------------------------------


def fund_family(beads, window: Window) -> PolyFamily:
    """Weighted q-multinomial family on a free ranked instance.

    ``beads`` is a FreeRanked instance or a sequence of (label, length)
    pairs.  The entry at a multiset alpha is [rank]_q / [|alpha|]_q times
    the q-multinomial of the multiplicities; the division is exact.  It
    depends on alpha only through its rank and its sorted multiplicities,
    so it is built once per such class, in a memo that lives for this
    call, and the elements of a class share one (immutable) polynomial.
    """
    inst = beads if isinstance(beads, FreeRanked) else FreeRanked(tuple(beads))
    by_class: dict[tuple, IntPoly] = {}

    def build(alpha):
        key = (inst._rank(alpha), tuple(sorted(alpha)))
        if key not in by_class:
            by_class[key] = _weighted_multinomial(*key)
        return by_class[key]

    return PolyFamily.from_function(inst, window, build)
