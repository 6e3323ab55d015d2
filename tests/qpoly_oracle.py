"""Congruence-path oracles for the differential tests of ``sievekit.qpoly``.

These are the definitions that building q-analogues from the sparse factors
1 - q^m, Kronecker products of dense operands and the knapsack ``from-c``
construction replaced: dense schoolbook multiplication and long division,
q-binomials and q-multinomials as quotients of q-factorials, cyclotomic
polynomials by dividing q^d - 1 by the smaller ones, q-powers by recursion
on the base, the weighted q-multinomial as [weight]_q times the
q-multinomial over [sum]_q, the definition checker's remainder by long
division by [rank]_q, and again as the divisor sum folded modulo q^rank - 1
minus its top entry (``reduce_mod_q_int``, which the checks on
``PolyFamily.folds`` replaced), the Ramanujan vector as one pass over all n
entries per divisor (which the kernel on gcd classes replaced), the
Ramanujan construction summing one Ramanujan sum per coefficient and
dividing them by the rank (``scale_div``), the from-c construction
listing the decompositions of each element and dividing by [rank]_q once
per decomposition, the from-b construction
summing [rank t]_{q^d} b_t over the roots (which one sum per gcd class
replaced), q -> q^m by spreading the coefficients (``subst_power``, once
``IntPoly.subst_power``), Ramanujan sums as divisor sums (which von
Sterneck's closed form replaced), Riordan rows with D^n recomputed for
every entry, the transport layer's fiber directions read off the
reduced row echelon form over the rationals, and the two chainings of
families as one product on the extended chain (``chain_prefix`` and
``chain_suffix``, which a product of two pullbacks along coordinate
projections replaced).
The dense ``mul``, long division (``divmod_``, ``exact_div``), the
per-decomposition ``construct_from_c`` and the per-root
``construct_from_b`` stay here as the oracles for the library's two
product paths, its one division by 1 - q^k, its knapsack and its class
sums.  The product identity sum c_n x^n = 1 - prod (1 - x^n)^{b_n} on
the positive integers
(``c_from_b_series``) is a route from role "b" to role "c" that shares
nothing with ``c_from_a``.
They borrow from the library only what that rewrite left alone: the
``IntPoly`` container, ``fold``, ``q_int``, the semigroup instances, the
report types, ``divisors``, ``mobius`` and ``NonIntegerWitness``; series
arithmetic is ``series_oracle``'s ``RationalSeries``.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import cycle
from math import comb, factorial, gcd, prod
from typing import Callable, Sequence

import semigroup_oracle
from series_oracle import RationalSeries, lift
from sievekit.arith import divisors, mobius
from sievekit.gaussseq import NonIntegerWitness, SequenceSpec
from sievekit.qgauss import (
    FamilyCheckFailure,
    FamilyReport,
    NonIntegerCoefficient,
    PolyFamily,
)
from sievekit.qpoly import ONE, ZERO, IntPoly, fold, q_int
from sievekit.semigroup import Chain, PositiveIntegers, Window


# -- dense arithmetic -------------------------------------------------------------


def ramanujan_sum(j: int, d: int) -> int:
    """Sum of the j-th powers of the primitive d-th roots of unity, as the
    divisor sum of e * mobius(d // e) over e | gcd(j, d) (gcd(0, d) = d)."""
    return sum(e * mobius(d // e) for e in divisors(gcd(j, d)))


def subst_power(p: IntPoly, m: int) -> IntPoly:
    """p with q -> q**m substituted, for m >= 1."""
    if m < 1:
        raise ValueError(f"subst_power: need m >= 1, got {m}")
    if not p.coeffs:
        return ZERO
    out = [0] * ((len(p.coeffs) - 1) * m + 1)
    for i, c in enumerate(p.coeffs):
        out[i * m] = c
    return IntPoly(out)


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return IntPoly(out)


def divmod_(p: IntPoly, q: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division; every reduction step must divide exactly in Z."""
    if not q.coeffs:
        raise ZeroDivisionError("IntPoly division by zero")
    lead = q.coeffs[-1]
    rem = list(p.coeffs)
    dn = len(q.coeffs) - 1
    if len(rem) <= dn:
        return ZERO, p
    quo = [0] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        step, r = divmod(c, lead)
        if r:
            raise ArithmeticError("IntPoly division is not exact over Z")
        quo[i - dn] = step
        for j, oc in enumerate(q.coeffs):
            rem[i - dn + j] -= step * oc
    return IntPoly(quo), IntPoly(rem)


def exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    quo, rem = divmod_(p, q)
    if rem:
        raise ArithmeticError(f"exact_div: {p} is not a multiple of {q}")
    return quo


# -- q-analogues ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def q_factorial(n: int) -> IntPoly:
    out = ONE
    for k in range(2, n + 1):
        out = mul(out, q_int(k))
    return out


def q_binomial(n: int, k: int) -> IntPoly:
    if k == 0:
        return ONE
    if k < 0 or n < 0 or k > n:
        return ZERO
    return exact_div(q_factorial(n), mul(q_factorial(k), q_factorial(n - k)))


def q_multinomial(parts: Sequence[int]) -> IntPoly:
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"q_multinomial: negative part {p}")
        total += p
    out = q_factorial(total)
    for p in parts:
        out = exact_div(out, q_factorial(p))
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    if d == 1:
        return IntPoly((-1, 1))
    num = IntPoly.monomial(1, d) - ONE
    for e in divisors(d):
        if e < d:
            num = exact_div(num, cyclotomic(e))
    return num


@functools.lru_cache(maxsize=None)
def _q_exp_nonneg(base: int, n: int) -> IntPoly:
    if n == 0 or base == 1:
        return ONE
    out = ZERO
    for j in range(n + 1):
        out = out + mul(q_binomial(n, j), _q_exp_nonneg(base - 1, n - j))
    return out


def q_power(base: int, n: int) -> IntPoly:
    if base == 0:
        return ZERO
    if base > 0:
        return _q_exp_nonneg(base, n)
    sign = IntPoly((-1,)) if n % 2 else IntPoly.monomial(1, n // 2)
    return mul(sign, _q_exp_nonneg(-base, n))


def partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most ``largest``, each a
    descending tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def q_power_by_partitions(base: int, n: int) -> IntPoly:
    """``q_power`` with no recursion on the base, so for any base: [n]_q!
    times the x^n coefficient of e(x)^b, e(x) = sum_m x^m / [m]_q!, is a
    sum over the weak compositions of n into b parts, that is over the
    partitions lam of n with at most b parts, of C(b, len(lam)) times the
    number of orders of lam's parts times the q-multinomial of lam
    (b = |base|, with the q-sign of n when base < 0)."""
    b = abs(base)
    total = ZERO
    for lam in partitions(n):
        if len(lam) <= b:
            orders = factorial(len(lam)) // prod(map(factorial, Counter(lam).values()))
            total = total + mul(q_multinomial(lam), IntPoly((comb(b, len(lam)) * orders,)))
    if base < 0:
        total = mul(IntPoly((-1,)) if n % 2 else IntPoly.monomial(1, n // 2), total)
    return total


def weighted_multinomial(weight: int, mults: list[int]) -> IntPoly:
    return exact_div(mul(q_int(weight), q_multinomial(mults)), q_int(sum(mults)))


# -- congruence path -------------------------------------------------------------------


def reduce_mod_q_int(p: IntPoly, n: int) -> IntPoly:
    """Canonical remainder of p modulo [n]_q (degree < n - 1), for n >= 1.

    [n]_q divides q**n - 1, so p is folded modulo q**n - 1 first.  The fold
    has degree below n, and taking its q**(n-1) coefficient times [n]_q away
    leaves the remainder: the same one long division by [n]_q gives.

    >>> reduce_mod_q_int(IntPoly((0, 0, 0, 5)), 3).coeffs
    (5,)
    """
    folded = fold(p.coeffs, n)
    top = folded[-1]
    return IntPoly([c - top for c in folded])


def check_qgauss_definition(F: PolyFamily) -> FamilyReport:
    inst = F.instance
    lookup = dict(F.polys)
    failures: list[FamilyCheckFailure] = []
    checked = 0
    for s, _ in F.polys:
        rk = semigroup_oracle.rank(inst, s)
        total = ZERO
        for t, d in semigroup_oracle.unit_divisors(inst, s):
            mu = mobius(d)
            if mu:
                total = total + subst_power(lookup[t], d) * mu
        _, rem = divmod_(total, q_int(rk))
        checked += 1
        if rem:
            failures.append(FamilyCheckFailure(s, rk, f"remainder {rem}"))
    return FamilyReport(not failures, checked, tuple(failures))


@functools.lru_cache(maxsize=None)
def _ramanujan_row(d: int) -> tuple[int, ...]:
    """c_d(j) for j < d, one sum per divisor of d."""
    by_gcd = {g: ramanujan_sum(g, d) for g in divisors(d)}
    return tuple(by_gcd[gcd(j, d)] for j in range(d))


def ramanujan_vector(n: int, values) -> list[int]:
    """Entry j is the sum of E * c_d(j mod d) over the pairs (d, E): one
    pass over all n entries per nonzero E, the row of c_d repeated."""
    out = [0] * n
    for d, value in values:
        if value:
            out = [c + value * r for c, r in zip(out, cycle(_ramanujan_row(d)))]
    return out


def scale_div(coeffs: Sequence[int], n: int) -> IntPoly:
    """The polynomial with coefficients ``coeffs`` divided by the integer
    n, exactly, or ArithmeticError."""
    out = []
    for c in coeffs:
        step, r = divmod(c, n)
        if r:
            raise ArithmeticError(f"scale_div: coefficient {c} not divisible by {n}")
        out.append(step)
    return IntPoly(out)


def construct_ramanujan(a: SequenceSpec) -> PolyFamily:
    inst = a.instance

    def build(s):
        rk = semigroup_oracle.rank(inst, s)
        pairs = [(a.value(t), d) for t, d in semigroup_oracle.unit_divisors(inst, s)]
        coeffs = []
        for j in range(rk):
            coeffs.append(sum(at * ramanujan_sum(j, d) for at, d in pairs))
        try:
            return scale_div(coeffs, rk)
        except ArithmeticError:
            bad = next(c for c in coeffs if c % rk)
            raise NonIntegerCoefficient(s, f"{bad}/{rk}") from None

    return PolyFamily.from_function(inst, a.window, build)


def construct_from_c(c: SequenceSpec, power=q_power) -> PolyFamily:
    """The sum over each element's decompositions; ``power`` is the
    q-analogue of c_t^m (``q_power_by_partitions`` for bases the recursive
    ``q_power`` cannot reach)."""
    inst = c.instance
    support = c.support()

    def build(s):
        rk = semigroup_oracle.rank(inst, s)
        total = ZERO
        for parts in inst.decompositions(s, support=support):
            mults = Counter(parts)
            term = weighted_multinomial(rk, sorted(mults.values()))
            for t, m in mults.items():
                term = mul(term, power(c.value(t), m))
                if not term:
                    break
            total = total + term
        return total

    return PolyFamily.from_function(inst, c.window, build)


def construct_from_b(b: SequenceSpec) -> PolyFamily:
    inst = b.instance

    def build(s):
        total = ZERO
        for t, d in semigroup_oracle.unit_divisors(inst, s):
            bt = b.value(t)
            if bt:
                rt = semigroup_oracle.rank(inst, t)
                total = total + mul(subst_power(q_int(rt), d), IntPoly((bt,)))
        return total

    return PolyFamily.from_function(inst, b.window, build)


def riordan_count(D, n: int, k: int) -> int:
    e = n - k
    power = lift(D) ** n
    value = power.coeff(e)
    if value.denominator != 1:
        raise NonIntegerWitness((n, k), value.numerator, value.denominator, "a")
    return int(value)


def riordan_rows(D, max_n: int) -> list[list]:
    rows = []
    for n in range(1, max_n + 1):
        rows.append([n, [riordan_count(D, n, k) for k in range(1, n + 1)]])
    return rows


def product_side(b: SequenceSpec, order: int) -> RationalSeries:
    """prod over n >= 1 of (1 - x^n)^{b_n}, truncated below x^order."""
    result = RationalSeries.from_coeffs((1,), order)
    for n, bn in b.values:
        if n < order and bn:
            factor = RationalSeries.from_coeffs((1,) + (0,) * (n - 1) + (-1,), order)
            result = result * factor**bn
    return result


def c_from_b_series(b: SequenceSpec, order: int) -> SequenceSpec:
    """The "c" role read off 1 - prod (1 - x^n)^{b_n}, below x^order."""
    prod = product_side(b, order)
    out = {n: int(-prod.coeff(n)) for n in range(1, min(order, b.window.max_rank + 1))}
    return SequenceSpec.from_mapping(b.instance, b.window, "c", out)


# -- transport ------------------------------------------------------------------------


def fiber_directions(matrix) -> set[int]:
    """Columns with a nonzero entry in some kernel vector of the matrix,
    by Gauss-Jordan elimination with ``Fraction`` entries."""
    width = len(matrix[0])
    mat = [[Fraction(x) for x in row] for row in matrix]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
    moving: set[int] = set()
    for fc in (c for c in range(width) if c not in pivots):
        moving.add(fc)
        for c, pr in pivots.items():
            if mat[pr][fc]:
                moving.add(c)
    return moving


# -- chainings -------------------------------------------------------------------


def _chain_shapes(F: PolyFamily, G: PolyFamily) -> tuple[Chain, Chain]:
    if not isinstance(F.instance, Chain) or not isinstance(G.instance, Chain):
        raise ValueError("chaining needs two chain instances")
    return F.instance, G.instance


def _chain_product(F: PolyFamily, G: PolyFamily, bounds, g_key: Callable) -> PolyFamily:
    """h at e is F(e minus its last coordinate) * G(g_key(e)), on F's chain
    extended by G's extra, with the given extra bounds."""
    f, g = dict(F.polys), dict(G.polys)
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
