"""Congruence-path oracles for the differential tests of ``sievekit.qpoly``.

These are the definitions that building q-analogues from the sparse factors
1 - q^m replaced: dense schoolbook multiplication and long division,
q-binomials and q-multinomials as quotients of q-factorials, cyclotomic
polynomials by dividing q^d - 1 by the smaller ones, q-powers by recursion
on the base, the weighted q-multinomial as [weight]_q times the
q-multinomial over [sum]_q, the definition checker's remainder by long
division by [rank]_q, the Ramanujan construction summing one Ramanujan sum
per coefficient, the from-c construction dividing by [rank]_q once per
decomposition, and Riordan rows with D^n recomputed for every entry.
They borrow from the library only what that rewrite left alone: the
``IntPoly`` container, ``q_int``, ``subst_power``, the semigroup
instances, the report types, ``divisors``, ``mobius``, ``ramanujan_sum``
and ``TruncatedSeries``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Sequence

from sievekit.arith import divisors, mobius, ramanujan_sum
from sievekit.gaussseq import NonIntegerWitness, SequenceSpec, TruncatedSeries
from sievekit.qgauss import (
    FamilyCheckFailure,
    FamilyReport,
    NonIntegerCoefficient,
    PolyFamily,
)
from sievekit.qpoly import ONE, ZERO, IntPoly, q_int


# -- dense arithmetic -------------------------------------------------------------


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


def weighted_multinomial(weight: int, mults: list[int]) -> IntPoly:
    return exact_div(mul(q_int(weight), q_multinomial(mults)), q_int(sum(mults)))


# -- congruence path -------------------------------------------------------------------


def check_qgauss_definition(F: PolyFamily) -> FamilyReport:
    inst = F.instance
    lookup = F.as_dict()
    failures: list[FamilyCheckFailure] = []
    checked = 0
    for s, _ in F.polys:
        rk = inst.rank(s)
        total = ZERO
        for t, d in inst.unit_divisors(s):
            mu = mobius(d)
            if mu:
                total = total + lookup[t].subst_power(d) * mu
        _, rem = divmod_(total, q_int(rk))
        checked += 1
        if rem:
            failures.append(FamilyCheckFailure(s, rk, f"remainder {rem}"))
    return FamilyReport(not failures, checked, tuple(failures))


def construct_ramanujan(a: SequenceSpec) -> PolyFamily:
    inst = a.instance

    def build(s):
        rk = inst.rank(s)
        pairs = [(a.value(t), d) for t, d in inst.unit_divisors(s)]
        coeffs = []
        for j in range(rk):
            coeffs.append(sum(at * ramanujan_sum(j, d) for at, d in pairs))
        try:
            return IntPoly(coeffs).scale_div(rk)
        except ArithmeticError:
            bad = next(c for c in coeffs if c % rk)
            raise NonIntegerCoefficient(s, f"{bad}/{rk}") from None

    return PolyFamily.from_function(inst, a.window, build)


def construct_from_c(c: SequenceSpec) -> PolyFamily:
    inst = c.instance
    support = c.support()

    def build(s):
        rk = inst.rank(s)
        total = ZERO
        for parts in inst.decompositions(s, support=support):
            mults = Counter(parts)
            term = weighted_multinomial(rk, sorted(mults.values()))
            for t, m in mults.items():
                term = mul(term, q_power(c.value(t), m))
                if not term:
                    break
            total = total + term
        return total

    return PolyFamily.from_function(inst, c.window, build)


def riordan_count(D: TruncatedSeries, n: int, k: int) -> int:
    e = n - k
    power = D ** n
    value = power.coeff(e)
    if value.denominator != 1:
        raise NonIntegerWitness((n, k), value.numerator, value.denominator, "a")
    return int(value)


def riordan_rows(D: TruncatedSeries, max_n: int) -> list[list]:
    rows = []
    for n in range(1, max_n + 1):
        rows.append([n, [riordan_count(D, n, k) for k in range(1, n + 1)]])
    return rows
