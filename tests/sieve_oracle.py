"""Verifier-loop oracles for the differential tests.

These are the definitions that ``semigroup.check_divisors``, its root-total
helper and ``qpoly.eval_at_primitive_root`` replaced: a residue class of
Z[q] modulo a cyclotomic polynomial, and one hand-written ``(s, d | rank
s)`` loop per checker.  They borrow from the library only what that
rewrite left alone: polynomial arithmetic, ``cyclotomic``, ``divisors``,
``fixed_points`` and the report types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from sievekit.arith import divisors
from sievekit.objects import fixed_points
from sievekit.qgauss import FamilyCheckFailure, FamilyReport
from sievekit.qpoly import IntPoly, cyclotomic


@dataclass(frozen=True)
class CyclotomicResidue:
    """An element of Z[q] / (d-th cyclotomic polynomial), stored reduced."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"CyclotomicResidue: need order >= 1, got {self.order}")
        reduced = divmod(IntPoly(self.coeffs), cyclotomic(self.order))[1]
        object.__setattr__(self, "coeffs", reduced.coeffs)

    @classmethod
    def from_poly(cls, p: IntPoly, order: int) -> "CyclotomicResidue":
        return cls(order, p.coeffs)

    @classmethod
    def from_int(cls, n: int, order: int) -> "CyclotomicResidue":
        return cls(order, (n,))

    def equals_int(self, n: int) -> bool:
        return self == CyclotomicResidue.from_int(n, self.order)


def eval_at_primitive_root(p: IntPoly, d: int) -> CyclotomicResidue:
    return CyclotomicResidue.from_poly(p, d)


def _canonical(objs: Iterable) -> tuple:
    return tuple(sorted(set(objs)))


def _report(checked: int, failures: list) -> FamilyReport:
    return FamilyReport(not failures, checked, tuple(failures))


def check_qgauss_roots(F) -> FamilyReport:
    inst = F.instance
    lookup = F.as_dict()
    failures = []
    checked = 0
    for s, p in F.polys:
        rk = inst.rank(s)
        for d in divisors(rk):
            expected = 0
            t = inst.nth_root(s, d)
            if t is not None:
                if t not in lookup:
                    raise ValueError(
                        f"family window does not cover the root {t!r} of {s!r}"
                    )
                expected += sum(lookup[t].coeffs)
            got = eval_at_primitive_root(p, d)
            checked += 1
            if not got.equals_int(expected):
                failures.append(
                    FamilyCheckFailure(s, d, f"value {got.coeffs} != {expected}")
                )
    return _report(checked, failures)


def verify_lyndon(family) -> FamilyReport:
    inst = family.instance
    lookup = dict(family.sets)
    failures = []
    checked = 0
    for s, objs in family.sets:
        n = inst.rank(s)
        for d in divisors(n):
            got = len(fixed_points(objs, d)) if objs else 0
            expected = 0
            t = inst.nth_root(s, d)
            if t is not None:
                if t not in lookup:
                    raise ValueError(
                        f"family window does not cover the root {t!r} of {s!r}"
                    )
                expected += len(lookup[t])
            checked += 1
            if got != expected:
                failures.append(FamilyCheckFailure(s, d, f"fixed {got} != {expected}"))
    return _report(checked, failures)


def verify_csp(family, F) -> FamilyReport:
    if family.instance != F.instance or family.window != F.window:
        raise ValueError("verify_csp needs matching instance and window")
    inst = family.instance
    failures = []
    checked = 0
    for s, objs in family.sets:
        poly = F.value(s)
        for d in divisors(inst.rank(s)):
            got = eval_at_primitive_root(poly, d)
            expected = len(fixed_points(objs, d)) if objs else 0
            checked += 1
            if not got.equals_int(expected):
                failures.append(
                    FamilyCheckFailure(
                        s, d, f"value {got.coeffs} != fixed count {expected}"
                    )
                )
    return _report(checked, failures)


def verify_signed_csp(family, F) -> FamilyReport:
    if family.instance != F.instance or family.window != F.window:
        raise ValueError("verify_signed_csp needs matching instance and window")
    inst = family.instance
    failures = []
    checked = 0
    for s, objs in family.sets:
        n = inst.rank(s)
        if n % 2 == 0:
            continue
        poly = F.value(s)
        pos = [o for o in objs if o.sign > 0]
        neg = [o for o in objs if o.sign < 0]
        for d in divisors(n):
            got = eval_at_primitive_root(poly, d)
            expected = (len(fixed_points(pos, d)) if pos else 0) - (
                len(fixed_points(neg, d)) if neg else 0
            )
            checked += 1
            if not got.equals_int(expected):
                failures.append(
                    FamilyCheckFailure(
                        s, d, f"value {got.coeffs} != signed fixed count {expected}"
                    )
                )
    return _report(checked, failures)
