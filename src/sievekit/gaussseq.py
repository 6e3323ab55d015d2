"""Integer sequences on ranked semigroups and their sieve transforms.

A sequence here is a ``SequenceSpec``: values attached to the elements of a
windowed instance, tagged with one of three roles that name equivalent
parametrisations of the same data:

- role "a": the sequence itself, e.g. traces of matrix powers;
- role "b": divisor-sum weights, a_s = sum of rk(t)*b_t over unit divisors
  t of s (for counting sequences these are orbit counts);
- role "c": convolution weights, a_s = rk(s)*c_s + sum of c_t*a_{s-t}.

A role-"a" sequence admits integer "b" and "c" companions exactly when it
satisfies the sieve congruence: rk(s) divides sum of mu(s/t)*a_t over unit
divisors.  The transforms below convert between roles; the two inverse
directions divide by rk(s) at each step and raise ``NonIntegerWitness`` at
the first element (canonical order) where the division is not exact, which
is precisely a congruence failure.

The power-series utilities connect roles "b" and "c" on the positive integers
through the product identity  sum c_n x^n = 1 - prod (1-x^n)^{b_n},  and
solve the fixed-point equation C(x) = x*D(C(x)) whose coefficient sequence
is a "c" role for lattice-path counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .arith import divisors, mobius
from .semigroup import (
    PositiveIntegers,
    Window,
    _SemigroupBase,
    decode_element,
    instance_from_config,
    require_keys,
    strict_int,
    window_table,
)

ROLES = ("a", "b", "c")


class NonIntegerWitness(ValueError):
    """Raised when a sieve division is not exact.

    Carries the first failing element in canonical window order, so error
    messages are reproducible.
    """

    def __init__(self, element, numerator: int, modulus: int, role: str):
        self.element = element
        self.numerator = numerator
        self.modulus = modulus
        self.role = role
        super().__init__(
            f"role-{role} value at {element} is not an integer: "
            f"{numerator}/{modulus}"
        )


@dataclass(frozen=True)
class SequenceSpec:
    """Integer values on a windowed instance, tagged with a role.

    ``values`` is stored as a tuple of (element, value) pairs in canonical
    element order.  For roles "b" and "c" an element absent from the support
    reads as 0; a role-"a" spec must cover every element it is asked about.
    """

    instance: _SemigroupBase
    window: Window
    role: str
    values: tuple[tuple[object, int], ...]
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"SequenceSpec: unknown role {self.role!r}")
        table = window_table(self.instance, self.values, "SequenceSpec")
        object.__setattr__(self, "values", tuple(table.items()))
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_mapping(
        cls,
        instance: _SemigroupBase,
        window: Window,
        role: str,
        mapping: Mapping,
    ) -> "SequenceSpec":
        return cls(instance, window, role, tuple(mapping.items()))

    def as_dict(self) -> Mapping:
        return MappingProxyType(self._table)

    def value(self, s) -> int:
        try:
            return self._table[s]
        except KeyError:
            if self.role == "a":
                raise ValueError(f"role-a spec has no value at {s!r}") from None
            return 0

    def support(self) -> tuple:
        return tuple(s for s, v in self.values if v)

    def row(self) -> list[int]:
        """Values in canonical window order (role "a" must be total)."""
        return [self.value(s) for s in self.instance.elements(self.window)]


def sequence_from_config(cfg: dict) -> SequenceSpec:
    """Decode {"instance": {...}, "role": "c", "support": [[elem, value], ...]}."""
    keys = {"instance", "role", "support"}
    require_keys(cfg, keys, keys, "sequence config")
    instance, window = instance_from_config(cfg["instance"])
    if window is None:
        raise ValueError("sequence config: instance needs a window")
    instance.check_window(window)
    role = cfg["role"]  # exactly "a", "b" or "c": SequenceSpec refuses the rest
    pairs = []
    for entry in cfg["support"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"sequence config: bad support entry {entry!r}")
        obj, v = entry
        pairs.append(
            (decode_element(instance, obj), strict_int(v, "sequence config: value"))
        )
    spec = SequenceSpec(instance, window, role, tuple(pairs))
    if role == "a":  # the transforms and constructions read every element
        have = spec.as_dict()
        for s in instance.elements(window):
            if s not in have:
                raise ValueError(f"sequence config: role-a support misses {s!r}")
    return spec


@dataclass(frozen=True)
class GaussReport:
    ok: bool
    checked: int
    failures: tuple[tuple[object, int], ...]  # (element, offending residue)

    def witness(self):
        return self.failures[0][0] if self.failures else None


# -- role transforms ---------------------------------------------------------


def a_from_b(b: SequenceSpec) -> SequenceSpec:
    """a_s = sum of rk(t)*b_t over unit divisors (t, d) of s."""
    if b.role != "b":
        raise ValueError(f"a_from_b: expected role b, got {b.role!r}")
    inst, win = b.instance, b.window
    bd = b.as_dict()
    out = {}
    for s in inst.elements(win):
        out[s] = sum(inst.rank(t) * bd.get(t, 0) for t, _ in inst.unit_divisors(s))
    return SequenceSpec.from_mapping(inst, win, "a", out)


def b_from_a(a: SequenceSpec) -> SequenceSpec:
    """Invert a_from_b: rk(s)*b_s = sum of mu(d)*a_t over (t, d) with d*t = s.

    Raises NonIntegerWitness at the first element where the division is not
    exact, which certifies that ``a`` breaks the sieve congruence there.
    """
    if a.role != "a":
        raise ValueError(f"b_from_a: expected role a, got {a.role!r}")
    inst, win = a.instance, a.window
    ad = a.as_dict()
    out = {}
    for s in inst.elements(win):
        total = 0
        for t, d in inst.unit_divisors(s):
            if t not in ad:
                raise ValueError(f"b_from_a: role-a spec has no value at {t!r}")
            total += mobius(d) * ad[t]
        rk = inst.rank(s)
        if total % rk:
            raise NonIntegerWitness(s, total, rk, "b")
        out[s] = total // rk
    return SequenceSpec.from_mapping(inst, win, "b", out)


def a_from_c(c: SequenceSpec) -> SequenceSpec:
    """a_s = rk(s)*c_s + sum over support t of c_t * a_{s-t}.

    The recursion may pass through elements outside the window (their "a"
    values are intermediate); it terminates because every support element
    has rank >= 1.
    """
    if c.role != "c":
        raise ValueError(f"a_from_c: expected role c, got {c.role!r}")
    inst, win = c.instance, c.window
    cd = {s: v for s, v in c.values if v}
    memo: dict = {}

    def rec(s) -> int:
        if s in memo:
            return memo[s]
        total = inst.rank(s) * cd.get(s, 0)
        for t, ct in cd.items():
            for u in inst.difference_set(s, t):
                total += ct * rec(u)
        memo[s] = total
        return total

    out = {s: rec(s) for s in inst.elements(win)}
    return SequenceSpec.from_mapping(inst, win, "a", out)


def c_from_a(a: SequenceSpec) -> SequenceSpec:
    """Invert a_from_c window-by-window in canonical order.

    Solves rk(s)*c_s = a_s - sum of c_t*a_{s-t}, where t runs over window
    elements already processed.  Assumes the sequence's true "c" support
    lies inside the window; needs "a" values at every difference s-t that
    exists, so the role-"a" spec must cover those elements.
    """
    if a.role != "a":
        raise ValueError(f"c_from_a: expected role a, got {a.role!r}")
    inst, win = a.instance, a.window
    ad = a.as_dict()
    elems = inst.elements(win)
    cs: dict = {}
    for s in elems:
        if s not in ad:
            raise ValueError(f"c_from_a: role-a spec has no value at {s!r}")
        total = ad[s]
        for t, ct in cs.items():
            if not ct:
                continue
            for u in inst.difference_set(s, t):
                if u not in ad:
                    raise ValueError(
                        f"c_from_a: need a value at {u!r} (= {s!r} - {t!r}); "
                        "widen the role-a spec"
                    )
                total -= ct * ad[u]
        rk = inst.rank(s)
        if total % rk:
            raise NonIntegerWitness(s, total, rk, "c")
        cs[s] = total // rk
    return SequenceSpec.from_mapping(inst, win, "c", cs)


def check_gauss(
    a: SequenceSpec, phi: Callable[[int], int] | None = None
) -> GaussReport:
    """Verify rk(s) | sum of phi(d)*a_t over unit divisors (t, d) of s.

    Default weight is the Mobius function.  An alternative weight must
    satisfy phi(1) = +-1 and n | sum of phi(d) over d | n throughout the
    window; the Euler totient qualifies, and any qualifying weight yields
    a congruence equivalent to the Mobius one.
    """
    if a.role != "a":
        raise ValueError(f"check_gauss: expected role a, got {a.role!r}")
    inst, win = a.instance, a.window
    if phi is None:
        phi = mobius
    else:
        if phi(1) not in (1, -1):
            raise ValueError("check_gauss: weight must have phi(1) = +-1")
        for n in range(1, win.max_rank + 1):
            if sum(phi(d) for d in divisors(n)) % n:
                raise ValueError(
                    f"check_gauss: weight fails its divisor-sum hypothesis at {n}"
                )
    ad = a.as_dict()
    failures = []
    checked = 0
    for s in inst.elements(win):
        total = 0
        for t, d in inst.unit_divisors(s):
            if t not in ad:
                raise ValueError(f"check_gauss: role-a spec has no value at {t!r}")
            total += phi(d) * ad[t]
        rk = inst.rank(s)
        checked += 1
        if total % rk:
            failures.append((s, total % rk))
    return GaussReport(ok=not failures, checked=checked, failures=tuple(failures))


# -- matrix traces -----------------------------------------------------------


def a_from_matrix_trace(
    matrix: Iterable[Iterable[int]], window: Window
) -> SequenceSpec:
    """a_n = trace of the n-th power of an integer matrix; always congruent."""
    rows = [list(r) for r in matrix]
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("a_from_matrix_trace: matrix must be square")
    inst = PositiveIntegers()
    out = {}
    power = [row[:] for row in rows]
    for n in range(1, window.max_rank + 1):
        if n > 1:
            power = [
                [sum(power[i][l] * rows[l][j] for l in range(k)) for j in range(k)]
                for i in range(k)
            ]
        out[n] = sum(power[i][i] for i in range(k))
    return SequenceSpec.from_mapping(inst, window, "a", out)


# -- truncated power series -------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i for every i below ``order``;
    exponents >= order are unknown (truncated).
    """

    coeffs: tuple[Fraction, ...]
    order: int

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "TruncatedSeries":
        """The polynomial with these coefficients, cut or padded to ``order``."""
        cs = [Fraction(c) for c in coeffs][:order]
        return cls(tuple(cs + [Fraction(0)] * (order - len(cs))), order)

    @classmethod
    def from_rational(
        cls, numer: Iterable, denom: Iterable, order: int
    ) -> "TruncatedSeries":
        """The series of numer(x)/denom(x), both given as coefficient lists;
        the denominator needs a nonzero constant term.

        >>> D = TruncatedSeries.from_rational([1], [1, -1, -1], 8)
        >>> [int(c) for c in D.coeffs]
        [1, 1, 2, 3, 5, 8, 13, 21]
        >>> TruncatedSeries.from_rational([1], [0, 1], 4)
        Traceback (most recent call last):
        ...
        ValueError: from_rational: the denominator needs a nonzero constant term
        """
        denom = tuple(denom)
        if not denom or not denom[0]:
            raise ValueError("from_rational: the denominator needs a nonzero constant term")
        return cls.from_coeffs(numer, order) * cls.from_coeffs(denom, order).inverse()

    def coeff(self, e: int) -> Fraction:
        if e >= self.order:
            raise ValueError(f"coefficient of x^{e} is beyond order {self.order}")
        return self.coeffs[e] if e >= 0 else Fraction(0)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        cs = [Fraction(0)] * order
        for i, ci in enumerate(self.coeffs[:order]):
            if ci:
                for j, cj in enumerate(other.coeffs[: order - i]):
                    cs[i + j] += ci * cj
        return TruncatedSeries(tuple(cs), order)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.inverse() ** -n
        result = TruncatedSeries.from_coeffs((1,), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroDivisionError("inverse of a series with no constant term")
        lead = self.coeffs[0]
        inv = [1 / lead]
        for e in range(1, self.order):
            inv.append(-sum(self.coeffs[i] * inv[e - i] for i in range(1, e + 1)) / lead)
        return TruncatedSeries(tuple(inv), self.order)


# -- b <-> c via the product identity ----------------------------------------


def _require_zpos(spec: SequenceSpec, op: str) -> None:
    if not isinstance(spec.instance, PositiveIntegers):
        raise ValueError(f"{op}: only defined on the positive integers")


def product_side(b: SequenceSpec, order: int) -> TruncatedSeries:
    """prod over n >= 1 of (1 - x^n)^{b_n}, truncated below x^order."""
    _require_zpos(b, "product_side")
    if order > b.window.max_rank + 1:
        raise ValueError("product_side: order exceeds the window's knowledge")
    result = TruncatedSeries.from_coeffs((1,), order)
    for n, bn in b.values:
        if n >= order or bn == 0:
            continue
        factor = TruncatedSeries.from_coeffs((1,) + (0,) * (n - 1) + (-1,), order)
        result = result * (factor ** bn)
    return result


def c_from_b_series(b: SequenceSpec, order: int) -> SequenceSpec:
    """Read the "c" role off 1 - prod (1 - x^n)^{b_n}."""
    _require_zpos(b, "c_from_b_series")
    prod = product_side(b, order)
    out = {}
    for n in range(1, min(order, b.window.max_rank + 1)):
        cn = -prod.coeff(n)
        if cn.denominator != 1:
            raise NonIntegerWitness(n, cn.numerator, cn.denominator, "c")
        out[n] = int(cn)
    return SequenceSpec.from_mapping(b.instance, b.window, "c", out)


def b_from_c_series(c: SequenceSpec, order: int) -> SequenceSpec:
    """Recover the "b" role from "c" and cross-check the product identity."""
    _require_zpos(c, "b_from_c_series")
    b = b_from_a(a_from_c(c))
    back = c_from_b_series(b, order)
    cd, bd = c.as_dict(), back.as_dict()
    for n in range(1, min(order, c.window.max_rank + 1)):
        if cd.get(n, 0) != bd.get(n, 0):
            raise AssertionError(
                f"product identity violated at {n}: {cd.get(n, 0)} vs {bd.get(n, 0)}"
            )
    return b


# -- fixed-point solver and Riordan counts ------------------------------------


class NoSolution(ValueError):
    pass


def solve_functional_equation(D: TruncatedSeries, order: int) -> TruncatedSeries:
    """The unique series C with C(x) = x * D(C(x)), known below x^order.

    Solved coefficient by coefficient: the x^n coefficient of x*D(C) only
    involves C-coefficients below n.
    """
    if D.order < 1:
        raise NoSolution("D carries no known constant term")
    c = [Fraction(0)] * order  # c[i] multiplies x^i
    for n in range(1, order):
        m = n - 1  # extract [x^m] D(C); C^j cannot reach x^m once j > m
        total = D.coeff(0) if m == 0 else Fraction(0)
        cj = [Fraction(0)] * (m + 1)
        cj[0] = Fraction(1)
        for j in range(1, m + 1):
            nxt = [Fraction(0)] * (m + 1)
            for i, w in enumerate(cj):
                if w == 0:
                    continue
                for e in range(1, m + 1 - i):
                    if c[e]:
                        nxt[i + e] += w * c[e]
            cj = nxt
            if not any(cj):
                break
            if cj[m] == 0:
                continue
            if j >= D.order:
                raise NoSolution(
                    f"D is truncated at order {D.order}; cannot reach x^{n}"
                )
            total += D.coeff(j) * cj[m]
        c[n] = total
    for n in range(1, order):
        if c[n].denominator != 1:
            raise NonIntegerWitness(n, c[n].numerator, c[n].denominator, "c")
    return TruncatedSeries(tuple(c), order)


def riordan_count(D: TruncatedSeries, n: int, k: int) -> int:
    """The x^(n-k) coefficient of D(x)^n, exact."""
    if n < 1:
        raise ValueError(f"riordan_count: need n >= 1, got {n}")
    return _riordan_entry(D ** n, n, k)


def riordan_rows(D: TruncatedSeries, max_n: int) -> list[list]:
    """[n, [riordan_count(D, n, k) for k = 1..n]] for n = 1..max_n.

    D^n is built once per row, as the previous row's power times D.
    """
    rows = []
    power = D
    for n in range(1, max_n + 1):
        if n > 1:
            power = power * D
        rows.append([n, [_riordan_entry(power, n, k) for k in range(1, n + 1)]])
    return rows


def _riordan_entry(power: TruncatedSeries, n: int, k: int) -> int:
    """The x^(n-k) coefficient of power = D^n, which must be an integer."""
    value = power.coeff(n - k)
    if value.denominator != 1:
        raise NonIntegerWitness((n, k), value.numerator, value.denominator, "a")
    return int(value)
