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

The power-series utilities work with integer coefficients only: a series
is a polynomial, or numer(x)/denom(x) with denom(0) = +-1, expanded by an
integer recurrence.  They solve the fixed-point equation C(x) = x*D(C(x)),
whose coefficient sequence is a "c" role for lattice-path counting, and
read Riordan arrays off the powers of D.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType

from .arith import divisors, mobius
from .semigroup import (
    CheckedTable,
    FamilyReport,
    PositiveIntegers,
    Record,
    Window,
    _SemigroupBase,
    decode_element,
    instance_from_config,
    require_keys,
    strict_int,
    window_elements,
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


class SequenceSpec(Record):
    """Integer values on a windowed instance, tagged with a role.

    ``values`` is stored as a tuple of (element, value) pairs in canonical
    element order.  For roles "b" and "c" an element absent from the support
    reads as 0; a role-"a" spec must cover every element it is asked about.
    """

    instance: _SemigroupBase
    window: Window
    role: str
    values: tuple[tuple[object, int], ...]

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


def _require_role(seq: SequenceSpec, role: str) -> None:
    if seq.role != role:
        raise ValueError(f"expected a role-{role} sequence, got role-{seq.role}")


def sequence_from_config(cfg: dict) -> SequenceSpec:
    """Decode {"instance": {...}, "role": "c", "support": [[elem, value], ...]}."""
    keys = {"instance", "role", "support"}
    require_keys(cfg, keys, keys, "sequence config")
    instance, window = instance_from_config(cfg["instance"])
    if window is None:
        raise ValueError("sequence config: instance needs a window")
    elements = window_elements(instance, window)
    role = cfg["role"]  # exactly "a", "b" or "c": SequenceSpec refuses the rest
    have: dict = {}
    for entry in cfg["support"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"sequence config: bad support entry {entry!r}")
        obj, v = entry
        s = decode_element(instance, obj)  # validates s, which the spec then trusts
        if s in have:
            raise ValueError(f"sequence config: duplicate element {s!r}")
        have[s] = strict_int(v, "sequence config: value")
    spec = SequenceSpec(instance, window, role,
                        CheckedTable((s, have[s]) for s in elements if s in have))
    outside = set(have).difference(elements)
    if outside:
        s = min(outside, key=instance._sort_key)
        raise ValueError(f"sequence config: support element {s!r} lies outside the window")
    if role == "a" and len(have) < len(elements):  # the transforms read every element
        s = next(s for s in elements if s not in have)
        raise ValueError(f"sequence config: role-a support misses {s!r}")
    return spec


# -- role transforms ---------------------------------------------------------


def a_from_b(b: SequenceSpec) -> SequenceSpec:
    """a_s = sum of rk(t)*b_t over unit divisors (t, d) of s."""
    _require_role(b, "b")
    inst, win = b.instance, b.window
    bd = b.as_dict()
    out = CheckedTable()
    for s in inst.elements(win):
        out[s] = sum(inst._rank(t) * bd.get(t, 0)
                     for _, t in inst._divisor_roots(s) if t is not None)
    return SequenceSpec(inst, win, "a", out)


def _divisor_sums(a: SequenceSpec, weight: Callable[[int], int]):
    """(s, rk(s), sum of weight(d)*a_t over unit divisors (t, d) of s) for
    each window element s, in canonical order."""
    inst = a.instance
    ad = a.as_dict()
    for s in inst.elements(a.window):
        total = 0
        for d, t in inst._divisor_roots(s):
            if t is None:
                continue
            if t not in ad:
                raise ValueError(f"role-a spec has no value at {t!r}")
            total += weight(d) * ad[t]
        yield s, inst._rank(s), total


def b_from_a(a: SequenceSpec) -> SequenceSpec:
    """Invert a_from_b: rk(s)*b_s = sum of mu(d)*a_t over (t, d) with d*t = s.

    Raises NonIntegerWitness at the first element where the division is not
    exact, which certifies that ``a`` breaks the sieve congruence there.
    """
    _require_role(a, "a")
    out = CheckedTable()
    for s, rk, total in _divisor_sums(a, mobius):
        if total % rk:
            raise NonIntegerWitness(s, total, rk, "b")
        out[s] = total // rk
    return SequenceSpec(a.instance, a.window, "b", out)


def a_from_c(c: SequenceSpec) -> SequenceSpec:
    """a_s = rk(s)*c_s + sum over support t of c_t * a_{s-t}.

    The recursion may pass through elements outside the window (their "a"
    values are intermediate); it terminates because every support element
    has rank >= 1, and runs on a stack of generators, past the recursion limit.
    """
    _require_role(c, "c")
    inst, win = c.instance, c.window
    cd = {s: v for s, v in c.values if v}
    memo: dict = {}

    def rec(s):
        total = inst._rank(s) * cd.get(s, 0)
        for t, ct in cd.items():
            u = inst._subtract(s, t)
            if u is not None:
                if u not in memo:
                    yield u  # valued on the stack before this resumes
                total += ct * memo[u]
        memo[s] = total

    out = CheckedTable()
    for s in inst.elements(win):
        stack = [rec(s)]
        while stack:
            if (u := next(stack[-1], None)) is None:
                stack.pop()
            else:
                stack.append(rec(u))
        out[s] = memo[s]
    return SequenceSpec(inst, win, "a", out)


def c_from_a(a: SequenceSpec) -> SequenceSpec:
    """Invert a_from_c window-by-window in canonical order.

    Solves rk(s)*c_s = a_s - sum of c_t*a_{s-t}, where t runs over window
    elements already processed.  Assumes the sequence's true "c" support
    lies inside the window; needs "a" values at every difference s-t that
    exists, so the role-"a" spec must cover those elements.
    """
    _require_role(a, "a")
    inst, win = a.instance, a.window
    ad = a.as_dict()
    elems = inst.elements(win)
    cs = CheckedTable()
    support: list = []  # (t, c_t) for each t so far with c_t != 0, in order
    for s in elems:
        if s not in ad:
            raise ValueError(f"c_from_a: role-a spec has no value at {s!r}")
        total = ad[s]
        for t, ct in support:
            u = inst._subtract(s, t)
            if u is None:
                continue
            if u not in ad:
                raise ValueError(
                    f"c_from_a: need a value at {u!r} (= {s!r} - {t!r}); "
                    "widen the role-a spec"
                )
            total -= ct * ad[u]
        rk = inst._rank(s)
        if total % rk:
            raise NonIntegerWitness(s, total, rk, "c")
        cs[s] = ct = total // rk
        if ct:
            support.append((s, ct))
    return SequenceSpec(inst, win, "c", cs)


def check_gauss(
    a: SequenceSpec, phi: Callable[[int], int] | None = None
) -> FamilyReport:
    """Verify rk(s) | sum of phi(d)*a_t over unit divisors (t, d) of s.

    Default weight is the Mobius function.  An alternative weight must
    satisfy phi(1) = +-1 and n | sum of phi(d) over d | n throughout the
    window; the Euler totient qualifies, and any qualifying weight yields
    a congruence equivalent to the Mobius one.  A failure at s carries the
    divisor rk(s) and the residue of the sum.
    """
    _require_role(a, "a")
    if phi is None:
        phi = mobius
    else:
        if phi(1) not in (1, -1):
            raise ValueError("check_gauss: weight must have phi(1) = +-1")
        for n in range(1, a.window.max_rank + 1):
            if sum(phi(d) for d in divisors(n)) % n:
                raise ValueError(
                    f"check_gauss: weight fails its divisor-sum hypothesis at {n}"
                )
    return FamilyReport.collect(
        (s, rk, f"residue {total % rk}" if total % rk else None)
        for s, rk, total in _divisor_sums(a, phi)
    )


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


class TruncatedSeries(Record):
    """Formal power series with integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i for every i below ``order``;
    exponents >= order are unknown (truncated).
    """

    coeffs: tuple[int, ...]
    order: int

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "TruncatedSeries":
        """The polynomial with these integer coefficients, cut or padded to
        ``order``."""
        cs = [strict_int(c, "series coefficient") for c in coeffs][:order]
        return cls(tuple(cs + [0] * (order - len(cs))), order)

    @classmethod
    def from_rational(
        cls, numer: Iterable, denom: Iterable, order: int
    ) -> "TruncatedSeries":
        """The series of numer(x)/denom(x), both given as integer coefficient
        lists; the denominator's constant term must be 1 or -1, which makes
        every coefficient an integer.

        >>> D = TruncatedSeries.from_rational([1], [1, -1, -1], 8)
        >>> list(D.coeffs)
        [1, 1, 2, 3, 5, 8, 13, 21]
        >>> TruncatedSeries.from_rational([1], [2, 1], 4)
        Traceback (most recent call last):
        ...
        ValueError: series denominator must start with 1 or -1, got [2, 1]
        """
        denom = [strict_int(d, "series denominator coefficient") for d in denom]
        if not denom or denom[0] not in (1, -1):
            raise ValueError(f"series denominator must start with 1 or -1, got {denom}")
        c = list(cls.from_coeffs(numer, order).coeffs)
        for e in range(order):  # c_e = denom_0 * (numer_e - sum of denom_i * c_(e-i))
            tail = range(1, min(e, len(denom) - 1) + 1)
            c[e] = denom[0] * (c[e] - sum(denom[i] * c[e - i] for i in tail))
        return cls(tuple(c), order)

    def coeff(self, e: int) -> int:
        if e >= self.order:
            raise ValueError(f"coefficient of x^{e} is beyond order {self.order}")
        return self.coeffs[e] if e >= 0 else 0

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        cs = [0] * order
        for i, ci in enumerate(self.coeffs[:order]):
            if ci:
                for j, cj in enumerate(other.coeffs[: order - i]):
                    cs[i + j] += ci * cj
        return TruncatedSeries(tuple(cs), order)


# -- fixed-point solver and Riordan counts ------------------------------------


class NoSolution(ValueError):
    pass


def solve_functional_equation(D: TruncatedSeries, order: int) -> TruncatedSeries:
    """The unique series C with C(x) = x * D(C(x)), known below x^order.

    By Lagrange inversion n * [x^n] C = [x^(n-1)] D^n, the k = 1 entry of
    row n of the Riordan array (``riordan_rows``).  With D(0) = 0 the
    solution is C = 0; otherwise x^n needs D below x^n, so a truncation
    too short for ``order`` raises NoSolution before any coefficient is
    read.
    """
    if D.order < 1:
        raise NoSolution("D carries no known constant term")
    c = [0] * order  # c[i] multiplies x^i
    if order > 1 and D.coeff(0):
        if order > D.order + 1:
            raise NoSolution(
                f"D is truncated at order {D.order}; cannot reach x^{D.order + 1}"
            )
        known = TruncatedSeries(D.coeffs[: order - 1], order - 1)
        for n, power in _powers(known, order - 1):
            # exact: each c_n also follows from an integer recursion in D's coefficients
            c[n] = power.coeff(n - 1) // n
    return TruncatedSeries(tuple(c), order)


def _powers(D: TruncatedSeries, max_n: int):
    """(n, D^n) for n = 1..max_n, each power the previous one times D."""
    power = D
    for n in range(1, max_n + 1):
        if n > 1:
            power = power * D
        yield n, power


def riordan_count(D: TruncatedSeries, n: int, k: int) -> int:
    """The x^(n-k) coefficient of D(x)^n."""
    if n < 1:
        raise ValueError(f"riordan_count: need n >= 1, got {n}")
    for _, power in _powers(D, n):
        pass
    return power.coeff(n - k)


def riordan_rows(D: TruncatedSeries, max_n: int) -> list[list]:
    """[n, [riordan_count(D, n, k) for k = 1..n]] for n = 1..max_n.

    D^n is built once per row, as the previous row's power times D; row n
    reads its coefficients below x^n backwards.
    """
    if max_n > D.order:  # row D.order + 1 reads x^(D.order)
        raise ValueError(f"coefficient of x^{D.order} is beyond order {D.order}")
    return [[n, list(power.coeffs[n - 1 :: -1])] for n, power in _powers(D, max_n)]
