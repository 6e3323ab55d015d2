"""Integer polynomials in q and their cyclotomic residues.

Polynomials are dense, exact and immutable: a tuple of int coefficients in
ascending order of exponent, with no trailing zeros.  The zero polynomial is
the empty tuple and has degree ``None``.  Everything here stays in Z[q];
division is only ever performed when it is exact, and a failed exactness
check raises instead of falling back to floats.

Remainders modulo a cyclotomic polynomial represent evaluations at a
primitive root of unity without ever leaving exact arithmetic.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .arith import divisors


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPoly:
    """A polynomial in q with integer coefficients.

    >>> p = IntPoly((1, 2)) * IntPoly((1, 1))
    >>> p.coeffs
    (1, 3, 2)
    >>> p(10)
    231
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, coef: int, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError(f"monomial: need exp >= 0, got {exp}")
        return cls((0,) * exp + (coef,))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError(f"pow: need n >= 0, got {n}")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def subst_power(self, m: int) -> "IntPoly":
        """Substitute q -> q**m for m >= 1."""
        if m < 1:
            raise ValueError(f"subst_power: need m >= 1, got {m}")
        if not self.coeffs:
            return ZERO
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return IntPoly(out)

    def __divmod__(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division; every reduction step must divide exactly in Z."""
        if not other.coeffs:
            raise ZeroDivisionError("IntPoly division by zero")
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        if len(rem) <= dn:
            return ZERO, self
        quo = [0] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            step, r = divmod(c, lead)
            if r:
                raise ArithmeticError("IntPoly division is not exact over Z")
            quo[i - dn] = step
            for j, oc in enumerate(other.coeffs):
                rem[i - dn + j] -= step * oc
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self / other, raising unless the remainder is zero."""
        quo, rem = divmod(self, other)
        if rem:
            raise ArithmeticError(f"exact_div: {self} is not a multiple of {other}")
        return quo

    def scale_div(self, n: int) -> "IntPoly":
        """Divide every coefficient by the integer n, exactly."""
        out = []
        for c in self.coeffs:
            step, r = divmod(c, n)
            if r:
                raise ArithmeticError(f"scale_div: coefficient {c} not divisible by {n}")
            out.append(step)
        return IntPoly(out)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _coerce(x: "IntPoly | int") -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot treat {type(x).__name__} as IntPoly")


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def eval_at_one(p: IntPoly) -> int:
    """The integer the polynomial q-deforms: p(1)."""
    return sum(p.coeffs)


def reduce_mod_qn_minus_1(p: IntPoly, n: int) -> IntPoly:
    """Canonical representative of p modulo q**n - 1 (degree < n)."""
    if n < 1:
        raise ValueError(f"reduce_mod_qn_minus_1: need n >= 1, got {n}")
    out = [0] * n
    for i, c in enumerate(p.coeffs):
        out[i % n] += c
    return IntPoly(out)


@functools.lru_cache(maxsize=None)
def q_int(n: int) -> IntPoly:
    """The q-integer 1 + q + ... + q**(n-1); zero when n == 0.

    >>> q_int(3).coeffs
    (1, 1, 1)
    """
    if n < 0:
        raise ValueError(f"q_int: need n >= 0, got {n}")
    return IntPoly((1,) * n)


@functools.lru_cache(maxsize=None)
def q_factorial(n: int) -> IntPoly:
    if n < 0:
        raise ValueError(f"q_factorial: need n >= 0, got {n}")
    out = ONE
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out


@functools.lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial coefficient.

    k == 0 gives 1 for every integer n, including negative n: the choice of
    nothing is always the empty product.  This boundary case is relied on by
    counting formulas whose top argument degenerates.

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    >>> q_binomial(-1, 0).coeffs
    (1,)
    """
    if k == 0:
        return ONE
    if k < 0 or n < 0 or k > n:
        return ZERO
    num = q_factorial(n)
    return num.exact_div(q_factorial(k) * q_factorial(n - k))


def q_multinomial(parts: Sequence[int]) -> IntPoly:
    """q-multinomial coefficient for the given nonnegative parts.

    Computed as [sum]_q! divided in turn by each [part]_q!, with every
    division checked to be exact in Z[q].
    """
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"q_multinomial: negative part {p}")
        total += p
    out = q_factorial(total)
    for p in parts:
        out = out.exact_div(q_factorial(p))
    return out


def q_sign(n: int) -> IntPoly:
    """-1 for odd n, q**(n/2) for even n; the q-analogue of (-1)**n."""
    if n < 1:
        raise ValueError(f"q_sign: need n >= 1, got {n}")
    if n % 2:
        return IntPoly((-1,))
    return IntPoly.monomial(1, n // 2)


@functools.lru_cache(maxsize=None)
def _q_exp_nonneg(base: int, n: int) -> IntPoly:
    # base >= 1, n >= 0
    if n == 0 or base == 1:
        return ONE
    out = ZERO
    for j in range(n + 1):
        out = out + q_binomial(n, j) * _q_exp_nonneg(base - 1, n - j)
    return out


def q_power(base: int, n: int) -> IntPoly:
    """q-analogue of the integer power base**n, for n >= 1.

    Satisfies q_power(base, n)(1) == base**n.  Negative bases pick up the
    q-sign of n: q_power(-b, n) == q_sign(n) * q_power(b, n).

    >>> q_power(2, 2).coeffs
    (3, 1)
    >>> q_power(-1, 3).coeffs
    (-1,)
    """
    if n < 1:
        raise ValueError(f"q_power: need n >= 1, got {n}")
    if base == 0:
        return ZERO
    if base > 0:
        return _q_exp_nonneg(base, n)
    return q_sign(n) * _q_exp_nonneg(-base, n)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial.

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError(f"cyclotomic: need d >= 1, got {d}")
    if d == 1:
        return IntPoly((-1, 1))
    num = IntPoly.monomial(1, d) - ONE
    for e in divisors(d):
        if e < d:
            num = num.exact_div(cyclotomic(e))
    return num


def eval_at_primitive_root(p: IntPoly, d: int) -> IntPoly:
    """Exact value of p at a primitive d-th root of unity.

    The value is the canonical remainder of p modulo the d-th cyclotomic
    polynomial, of degree below totient(d); it is an integer exactly when
    that remainder is constant.  The cyclotomic polynomial divides q^d - 1,
    so p is folded modulo q^d - 1 first, which keeps the division short.

    >>> eval_at_primitive_root(q_int(6), 3) == 0
    True
    >>> eval_at_primitive_root(q_int(2), 3).coeffs
    (1, 1)
    """
    return divmod(reduce_mod_qn_minus_1(p, d), cyclotomic(d))[1]
