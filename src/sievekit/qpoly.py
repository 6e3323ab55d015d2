"""Integer polynomials in q and their cyclotomic residues.

Polynomials are dense, exact and immutable: a tuple of int coefficients in
ascending order of exponent, with no trailing zeros.  The zero polynomial is
the empty tuple and has degree ``None``.  Everything here stays in Z[q],
and a failed exactness check raises instead of falling back to floats.

The q-analogues are products and quotients of the two-term factors
1 - q^m: binomials, multinomials and cyclotomic polynomials directly, and
q-powers as sums of such products.  So the one exact division is by one
factor 1 - q^k (``divide_one_minus_power``): a stride-k prefix sum on the
Kronecker-packed dividend, a few shifted adds, checked by multiplying back.

Products take one of two paths.  When either operand has fewer than
``KRONECKER_MIN_TERMS`` nonzero terms (every factor 1 - q^m has two), the
schoolbook loop runs over the sparser operand's terms.  When both are
denser, each operand is packed into one Python int and the product is one
bignum multiplication (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 44, 2009).  ``qgauss`` packs the whole from-c knapsack the same way.

Remainders modulo a cyclotomic polynomial represent evaluations at a
primitive root of unity without ever leaving exact arithmetic.  Deciding
whether p takes an integer value E_d at every primitive d-th root of unity,
for every d dividing n at once, needs no such division.  Over Q,
Z[q]/(q^n - 1) splits into the fields Q[q]/Phi_d for d | n, so a class
modulo q^n - 1 is fixed by its values at the n-th roots of unity.  By the
discrete Fourier transform the one polynomial of degree below n with the
value E_d at the primitive d-th roots is

    (1/n) * sum over j < n of (sum over d | n of E_d * c_d(j)) * q^j,

c_d(j) being the Ramanujan sum, the sum of the j-th powers of the
primitive d-th roots.  So p takes those values exactly when n times p
folded modulo q^n - 1 (``fold``) equals the integer vector of the inner
sums, the Ramanujan vector, entry for entry: one integer comparison,
which is a proof.  Read the other way, the vector divided by n is the
canonical low-degree family of the Ramanujan-sum construction.  As c_d(j)
depends on j only through gcd(j, d) = gcd(gcd(j, n), d), the vector takes
one value per class {j : gcd(j, n) = g} (``ramanujan_classes``).
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterable, Sequence
from math import comb, gcd
from operator import add

from .arith import divisors, mobius, ramanujan_sum

# __mul__ packs its operands into ints when both have at least this many
# nonzero terms.  Timing every product of the congruence benchmark jobs on
# both paths put the crossover between 4 and 8 terms, with the total within
# 4% across that range; from-c at rank 60, with larger coefficients, ran
# fastest at 8.
KRONECKER_MIN_TERMS = 8

# struct formats of the Kronecker slots that fit in 8 bytes, by size in bytes
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as a tuple without trailing zeros: one scan back to
    the last nonzero coefficient, then one slice."""
    out = tuple(coeffs)
    end = len(out)
    while end and not out[end - 1]:
        end -= 1
    return out[:end]


def slot_size(bound: int) -> int:
    """Bytes per Kronecker slot for coefficients of magnitude at most
    ``bound``, with a sign bit: a struct item size when at most 8."""
    size = (bound.bit_length() + 8) // 8
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _halves(n: int, size: int) -> int:
    """Half a slot's range in each of n slots, packed."""
    return int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * n, "little")


def kronecker_pack(coeffs: Sequence[int], size: int) -> int:
    """The polynomial at q = 2^(8 * size), its coefficients below half a
    slot's range in magnitude: packed shifted up by that half as bytes, and
    the shift taken back off.  Packed values add and multiply as the
    polynomials do; only a value to unpack needs coefficients that fit."""
    half, fmt = 1 << 8 * size - 1, _SLOT_FORMATS.get(size)
    shifted = [c + half for c in coeffs]
    if fmt:
        raw = struct.pack(f"<{len(shifted)}{fmt}", *shifted)
    else:
        raw = b"".join([c.to_bytes(size, "little") for c in shifted])
    return int.from_bytes(raw, "little") - _halves(len(shifted), size)


def kronecker_unpack(value: int, size: int) -> tuple[int, ...]:
    """The coefficients, trimmed, of a packed polynomial whose coefficients
    fit the slots.  Its lead fixes the number of slots from the value's bit
    length; with half a slot's range added to each, no slot is negative or
    carries, so the bytes split into the shifted coefficients."""
    if not value:
        return ()
    n = abs(value).bit_length() // (8 * size) + 1
    half, fmt = 1 << 8 * size - 1, _SLOT_FORMATS.get(size)
    raw = (value + _halves(n, size)).to_bytes(n * size, "little")
    if fmt:
        slots = struct.unpack(f"<{n}{fmt}", raw)
    else:
        slots = [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]
    return tuple([c - half for c in slots])


def divide_one_minus_power(p: int, k: int, width: int) -> int:
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
        raise ArithmeticError(f"divide_one_minus_power: not a multiple of 1 - q^{k}")
    return q


def div_one_minus_q_pow(p: IntPoly, k: int) -> IntPoly:
    """p / (1 - q^k) for k >= 1, exactly: ``divide_one_minus_power`` on
    slots that hold sum |p|.  That bounds each quotient coefficient and each
    residue sum of p mod k, so a passing check proves that 1 - q^k divides p."""
    if k < 1:
        raise ValueError(f"div_one_minus_q_pow: need k >= 1, got {k}")
    size = slot_size(sum(map(abs, p.coeffs)))
    return IntPoly._trimmed(kronecker_unpack(
        divide_one_minus_power(kronecker_pack(p.coeffs, size), k, 8 * size), size))


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

    @classmethod
    def _trimmed(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        """Wrap a tuple that is known to end in a nonzero coefficient."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, coef: int, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError(f"monomial: need exp >= 0, got {exp}")
        return cls((0,) * exp + (coef,))

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
        if len(a) > len(b):  # the longer operand's lead survives
            return IntPoly._trimmed((*map(add, a, b), *a[len(b):]))
        return IntPoly(map(add, a, b))

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        """Product.  When both operands have at least KRONECKER_MIN_TERMS
        nonzero terms it is one integer product of the packed operands
        (``kronecker_pack``).  Otherwise the outer loop runs over the nonzero
        terms of the sparser operand, so multiplying by 1 - q^m costs two
        passes.  The lead coefficient is the product of the two leads, so
        the result has no trailing zero to trim."""
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        terms, other_terms = len(a) - a.count(0), len(b) - b.count(0)
        if terms > other_terms:
            a, b, terms = b, a, other_terms
        if terms >= KRONECKER_MIN_TERMS:
            size = slot_size(max(map(abs, a)) * max(map(abs, b)) * terms)  # bounds a * b
            return IntPoly._trimmed(
                kronecker_unpack(kronecker_pack(a, size) * kronecker_pack(b, size), size))
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + width] = [x + c * y for x, y in zip(out[i:i + width], b)]
        return IntPoly._trimmed(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __divmod__(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division by a divisor whose lead is 1 or -1 (any other is a
        ValueError).  Each step clears one coefficient from the divisor's
        degree up, touching only the divisor's nonzero terms, and the
        remainder is read off the ones below it."""
        if not other.coeffs:
            raise ZeroDivisionError("IntPoly division by zero")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError(f"IntPoly division needs a lead of 1 or -1, got {lead}")
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        if len(rem) <= dn:
            return ZERO, self
        lower = [(j - dn, c) for j, c in enumerate(other.coeffs[:-1]) if c]
        quo = [0] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            step = c * lead
            quo[i - dn] = step
            rem[i] = 0
            for j, oc in lower:
                rem[i + j] -= step * oc
        return IntPoly._trimmed(tuple(quo)), IntPoly(rem[:dn])

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


def fold(coeffs: Sequence[int], n: int) -> list[int]:
    """The coefficients folded modulo q**n - 1, for n >= 1: a list of
    length n whose entry j sums the coefficients at exponents congruent to
    j mod n.  One slice add per chunk of n coefficients, or one strided
    sum per residue when there are fewer residues than chunks.

    >>> fold((1, 2, 3, 4, 5), 2)
    [9, 6]
    >>> fold((1, 2, 3), 5)
    [1, 2, 3, 0, 0]
    """
    if n < 1:
        raise ValueError(f"fold: need n >= 1, got {n}")
    length = len(coeffs)
    if n * n < length:
        return [sum(coeffs[j::n]) for j in range(n)]
    out = list(coeffs[:n])
    out += [0] * (n - len(out))
    for i in range(n, length, n):
        chunk = coeffs[i:i + n]
        out[:len(chunk)] = map(add, out, chunk)
    return out


def reduce_mod_qn_minus_1(p: IntPoly, n: int) -> IntPoly:
    """Canonical representative of p modulo q**n - 1 (degree < n)."""
    return IntPoly(fold(p.coeffs, n))


def one_minus_q_pow(m: int) -> IntPoly:
    """The two-term factor 1 - q**m, for m >= 0 (zero when m == 0).

    >>> one_minus_q_pow(3).coeffs
    (1, 0, 0, -1)
    """
    if m < 0:
        raise ValueError(f"one_minus_q_pow: need m >= 0, got {m}")
    return IntPoly((1,) + (0,) * (m - 1) + (-1,)) if m else ZERO


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
def _q_binomial_row(a: int) -> list[IntPoly]:
    """The row [a choose 0], [a + 1 choose 1], ... of ``q_binomial`` for
    one a, as far as it has been asked for; ``q_binomial`` extends it in
    place."""
    return [ONE]


@functools.lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial coefficient.

    With a = max(k, n - k) and m = min(k, n - k), it is entry m of the
    row [a + j choose j], j = 0, 1, ..., and each entry is built from the
    one before as [a + j choose j] = [a + j - 1 choose j - 1] *
    (1 - q^(a+j)) / (1 - q^j), a sparse product and a checked stride sum.
    The row of each a is kept and extended only past its last entry, so
    asking for [a + j choose j] for j = 1..m builds each once, with no
    recursion.

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
    a, m = max(k, n - k), min(k, n - k)
    row = _q_binomial_row(a)
    for j in range(len(row), m + 1):
        row.append(div_one_minus_q_pow(row[-1] * one_minus_q_pow(a + j), j))
    return row[m]


def q_multinomial(parts: Sequence[int]) -> IntPoly:
    """q-multinomial coefficient for the given nonnegative parts.

    Computed as the product of the q-binomials [p_1 + ... + p_j choose p_j]
    over the parts in order.
    """
    out = ONE
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"q_multinomial: negative part {p}")
        total += p
        if p:
            out = out * q_binomial(total, p)
    return out


def q_sign(n: int) -> IntPoly:
    """-1 for odd n, q**(n/2) for even n; the q-analogue of (-1)**n."""
    if n < 1:
        raise ValueError(f"q_sign: need n >= 1, got {n}")
    if n % 2:
        return IntPoly((-1,))
    return IntPoly.monomial(1, n // 2)


@functools.lru_cache(maxsize=None)
def _q_exp_row(base: int) -> list[IntPoly]:
    """The row P_0, P_1, ... of ``_q_exp_nonneg`` for one base, as far as
    it has been asked for; ``_q_exp_nonneg`` extends it in place."""
    return [ONE]


@functools.lru_cache(maxsize=None)
def _q_exp_nonneg(base: int, n: int) -> IntPoly:
    """q-analogue of base**n for base >= 1 and n >= 0.

    It is the sum of [n choose j]_q times the same analogue of
    (base - 1)**(n - j), so sum_m P_m x^m / [m]_q! is the base-th power of
    the q-exponential e(x) = sum_m x^m / [m]_q!.  From e(qx) = (1 + (q - 1)x)
    e(x), the row P_0 = 1, P_1, ..., P_n of one base obeys

        P_m = sum over i = 1..min(base, m) of
              C(base, i) * (q^(m-i+1) - 1) ... (q^(m-1) - 1) * P_(m-i),

    which is built here iteratively, with no recursion on base or n.  The
    row of each base is kept and extended only past its last entry, so
    asking for n = 1..N builds each P_m once.
    """
    row = _q_exp_row(base)
    for m in range(len(row), n + 1):
        total = ZERO
        factor = ONE  # (1 - q^(m-i+1)) ... (1 - q^(m-1))
        for i in range(1, min(base, m) + 1):
            if i > 1:
                factor = factor * one_minus_q_pow(m - i + 1)
            # (q^k - 1) = -(1 - q^k): i - 1 factors give the sign
            weight = comb(base, i) if i % 2 else -comb(base, i)
            total = total + factor * row[m - i] * weight
        row.append(total)
    return row[n]


def q_power(base: int, n: int) -> IntPoly:
    """q-analogue of the integer power base**n, for n >= 1.

    Satisfies q_power(base, n)(1) == base**n.  Negative bases pick up the
    q-sign of n: q_power(-b, n) == q_sign(n) * q_power(b, n).  The cost
    grows with n and min(|base|, n), not with |base| itself.

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

    For d > 1 it is the product of (1 - q^e)^mobius(d/e) over the divisors
    e of d: the factors with exponent 1 are multiplied out first, then
    those with exponent -1 divided out, each by a checked stride sum.

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError(f"cyclotomic: need d >= 1, got {d}")
    if d == 1:
        return IntPoly((-1, 1))
    out = ONE
    divide = []
    for e in divisors(d):
        mu = mobius(d // e)
        if mu == 1:
            out = out * one_minus_q_pow(e)
        elif mu == -1:
            divide.append(e)
    for e in divide:
        out = div_one_minus_q_pow(out, e)
    return out


@functools.lru_cache(maxsize=None)
def gcd_classes(n: int) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...]]:
    """For each d | n the row c_d(g) over the divisors g of n, ascending,
    and for each j < n the index of gcd(j, n) among them (gcd(0, n) = n)."""
    ds = divisors(n)
    index = {g: k for k, g in enumerate(ds)}
    return ({d: tuple(ramanujan_sum(g, d) for g in ds) for d in ds},
            tuple(index[gcd(j, n)] for j in range(n)))


def ramanujan_classes(n: int, values: Iterable[tuple[int, int]]) -> tuple[list[int], tuple]:
    """The Ramanujan vector of length n (see the module docstring), whose
    entry j is the sum of E * c_d(j) over the pairs (d, E) in ``values``,
    each d dividing n, as one sum per gcd class (per divisor of n, in
    ascending order) and the classes: entry j is by_class[classes[j]].

    >>> by_class, classes = ramanujan_classes(4, [(1, 6), (2, 2), (4, 0)])
    >>> [by_class[k] for k in classes]
    [8, 4, 8, 4]
    >>> [4 * c for c in fold(q_binomial(4, 2).coeffs, 4)]
    [8, 4, 8, 4]
    >>> by_class, classes = ramanujan_classes(6, [(2, -3), (6, 5)])
    >>> eval_at_primitive_root(IntPoly([by_class[k] for k in classes]), 6).coeffs
    (30,)
    """
    sums, classes = gcd_classes(n)
    rows = [(sums[d], value) for d, value in values if value]
    return [sum(row[k] * value for row, value in rows) for k in range(len(sums))], classes


def eval_at_primitive_root(p: IntPoly, d: int) -> IntPoly:
    """Exact value of p at a primitive d-th root of unity.

    The value is the canonical remainder of p modulo the d-th cyclotomic
    polynomial, of degree below totient(d); it is an integer exactly when
    that remainder is constant.  The cyclotomic polynomial divides q^d - 1,
    so p is folded modulo q^d - 1 first, which keeps the division short.
    The checkers decide their comparisons with the Ramanujan vector and
    call this only on an element that fails there.

    >>> eval_at_primitive_root(q_int(6), 3) == 0
    True
    >>> eval_at_primitive_root(q_int(2), 3).coeffs
    (1, 1)
    """
    return divmod(reduce_mod_qn_minus_1(p, d), cyclotomic(d))[1]
