"""Exact elementary number theory on small integers.

Divisors and prime factorizations come from trial division, and the
multiplicative functions from the factorization; inputs are desk scale, so
no sieves or probabilistic primality tests are needed.  All functions are
pure and safe to call from multiple threads.
"""

from __future__ import annotations

import functools
from math import gcd as _gcd


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n < 1:
        raise ValueError(f"divisors: need n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``n >= 1`` as ((p, exponent), ...), p ascending."""
    if n < 1:
        raise ValueError(f"factorize: need n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def mobius(n: int) -> int:
    """Mobius function: (-1)**k on squarefree n with k prime factors, else 0.

    >>> [mobius(n) for n in range(1, 9)]
    [1, -1, -1, 0, -1, 1, -1, 0]
    """
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def ramanujan_sum(j: int, d: int) -> int:
    """Sum of the j-th powers of the primitive d-th roots of unity.

    By von Sterneck's closed form it is mobius(d/g) * totient(d) /
    totient(d/g), with g = gcd(j, d) and gcd(0, d) = d: the divisor sum
    sum(e * mobius(d // e) for e | g) in closed form.  Specializes to
    mobius(d) at j = 1 and to totient(d) at j = 0.

    >>> ramanujan_sum(2, 6)
    -1
    """
    if d < 1:
        raise ValueError(f"ramanujan_sum: need d >= 1, got {d}")
    m = d // _gcd(j, d)
    return mobius(m) * (totient(d) // totient(m))
