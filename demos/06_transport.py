"""
Transporting families between semigroups
========================================

A polynomial family that passes the divisibility checks keeps passing
after pushforward along a surjection, pullback along an injection with
covered image, and pointwise multiplication.  Chained together these
moves turn simple product formulas into the tubing polynomials, with no
enumeration in sight.
"""

from sievekit.qgauss import (
    PolyFamily,
    check_qgauss_definition,
    check_qgauss_roots,
    fund_family,
)
from sievekit.qpoly import ONE, ZERO, q_binomial, q_power
from sievekit.semigroup import (
    Chain,
    FreeRanked,
    PositiveIntegers,
    Window,
)
from sievekit.transport import Morphism, pullback, pushforward
from sievekit.tubings import free_vertex_polynomial, tube_count_polynomial

ZPOS = PositiveIntegers()
N = 5


def qb0(n, k):
    # strict zero outside the triangle, unlike the library binomial
    if n < 0 or k < 0 or k > n:
        return ZERO
    return q_binomial(n, k)


# warm-up: the fundamental family on binary words, regraded by
# (length, count of the second letter), lands on the q-binomial grid
letters = FreeRanked((("a", 1), ("b", 1)))
F = fund_family(letters, Window(2 * N))
phi = Morphism(letters, Chain(ZPOS, "nonneg"), ((1, 1), (0, 1)))
G = pushforward(F, phi, Window(2 * N, ((0, 2 * N),)))
ok = check_qgauss_definition(G).ok and check_qgauss_roots(G).ok
print("pushforward of the word family passes:", ok)
print("G(4, 2) =", G.value((4, 2)).coeffs, "= qb(4, 2)", q_binomial(4, 2).coeffs)

# free-vertex polynomials from a three-parameter product family
INTS2 = Chain(Chain(ZPOS, "ints"), "ints")


def g_free(e):
    n, k, m = e
    if m < 0:
        return ZERO
    # library binomial keeps qb(-1, 0) = 1; that term feeds the diagonal
    two_m = ONE if m == 0 else q_power(2, m)
    return q_binomial(n, k) * q_binomial(k + m - 1, m) * two_m

G = PolyFamily.from_function(
    INTS2, Window(N, ((-2 * N - 2, N + 3), (-1, N + 1))), g_free
)
print("\nthree-parameter source passes:", check_qgauss_roots(G).ok)

# substitute (n, k) -> (n, n-k, n-k), then sum out the third coordinate
sub = Morphism(INTS2, INTS2, ((1, 0, 0), (1, -1, -1), (0, 0, 1)))
pulled = pullback(G, sub, Window(N, ((-1, N + 1), (-1, N + 1))))
proj = Morphism(INTS2, Chain(ZPOS, "ints"), ((1, 0, 0), (0, 1, 0)))
X = pushforward(pulled, proj, Window(N, ((-1, N + 1),)))

agree = all(
    X.value((n, k)) == free_vertex_polynomial(n, k)
    for n in range(1, N + 1)
    for k in range(1, n + 1)
)
print("transported family matches the free-vertex polynomials:", agree)
print("X(4, 1) =", X.value((4, 1)).coeffs)
print("diagonal X(5, 5) =", X.value((5, 5)).coeffs)

# tube counts: here the three-parameter family is NOT itself well-behaved
grid = Chain(Chain(ZPOS, "ints"), "ints")
H = PolyFamily.from_function(
    grid,
    Window(N, ((-1, N + 1), (-N - 1, N + 1))),
    lambda e: qb0(e[0] + e[1] - 1, e[1]) * qb0(e[1] + e[2] - 1, e[1]),
)
report = check_qgauss_roots(H)
print("\nraw tube-count source passes:", report.ok, "witness:", report.failures[0])

# but its restriction to the surface m = n - k is
diag = Morphism(Chain(ZPOS, "ints"), grid, ((1, 0), (0, 1), (1, -1)))
Y = pullback(H, diag, Window(N, ((-1, N + 1),)))
print("restriction passes:", check_qgauss_roots(Y).ok)
match = all(
    Y.value((n, k)) == tube_count_polynomial(n, k)
    for n in range(1, N + 1)
    for k in range(0, n)
)
print("restriction matches the tube-count polynomials:", match)
totals = [sum(Y.value((n, k))(1) for k in range(0, n)) for n in range(1, N + 1)]
print("row totals (central Delannoy):", totals)
