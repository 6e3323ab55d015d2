"""
Polynomial families over a sequence
===================================

Every congruent integer row lifts to a family of integer polynomials
f_n(q) with f_n(1) = a_n, congruent in the q-analogue sense: the
Mobius-weighted divisor sum at n is divisible by 1 + q + ... + q^(n-1).
Three constructions produce such a lift, and they agree modulo q^n - 1.
"""

from sievekit.gaussseq import b_from_a, c_from_a
from sievekit.qgauss import (
    check_qgauss_definition,
    check_qgauss_roots,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    equivalent_mod,
)
from sievekit.semigroup import PositiveIntegers, Window
from sievekit.gaussseq import SequenceSpec

window = Window(8)
a = SequenceSpec(
    PositiveIntegers(), window, "a", tuple((n, 2**n) for n in range(1, 9))
)

ram = construct_ramanujan(a)
via_b = construct_from_b(b_from_a(a))
via_c = construct_from_c(c_from_a(a))

print("powers of two, three lifts of the same row:")
for n in range(1, 5):
    print(f"  n={n}:", ram.value(n).coeffs, via_b.value(n).coeffs, via_c.value(n).coeffs)

# two independent checkers: exact polynomial division, and evaluation at
# every root of unity of every divisor order
for name, F in (("ramanujan", ram), ("from-b", via_b), ("from-c", via_c)):
    d = check_qgauss_definition(F)
    r = check_qgauss_roots(F)
    print(f"{name}: definition ok={d.ok} ({d.checked} checks), roots ok={r.ok} ({r.checked})")

print("pairwise congruent mod q^n - 1:", equivalent_mod(ram, via_b).ok and equivalent_mod(ram, via_c).ok)

# corrupt one coefficient and both checkers name the damage
from sievekit.qgauss import PolyFamily
from sievekit.qpoly import IntPoly

bump = IntPoly.monomial(1, 3)
pairs = tuple((s, p + bump if s == 4 else p) for s, p in ram.polys)
bad = PolyFamily(ram.instance, ram.window, pairs)
rep = check_qgauss_roots(bad)
print("after corrupting n=4:", rep.ok, "- witness:", rep.failures[0])
