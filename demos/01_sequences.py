"""
Integer sequences and their three roles
=======================================

A sequence passes the divisor-sum congruence test when, for every n, the
Mobius-weighted sum of its values over divisors of n is divisible by n.
Such a sequence can be rewritten in two other coordinate systems: bead
multiplicities ("b") and convolution weights ("c").
"""

from sievekit.gaussseq import (
    a_from_b,
    a_from_c,
    b_from_a,
    c_from_a,
    check_gauss,
    NonIntegerWitness,
)
from sievekit.semigroup import PositiveIntegers, Window
from sievekit.gaussseq import SequenceSpec

ZPOS = PositiveIntegers()
window = Window(10)

# the Lucas-style row: a_1 = 1, a_2 = 3, then each term the sum of the
# previous two
values = {1: 1, 2: 3}
for n in range(3, 11):
    values[n] = values[n - 1] + values[n - 2]
a = SequenceSpec(ZPOS, window, "a", tuple(values.items()))

print("a:", [a.value(n) for n in range(1, 11)])
print("congruence check:", check_gauss(a).ok)

b = b_from_a(a)
c = c_from_a(a)
print("b:", [b.value(n) for n in range(1, 11)])
print("c:", [c.value(n) for n in range(1, 11)])

# both transforms invert exactly
assert a_from_b(b).as_dict() == a.as_dict()
assert a_from_c(c).as_dict() == a.as_dict()
print("roundtrips: exact")

# a row that is not congruent gets a named witness instead of a b-row
bad = SequenceSpec(ZPOS, window, "a", tuple((n, n) for n in range(1, 11)))
report = check_gauss(bad)
print("identity row passes:", report.ok, "- first failure at", report.failures[0].element)
try:
    b_from_a(bad)
except NonIntegerWitness as e:
    print("transform refusal:", e)
