"""
Festoons: beads on a labelled cycle
===================================

A festoon of type n tiles the n-cycle with beads; weights say how many
colors each bead type admits.  Counting festoons recovers the "a" row of
the weight sequence, rotation orbits sort themselves by the "b" row, and
the attached polynomial family counts rotation-invariant festoons at
roots of unity.  The census reads the same counts off necklaces without
listing a festoon.
"""

from collections import Counter

from sievekit.gaussseq import SequenceSpec, b_from_a
from sievekit.objects import (
    CyclicFamily,
    festoon_census,
    festoons_colored,
    festoons_repeated,
    fixed_points,
    signed_festoons,
)
from sievekit.qgauss import construct_from_c, verify_csp, verify_lyndon
from sievekit.semigroup import PositiveIntegers, Window

ZPOS = PositiveIntegers()
window = Window(8)

# two bead types: length 2 in three colors, length 3 in two colors
c = SequenceSpec(ZPOS, window, "c", ((2, 3), (3, 2)))
counts = [len(festoons_colored(c, n)) for n in range(1, 9)]
print("festoon counts:", counts)
print("closed form 2^n + 2(-1)^n:", [2**n + 2 * (-1) ** n for n in range(1, 9)])

objs = festoons_colored(c, 6)
sizes = Counter(len({o.rotated(j) for j in range(o.n)}) for o in objs)
print("\nrank 6: orbits by size", {k: m // k for k, m in sorted(sizes.items())})
b = b_from_a(SequenceSpec(ZPOS, window, "a", tuple(enumerate(counts, start=1))))
print("matches the b row:", {t: b.value(t) for t in (1, 2, 3, 6)})
print("fixed under half-turn:", len(fixed_points(objs, 2)))

fam = CyclicFamily.from_generator(ZPOS, window, lambda n: festoons_colored(c, n))
print("fixed-point law:", verify_lyndon(fam.census()).ok)
print("sieving polynomials:", verify_csp(fam.census(), construct_from_c(c)).ok)

# one-type-per-festoon variant: counts become divisor sums
b_ones = SequenceSpec(ZPOS, window, "b", tuple((n, 1) for n in range(1, 9)))
print("\nrepeated-bead counts:", [len(festoons_repeated(b_ones, n)) for n in range(1, 9)])

# negative weights split festoons by sign; the net count survives
p = [1, 2, 3, 5, 7, 11]  # partition numbers
neg = SequenceSpec(ZPOS, Window(6), "c", tuple((n, -p[n - 1]) for n in range(1, 7)))
for n in range(1, 7):
    pos_part, neg_part = signed_festoons(neg, n)
    print(f"n={n}: {len(pos_part)} positive - {len(neg_part)} negative = {len(pos_part) - len(neg_part)}")

# the census splits them the same way, listing no festoon
census = festoon_census("signed-festoons", neg)
print("census (positive, negative):", [fixed[1] for _, _, fixed in census.rows])
