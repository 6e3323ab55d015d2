"""
Major index distributions
=========================

The major index of a word sums the positions where a letter exceeds its
successor.  Over all arrangements of a fixed letter multiset the
distribution is the q-multinomial exactly; over compositions with a fixed
alphabet it matches a closed form modulo q^n - 1, which is all that
root-of-unity counting needs.
"""

import itertools
from collections import Counter

from sievekit.objects import words_with_content
from sievekit.qpoly import ZERO, IntPoly, q_binomial, q_multinomial, reduce_mod_qn_minus_1


def maj(w):
    """The sum of the positions i (from 1) with w_i > w_{i+1}."""
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def maj_polynomial(words):
    counts = Counter(map(maj, words))
    return IntPoly([counts[e] for e in range(max(counts) + 1)])


def compositions(n, k, letters):
    """The length-n words over the letters that sum to k."""
    return [w for w in itertools.product(letters, repeat=n) if sum(w) == k]


print("maj('aba') =", maj("aba"))
print("maj((2, 1, 2, 1)) =", maj((2, 1, 2, 1)))

ws = words_with_content({"a": 2, "b": 2})
print("\nwords with content aabb:", ["".join(w.slots) for w in ws])
print("maj distribution:", maj_polynomial(w.slots for w in ws).coeffs)
print("q-multinomial [4; 2, 2]:", q_multinomial([2, 2]).coeffs)

# compositions of k into n nonnegative parts: the distribution is only
# congruent to the q-binomial, not equal to it
n, k = 4, 5
objs = compositions(n, k, range(k + 1))
got = maj_polynomial(objs)
expected = q_binomial(n + k - 1, k)
print(f"\n{len(objs)} compositions of {k} into {n} parts >= 0")
print("maj distribution: ", got.coeffs)
print("q-binomial [8; 5]:", expected.coeffs)
print("equal:", got == expected)
print("congruent mod q^4 - 1:", reduce_mod_qn_minus_1(got - expected, n) == ZERO)

# same story on the alphabet {-1, 0, 1}
objs = compositions(4, 0, (-1, 0, 1))
total = ZERO
for i in range(0, 3):
    total = total + q_binomial(4, i) * q_binomial(4 - i, i)
print(f"\n{len(objs)} signed ternary words of length 4 summing to 0")
print("congruent to the binomial sum mod q^4 - 1:",
      reduce_mod_qn_minus_1(maj_polynomial(objs) - total, 4) == ZERO)
