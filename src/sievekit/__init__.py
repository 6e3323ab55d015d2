"""sievekit: exact arithmetic for Gauss-type congruences and cyclic sieving.

The package is organised bottom-up:

- ``arith``: divisor sums, Mobius and totient functions, Ramanujan sums.
- ``config``: the checks every config decode shares, and the size cap.
- ``qpoly``: integer polynomials in q, q-binomials, values at roots of unity.
- ``semigroup``: ranked commutative semigroups and their windows.
- ``gaussseq``: integer sequences indexed by a semigroup and the divisibility
  congruences that tie them together.
- ``qgauss``: polynomial-valued refinements of those sequences, their
  root-of-unity characterisation, and the sieve checks of an object census
  against a family.
- ``transport``: morphisms between instances, and pushforward, pullback
  and products of polynomial families along them.
- ``objects``: words and festoons, cyclic objects that realise the
  sequences combinatorially, and their necklace census.
- ``tubings``: tubings of paths and cycles, lattice-path bijections and their
  sieving polynomials.
- ``cli``: a small command line front end over JSON job configs.

All computation is exact: Python integers, integer polynomials and their
remainders modulo cyclotomic polynomials.  Nothing here uses floating point.
"""

from __future__ import annotations

__version__ = "0.1.0"
