"""Exact failure lists of the checkers that report through ``FamilyReport``.

Every family the CLI builds passes its checks, so no CLI job prints a
non-empty ``failures`` list; these pins are what guard the order, the
divisors and the detail strings of each checker's failures.
"""

from __future__ import annotations

from helpers import corrupt, zpos_spec
from sievekit.arith import totient
from sievekit.gaussseq import check_gauss
from sievekit.objects import festoon_census
from sievekit.qgauss import (
    PolyFamily,
    check_qgauss_definition,
    check_qgauss_roots,
    construct_from_c,
    equivalent_mod,
    verify_csp,
)
from sievekit.qpoly import q_power
from sievekit.semigroup import Chain, PositiveIntegers, Window
from sievekit.transport import Morphism, check_morphism

ZPOS = PositiveIntegers()


def triples(rep) -> list[tuple]:
    assert rep.ok == (not rep.failures)
    return [(f.element, f.divisor, f.detail) for f in rep.failures]


def powers_of_two() -> PolyFamily:
    return PolyFamily.from_function(ZPOS, Window(4), lambda n: q_power(2, n))


def test_gauss_check_failures():
    # a_n = n^2 is not Gauss; the Mobius and the totient weight reach the
    # same verdict through different sums, hence different residues
    a = zpos_spec("a", {n: n * n for n in range(1, 7)}, 6)
    rep = check_gauss(a)
    assert rep.checked == 6
    assert triples(rep) == [(2, 2, "residue 1"), (3, 3, "residue 2"), (5, 5, "residue 4")]
    assert triples(check_gauss(a, phi=totient)) == [
        (2, 2, "residue 1"),
        (3, 3, "residue 2"),
        (4, 4, "residue 2"),
        (5, 5, "residue 4"),
        (6, 6, "residue 1"),
    ]


def test_definition_check_failures():
    rep = check_qgauss_definition(corrupt(powers_of_two(), 2))
    assert rep.checked == 4
    assert triples(rep) == [(2, 2, "remainder -1"), (4, 4, "remainder -q^2")]


def test_roots_check_failures():
    rep = check_qgauss_roots(corrupt(powers_of_two(), 2))
    assert rep.checked == 8
    assert triples(rep) == [(2, 2, "value (1,) != 2"), (4, 2, "value (4,) != 5")]


def test_equivalence_failures():
    F = powers_of_two()
    rep = equivalent_mod(F, corrupt(F, 3))
    assert rep.checked == 4
    assert triples(rep) == [(3, 3, "difference -q^2")]


def test_csp_failures():
    c = zpos_spec("c", {1: 1, 2: 1}, 4)
    rep = verify_csp(festoon_census("festoons-colored", c), corrupt(construct_from_c(c), 2))
    assert rep.checked == 8
    assert triples(rep) == [
        (2, 1, "value (4,) != fixed count 3"),
        (2, 2, "value () != fixed count 1"),
    ]


def test_morphism_failures_in_element_order():
    # (n, x) -> n + 2x: some images leave the positive integers, ranks 3
    # miss their images' ranks, and (2, 1) has no root by 2 while 4 has one
    m = Morphism(Chain(ZPOS, "ints"), ZPOS, [(1, 2)])
    rep = check_morphism(m, "rank-multiplying", Window(3, ((-1, 1),)))
    assert rep.checked == 21
    invalid = "apply_morphism: image ({},) of {} is not a valid element"
    assert triples(rep) == [
        ((1, -1), None, "image of (1, -1): " + invalid.format(-1, (1, -1))),
        ((2, -1), None, "image of (2, -1): " + invalid.format(0, (2, -1))),
        ((2, 1), 2, "root sets of (2, 1) and its image differ at d=2"),
        ((3, -1), None, "rank 3 of (3, -1) does not divide image rank 1"),
        ((3, 1), None, "rank 3 of (3, 1) does not divide image rank 5"),
    ]
    rep = check_morphism(m, "rank-dividing", Window(2, ((0, 1),)))
    assert triples(rep) == [
        ((1, 1), None, "rank 3 of image of (1, 1) does not divide rank 1"),
        ((2, 1), None, "rank 4 of image of (2, 1) does not divide rank 2"),
    ]
