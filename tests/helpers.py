"""Shared oracles and corpus builders.

Oracles here are computed independently of the library (brute-force
divisor sums, the classic partition DP, direct permanence recurrences)
so a library regression cannot hide behind its own code.
"""

from __future__ import annotations

import random

from series_oracle import RationalSeries
from sievekit import cli
from sievekit.gaussseq import SequenceSpec, a_from_matrix_trace
from sievekit.qgauss import PolyFamily
from sievekit.qpoly import IntPoly, ZERO, q_binomial
from sievekit.semigroup import Chain, PositiveIntegers, Window
from sievekit.transport import Morphism, multiply, pullback

ZPOS = PositiveIntegers()


def run_job(command: str, cfg: dict) -> tuple[dict, int]:
    """The (payload, exit code) of one CLI job in process: the command's
    decode, then its run, without ``main``'s reading and rendering."""
    decode, run = cli._COMMANDS[command]
    return run(*decode(cfg))


def sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def partition_numbers(max_n: int) -> list[int]:
    """p(1)..p(max_n) by the coin-counting DP."""
    dp = [1] + [0] * max_n
    for part in range(1, max_n + 1):
        for total in range(part, max_n + 1):
            dp[total] += dp[total - part]
    return dp[1:]


def lucas_numbers(max_n: int) -> list[int]:
    out = [1, 3]
    while len(out) < max_n:
        out.append(out[-1] + out[-2])
    return out[:max_n]


def zpos_spec(role: str, values: dict[int, int], max_rank: int) -> SequenceSpec:
    return SequenceSpec.from_mapping(ZPOS, Window(max_rank), role, values)


def sequence_corpus(max_rank: int) -> list[tuple[str, SequenceSpec]]:
    """Named role-a specs known to satisfy the sieve congruence.

    Lucas numbers, pure powers, the divisor sum and its negation, and a
    handful of seeded random matrix-trace sequences.
    """
    corpus: list[tuple[str, SequenceSpec]] = []
    lucas = lucas_numbers(max_rank)
    corpus.append(
        ("lucas", zpos_spec("a", {n: lucas[n - 1] for n in range(1, max_rank + 1)}, max_rank))
    )
    for lam in range(-3, 4):
        corpus.append(
            (
                f"power({lam})",
                zpos_spec("a", {n: lam**n for n in range(1, max_rank + 1)}, max_rank),
            )
        )
    corpus.append(
        ("sigma", zpos_spec("a", {n: sigma(n) for n in range(1, max_rank + 1)}, max_rank))
    )
    corpus.append(
        ("-sigma", zpos_spec("a", {n: -sigma(n) for n in range(1, max_rank + 1)}, max_rank))
    )
    rng = random.Random(20260817)
    for i in range(5):
        matrix = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        corpus.append((f"trace{i}", a_from_matrix_trace(matrix, Window(max_rank))))
    return corpus


def qb0(n: int, k: int) -> IntPoly:
    """q-binomial extended by zero outside 0 <= k <= n.

    Closed-form tables use this extension; the library's own corner
    conventions differ, so oracle builders must not call q_binomial raw.
    """
    if n < 0 or k < 0 or k > n:
        return ZERO
    return q_binomial(n, k)


def chain_product(F: PolyFamily, G: PolyFamily, through_middle: bool = False) -> PolyFamily:
    """F on base[T] and G chained into one family on base[T][U], as the
    product of two pullbacks along coordinate projections.

    h at (..., t, u) is F(..., t) * G(..., u), G on base[U] (the base is
    shared), or F(..., t) * G(t, u) when ``through_middle``, G on
    zpos[U].  The window takes F's max_rank and extra bounds and G's bound
    on u.
    """
    inst = Chain(F.instance, G.instance.extra)
    n = len(inst.row)
    bounds = F.instance.resolve_bounds(F.window) + G.instance.resolve_bounds(G.window)[-1:]
    window = Window(F.window.max_rank, bounds)

    def projection(target, picks) -> Morphism:
        return Morphism(inst, target, [[int(i == j) for j in range(n)] for i in picks])

    picks = (n - 2, n - 1) if through_middle else (*range(n - 2), n - 1)
    return multiply(pullback(F, projection(F.instance, range(n - 1)), window),
                    pullback(G, projection(G.instance, picks), window))


def strict_path_recurrence(max_n: int) -> list[int]:
    """The strict path counts c_1..c_max_n by first return: a strict path of
    length 2(n - 1) is a point (n = 1) or a sequence of k >= 2 strict
    blocks, so c_n = [x^n] (C^2 + C^3 + ...) for n >= 2."""
    c = [0, 1]
    for n in range(2, max_n + 1):
        known = RationalSeries.from_coeffs(c, n + 1)
        c.append(sum(int((known**k).coeff(n)) for k in range(2, n + 1)))
    return c[1:]


def corrupt(F: PolyFamily, s) -> PolyFamily:
    """Bump the entry at s by q^(rank-1); breaks the congruence at rank >= 2."""
    bump = IntPoly.monomial(1, F.instance.rank(s) - 1)
    pairs = tuple((t, p + bump if t == s else p) for t, p in F.polys)
    return PolyFamily(F.instance, F.window, pairs)


def ordered_decomposition_count(c: dict[int, int], n: int) -> int:
    """a_n = sum over ordered (s_1..s_k) summing to n of s_1*c_{s_1}*...*c_{s_k}."""
    comp_weight = [0] * (n + 1)  # total c-weight of ordered decompositions
    comp_weight[0] = 1
    for m in range(1, n + 1):
        comp_weight[m] = sum(
            c.get(part, 0) * comp_weight[m - part] for part in range(1, m + 1)
        )
    return sum(part * c.get(part, 0) * comp_weight[n - part] for part in range(1, n + 1))


def repeated_bead_count(b: dict[int, int], n: int) -> int:
    """a_n = sum of t*b_t over divisors t of n."""
    return sum(t * b.get(t, 0) for t in range(1, n + 1) if n % t == 0)
