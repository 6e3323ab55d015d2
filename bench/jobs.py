"""Seeded job lists for the benchmark workloads, and their correctness gate.

Everything here is independent of sievekit: the generator writes CLI
configs, and the expected outputs (rows, counts, totals, witnesses) are
computed with plain integer arithmetic, so a library regression cannot
hide behind its own code.

Sizes are fixed per workload so that every seed does comparable work; the
seed picks the matrices, weights, supports, planted elements and job order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, factorial, prod

WORKLOADS = ("congruence", "sieving", "tubings")

# congruence sizes
ROW_RANK = 120  # seq / ramanujan / from-b rows
FROM_C_RANK = 26
FUND_RANK = 13
GRID_RANK = 22
RIORDAN_MAX_N = 16
# sieving sizes
WORDS_RANK = 7
CONTENT_RANK = 9
COLORED_RANKS = (10, 12)
REPEATED_RANK = 36
SIGNED_RANK = 9
# tubings sizes
BIJECTION_INTERVAL_N = 7
BIJECTION_CYCLE_N = 6
TUBINGS_RANK = 6
COLORED_TUBINGS_RANK = 5
TUBING_COLORS = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation with its expected exit code and invariant.

    ``expect`` holds what the generator computed: ``{"kind": ..., ...}``.
    """

    name: str
    command: str
    config: dict
    code: int
    expect: dict


# -- plain integer oracles -----------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def trace_row(matrix: list[list[int]], max_rank: int) -> list[int]:
    """trace(M^n) for n = 1..max_rank."""
    k = len(matrix)
    power = [row[:] for row in matrix]
    out = []
    for n in range(1, max_rank + 1):
        if n > 1:
            power = [
                [sum(power[i][l] * matrix[l][j] for l in range(k)) for j in range(k)]
                for i in range(k)
            ]
        out.append(sum(power[i][i] for i in range(k)))
    return out


def a_from_c_row(c: dict[int, int], max_rank: int) -> list[int]:
    """a_n = n c_n + sum_t c_t a_{n-t}, the counting row of a role-c sequence."""
    a = [0] * (max_rank + 1)
    for n in range(1, max_rank + 1):
        a[n] = n * c.get(n, 0) + sum(v * a[n - t] for t, v in c.items() if t < n)
    return a[1:]


def a_from_b_row(b: dict[int, int], max_rank: int) -> list[int]:
    """a_n = sum of t b_t over divisors t of n."""
    return [sum(t * b.get(t, 0) for t in divisors(n)) for n in range(1, max_rank + 1)]


def multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def series_coeffs(numer: list[int], denom: list[int], order: int) -> list[int]:
    """Power-series coefficients of numer/denom below x^order (denom[0] == 1)."""
    out = []
    for e in range(order):
        v = numer[e] if e < len(numer) else 0
        v -= sum(denom[i] * out[e - i] for i in range(1, min(e, len(denom) - 1) + 1))
        out.append(v)
    return out


def riordan_rows(numer: list[int], denom: list[int], max_n: int) -> list:
    """[n, [x^(n-k) of D^n for k = 1..n]] for D = numer/denom."""
    d = series_coeffs(numer, denom, max_n)
    rows = []
    for n in range(1, max_n + 1):
        power = [1] + [0] * (max_n - 1)
        for _ in range(n):
            power = [
                sum(power[i] * d[e - i] for i in range(e + 1)) for e in range(max_n)
            ]
        rows.append([n, [power[n - k] for k in range(1, n + 1)]])
    return rows


def large_schroder(n: int) -> int:
    """Large Schroder number S_n: 1, 2, 6, 22, 90, 394, ..."""
    return sum(comb(n + k, n - k) * comb(2 * k, k) // (k + 1) for k in range(n + 1))


def central_delannoy(n: int) -> int:
    """Central Delannoy number D(n): 1, 3, 13, 63, 321, ..."""
    return sum(comb(n, k) * comb(n + k, k) for k in range(n + 1))


def _cbin(n: int, k: int) -> int:
    """Binomial with the k == 0 -> 1 corner for every n, else 0 outside range."""
    if k == 0:
        return 1
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def tubing_counts(grading: str, max_rank: int, colors: int = 1) -> list:
    """Counts of improper cycle tubings per window element, in window order."""
    if grading == "all":
        return [
            [n, sum(_cbin(n + k - 1, k) * _cbin(n - 1, k) for k in range(n))]
            for n in range(1, max_rank + 1)
        ]
    out = []
    for n in range(1, max_rank + 1):
        if grading == "tubes":
            for k in range(0, max_rank + 1):
                count = _cbin(n + k - 1, k) * _cbin(n - 1, k) * colors ** k
                out.append([[n, k], count])
        else:  # free-vertex grading
            for k in range(1, max_rank + 1):
                count = sum(
                    _cbin(n, m + k) * _cbin(n - k - 1, m) * 2 ** m
                    for m in range(0, max(n - k, 0) + 1)
                )
                out.append([[n, k], count])
    return out


def part_multisets(support: dict[int, int], n: int) -> list[list[int]]:
    """Multisets of support parts summing to n, as sorted part lists."""
    parts = sorted(support)
    out = []

    def rec(i: int, left: int, acc: list) -> None:
        if left == 0:
            out.append(list(acc))
            return
        for j in range(i, len(parts)):
            if parts[j] <= left:
                acc.append(parts[j])
                rec(j, left - parts[j], acc)
                acc.pop()

    rec(0, n, [])
    return out


# -- config builders -----------------------------------------------------------


def zpos_sequence(role: str, values: dict[int, int], max_rank: int) -> dict:
    return {
        "instance": {"kind": "zpos", "window": {"max_rank": max_rank}},
        "role": role,
        "support": [[n, v] for n, v in sorted(values.items())],
    }


def _random_matrix(rng: random.Random, k: int, max_rank: int) -> list[list[int]]:
    """A k x k matrix in [-2, 2] whose trace row grows (no degenerate rows)."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        if abs(trace_row(m, max_rank)[-1]) > 2 ** 60:
            return m


def _row_values(row: list[int]) -> dict[int, int]:
    # Role-a supports list every window element, zeros included.
    return {n: v for n, v in enumerate(row, start=1)}


def _congruence(rng: random.Random) -> list[Job]:
    jobs = []
    rows = {}
    for k in (2, 3):
        m = _random_matrix(rng, k, ROW_RANK)
        rows[k] = trace_row(m, ROW_RANK)
        seq = zpos_sequence("a", _row_values(rows[k]), ROW_RANK)
        jobs.append(Job(f"seq-trace{k}", "seq", {"sequence": seq}, 0,
                        {"kind": "seq", "a": rows[k]}))
    jobs.append(Job("ramanujan-trace3", "qgauss",
                    {"construction": "ramanujan", "sequence": jobs[-1].config["sequence"]},
                    0, {"kind": "family_at_one", "values": rows[3]}))
    # Planted negative controls: bump one entry off its residue class.
    for k, command in ((3, "seq"), (2, "qgauss")):
        m = rng.randint(ROW_RANK // 2, ROW_RANK // 2 + 20)
        row = list(rows[k])
        row[m - 1] += 1
        seq = zpos_sequence("a", _row_values(row), ROW_RANK)
        cfg = {"sequence": seq}
        if command == "qgauss":
            cfg = {"construction": "ramanujan", "sequence": seq}
        jobs.append(Job(f"planted-{command}", command, cfg, 2,
                        {"kind": "witness", "element": m}))
    # from-c: parts 1, 2, 3, 5 and one large part, with fixed
    # weight magnitudes and random signs, so every seed does equal work.
    parts = (1, 2, 3, 5, rng.randint(FROM_C_RANK - 8, FROM_C_RANK))
    c = {t: rng.choice((-1, 1)) * size for t, size in zip(parts, (1, 2, 1, 2, 1))}
    jobs.append(Job("from-c", "qgauss",
                    {"construction": "from-c",
                     "sequence": zpos_sequence("c", c, FROM_C_RANK)}, 0,
                    {"kind": "family_at_one",
                     "values": a_from_c_row(c, FROM_C_RANK)}))
    b = {n: rng.randint(-3, 3) for n in range(1, ROW_RANK + 1)}
    jobs.append(Job("from-b", "qgauss",
                    {"construction": "from-b",
                     "sequence": zpos_sequence("b", b, ROW_RANK)}, 0,
                    {"kind": "family_at_one", "values": a_from_b_row(b, ROW_RANK)}))
    lengths = [1, 2, 3]
    rng.shuffle(lengths)
    labels = rng.sample("abcdefgh", 3)
    beads = [[label, length] for label, length in zip(labels, lengths)]
    jobs.append(Job("fund", "qgauss",
                    {"construction": "fund", "beads": beads,
                     "window": {"max_rank": FUND_RANK}}, 0,
                    {"kind": "fund_at_one", "beads": beads, "max_rank": FUND_RANK}))
    jobs.append(Job("q-binomial-grid", "qgauss",
                    {"closed_form": {"name": "q-binomial",
                                     "window": {"max_rank": GRID_RANK,
                                                "extra_bounds": [[0, GRID_RANK]]}}},
                    0, {"kind": "binomial_at_one"}))
    # D = (1 + u x + v x^2) / (1 - x): never a polynomial, always integral.
    numer = [1, rng.choice((-1, 1, 2)), rng.choice((-1, 1))]
    denom = [1, -1]
    jobs.append(Job("riordan", "riordan",
                    {"series": {"numer": numer, "denom": denom},
                     "max_n": RIORDAN_MAX_N}, 0,
                    {"kind": "riordan",
                     "rows": riordan_rows(numer, denom, RIORDAN_MAX_N)}))
    return jobs


def _sieving(rng: random.Random) -> list[Job]:
    jobs = []
    labels = rng.sample("abcdefgh", 4)
    beads = [[label, 1] for label in sorted(labels)]
    jobs.append(Job("words", "csp",
                    {"family": "words", "beads": beads,
                     "window": {"max_rank": WORDS_RANK}}, 0,
                    {"kind": "content_counts", "beads": beads, "festoon": False,
                     "max_rank": WORDS_RANK}))
    lengths = [2, 3, 4]
    rng.shuffle(lengths)
    beads = [[label, length] for label, length in zip(rng.sample("pqrstu", 3), lengths)]
    beads.append([rng.choice("vwxyz"), 1])
    jobs.append(Job("festoons-content", "csp",
                    {"family": "festoons-content", "beads": beads,
                     "window": {"max_rank": CONTENT_RANK}}, 0,
                    {"kind": "content_counts", "beads": beads, "festoon": True,
                     "max_rank": CONTENT_RANK}))
    for rank in COLORED_RANKS:
        if rank <= 10:  # a part 2, or two colours, would cost up to 40% more work
            c = {1: 1, 3: 1, rng.randint(4, rank): 1}
        else:  # no part 1: an all-ones decomposition would permute 12 beads
            c = {2: 1, rng.choice((3, 5)): rng.choice((1, 2)), rng.randint(6, rank): 2}
        jobs.append(Job(f"festoons-colored-{rank}", "csp",
                        {"family": "festoons-colored",
                         "c": zpos_sequence("c", c, rank)}, 0,
                        {"kind": "counts", "values": a_from_c_row(c, rank)}))
    b = {t: rng.randint(0, 3) for t in range(1, REPEATED_RANK + 1)}
    jobs.append(Job("festoons-repeated", "csp",
                    {"family": "festoons-repeated",
                     "b": zpos_sequence("b", b, REPEATED_RANK)}, 0,
                    {"kind": "counts", "values": a_from_b_row(b, REPEATED_RANK)}))
    c = {1: rng.choice((-1, 1)), 2: rng.choice((-1, 1)), 3: -1, rng.choice((4, 5)): 1}
    jobs.append(Job("signed-festoons", "csp",
                    {"family": "signed-festoons",
                     "c": zpos_sequence("c", c, SIGNED_RANK)}, 0,
                    {"kind": "counts",
                     "values": a_from_c_row({t: abs(v) for t, v in c.items()},
                                            SIGNED_RANK)}))
    rng.shuffle(jobs)
    return jobs


def _tubings(rng: random.Random) -> list[Job]:
    jobs = [
        Job("bijection-interval", "bijection",
            {"kind": "interval", "max_n": BIJECTION_INTERVAL_N}, 0,
            {"kind": "bijection",
             "per_n": [[n, large_schroder(n)]
                       for n in range(1, BIJECTION_INTERVAL_N + 1)]}),
        Job("bijection-cycle", "bijection",
            {"kind": "cycle", "max_n": BIJECTION_CYCLE_N}, 0,
            {"kind": "bijection",
             "per_n": [[n, central_delannoy(n - 1)]
                       for n in range(1, BIJECTION_CYCLE_N + 1)]}),
    ]
    for grading in ("free", "tubes", "all"):
        jobs.append(Job(f"tubings-{grading}", "csp",
                        {"family": "tubings-cycle", "max_rank": TUBINGS_RANK,
                         "grading": grading}, 0,
                        {"kind": "csp_counts",
                         "counts": tubing_counts(grading, TUBINGS_RANK)}))
    jobs.append(Job("tubings-colored", "csp",
                    {"family": "tubings-cycle", "max_rank": COLORED_TUBINGS_RANK,
                     "grading": "tubes", "colors": TUBING_COLORS}, 0,
                    {"kind": "csp_counts",
                     "counts": tubing_counts("tubes", COLORED_TUBINGS_RANK,
                                             TUBING_COLORS)}))
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"congruence": _congruence, "sieving": _sieving, "tubings": _tubings}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


# -- correctness gate ----------------------------------------------------------


def _content_count(beads: list, alpha: dict, festoon: bool) -> int:
    mults = [alpha.get(label, 0) for label, _ in beads]
    count = multinomial(mults)
    if festoon:
        rank = sum(m * length for m, (_, length) in zip(mults, beads))
        count = count * rank // sum(mults)
    return count


def _content_window(beads: list, max_rank: int) -> list[dict]:
    """Every nonzero bead multiset of rank <= max_rank, as label -> count."""
    out = []

    def rec(i: int, left: int, acc: dict) -> None:
        if i == len(beads):
            if acc:
                out.append(dict(acc))
            return
        label, length = beads[i]
        for m in range(0, left // length + 1):
            if m:
                acc[label] = m
            rec(i + 1, left - m * length, acc)
            acc.pop(label, None)

    rec(0, max_rank, {})
    return out


def _key(element):
    """A hashable form of a JSON-encoded window element."""
    if isinstance(element, list):
        return tuple(element)
    if isinstance(element, dict):
        return tuple(sorted(element.items()))
    return element


def check_output(job: Job, code: int, payload) -> str | None:
    """None when the run matches the job's expectation, else the reason."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    want = job.expect
    kind = want.get("kind")
    if job.code != 0:
        witness = payload.get("witness")
        if payload.get("ok") is not False or not isinstance(witness, dict):
            return "planted failure did not name a witness"
        if witness.get("element") != want["element"]:
            return f"witness {witness.get('element')!r}, expected {want['element']}"
        return None
    if payload.get("ok") is not True:
        return "ok is not true"
    if kind == "seq":
        n = len(want["a"])
        if payload["elements"] != list(range(1, n + 1)):
            return "seq elements differ from the window"
        if payload["rows"]["a"] != want["a"]:
            return "seq row a differs from the generated row"
        return None
    if kind in ("family_at_one", "fund_at_one", "binomial_at_one"):
        if kind == "family_at_one":
            expected = {n: v for n, v in enumerate(want["values"], start=1)}
        elif kind == "binomial_at_one":
            expected = {(n, k): _cbin(n, k)
                        for n in range(1, GRID_RANK + 1) for k in range(GRID_RANK + 1)}
        else:
            beads = want["beads"]
            expected = {_key(alpha): _content_count(beads, alpha, festoon=True)
                        for alpha in _content_window(beads, want["max_rank"])}
        got = {_key(e["element"]): sum(e["poly"]) for e in payload["family"]}
        if len(got) != len(payload["family"]) or got != expected:
            return "family values at q = 1 differ from the generated row"
        return None
    if kind == "riordan":
        return None if payload["rows"] == want["rows"] else "riordan rows differ"
    if kind == "counts":
        got = [count for _, count in payload["counts"]]
        return None if got == want["values"] else "object counts differ"
    if kind == "content_counts":
        beads = want["beads"]
        window = _content_window(beads, want["max_rank"])
        if len(payload["counts"]) != len(window):
            return f"{len(payload['counts'])} contents, expected {len(window)}"
        for alpha, count in payload["counts"]:
            if count != _content_count(beads, alpha, want["festoon"]):
                return f"count at {alpha} differs from the multinomial"
        return None
    if kind == "csp_counts":
        return None if payload["counts"] == want["counts"] else "tubing counts differ"
    if kind == "bijection":
        if payload["per_n"] != want["per_n"]:
            return "bijection counts differ"
        if payload["total"] != sum(c for _, c in want["per_n"]):
            return "bijection total differs"
        return None
    return f"unknown invariant {kind!r}"


def candidates(name: str, args: tuple) -> int:
    """Orderings an objects enumerator examines, from its content.

    ``args`` is plain data: ``(multiplicities,)`` for words,
    ``(bead lengths, multiplicities)`` for festoons by content, and
    ``({part: weight}, rank)`` for the colored, signed and repeated kinds.

    ``words_with_content`` and ``festoons_by_content`` run through every
    permutation of the content (times the n start offsets for festoons);
    the colored enumerators do so per decomposition and color choice.
    """
    if name == "words_with_content":
        (mults,) = args
        return factorial(sum(mults))
    if name == "festoons_by_content":
        lengths, alpha = args
        return factorial(sum(alpha)) * sum(m * l for m, l in zip(alpha, lengths))
    if name in ("festoons_colored", "signed_festoons"):
        values, n = args
        total = 0
        for parts in part_multisets(values, n):
            total += factorial(len(parts)) * prod(abs(values[t]) for t in parts)
        return total * n
    if name == "festoons_repeated":
        values, n = args
        return sum(t * values.get(t, 0) for t in divisors(n))
    raise ValueError(f"no candidate count for {name!r}")
