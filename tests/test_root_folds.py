"""The fold-once divisor-sum checkers against the code they replaced.

The Ramanujan vector of [(d, E_d), ...], ``ramanujan_classes`` spread by
its class index, is n times the polynomial of degree below n that takes the
value E_d at every primitive d-th root of unity, which the remainder
``eval_at_primitive_root`` must confirm; and
``check_root_values``, which compares it with n times a fold, must fail at
d exactly when that remainder is not E, on random and on planted cases.
``check_qgauss_definition`` and ``check_qgauss_roots`` must report exactly
what their oracles (``tests/qpoly_oracle.py``, ``tests/sieve_oracle.py``)
report, failures and details included, on families with planted faults on
positive-integer, free and chain instances; and on passing families they,
and the csp checks, must divide by no polynomial at all.
``unit_divisors`` and ``_divisor_roots`` must list the roots
``tests/semigroup_oracle.py`` finds; an instance builds them once per
element, and its public reads still refuse every invalid element, ``True``
included, also after a whole ``csp`` job.  A job validates each element once, where it
enters, and the kernels read ranks and roots unchecked.  The
checks read each polynomial through ``PolyFamily.folds`` only: their
details must be what the folds and remainders they replaced give, and
each polynomial is folded once.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qpoly_oracle
import semigroup_oracle
import sieve_oracle
from helpers import sequence_corpus
from sievekit import cli, qgauss, semigroup
from sievekit.arith import divisors, mobius
from sievekit.gaussseq import SequenceSpec
from sievekit.objects import festoon_census
from sievekit.qgauss import (
    PolyFamily,
    check_qgauss_definition,
    check_qgauss_roots,
    check_root_values,
    construct_ramanujan,
    equivalent_mod,
    fund_family,
    verify_csp,
    verify_lyndon,
    verify_signed_csp,
)
from sievekit.qpoly import (
    ZERO,
    IntPoly,
    cyclotomic,
    eval_at_primitive_root,
    fold,
    one_minus_q_pow,
    q_binomial,
    q_multinomial,
    q_power,
    ramanujan_classes,
    reduce_mod_qn_minus_1,
)
from sievekit.semigroup import (Chain, FamilyReport, FreeRanked, PositiveIntegers, Window,
                                encode_element)
from sievekit.tubings import improper_cycle_census

ZPOS = PositiveIntegers()

# -- the Ramanujan vector and the root test --------------------------------------------

SMALL = st.integers(-5, 5)
WIDE = st.one_of(SMALL, st.integers(-10**12, 10**12))


@st.composite
def root_cases(draw) -> tuple[IntPoly, int, int]:
    """(p, d, E) with d <= 130: p random, E + Phi_d * h (p(zeta) = E at
    every primitive d-th root), or such a p knocked off by one monomial."""
    d = draw(st.integers(1, 130))
    value = draw(WIDE)
    how = draw(st.sampled_from(["planted", "planted", "knocked", "random"]))
    if how == "random":
        coeffs = draw(st.lists(WIDE, max_size=3 * d))
        return IntPoly(coeffs), d, value
    h = IntPoly(draw(st.lists(WIDE, max_size=2 * d)))
    p = cyclotomic(d) * h + value
    if how == "knocked":
        p = p + IntPoly.monomial(draw(WIDE.filter(bool)), draw(st.integers(0, 3 * d)))
    return p, d, value


def test_projection_decides_the_value_at_primitive_roots():
    """p at the element d of the positive integers must take E at the
    primitive d-th roots (0 at those of smaller order)."""
    passed = []

    @settings(max_examples=400)
    @given(root_cases())
    def agree(case):
        p, d, value = case
        want = eval_at_primitive_root(p, d) == value
        report = check_root_values(
            ZPOS, [(d, (fold(p.coeffs, d), None))], lambda s, x, e, t: value if e == d else 0)
        assert (d not in [f.divisor for f in report.failures]) == want
        passed.append(want)

    agree()
    assert 3 * sum(passed) >= len(passed)


@given(st.lists(WIDE, max_size=60), st.integers(1, 40))
def test_folds_agree_with_the_remainder_modulo_q_n_minus_1(coeffs, n):
    p = IntPoly(coeffs)
    base = fold(coeffs, n)
    for e in divisors(n):
        row = fold(coeffs, e)
        assert len(row) == e
        assert row == fold(base, e)
        assert IntPoly(row) == divmod(p, IntPoly.monomial(1, e) - 1)[1]


@given(st.integers(1, 60), st.data())
def test_ramanujan_vector_is_n_times_the_values_at_primitive_roots(n, data):
    values = {d: data.draw(st.one_of(st.just(0), WIDE)) for d in divisors(n)}
    by_class, classes = ramanujan_classes(n, values.items())
    p = IntPoly([by_class[k] for k in classes])
    for d, value in values.items():
        assert eval_at_primitive_root(p, d) == n * value


# -- the two checkers on planted faults ----------------------------------------------------

ZPOS_FAMILIES = [
    construct_ramanujan(dict(sequence_corpus(12))["lucas"]),
    PolyFamily.from_function(ZPOS, Window(10), lambda n: q_power(-2, n)),
]
FREE = FreeRanked((("x", 1), ("y", 2), ("z", 3)))
FREE_FAMILIES = [fund_family(FREE, Window(7))]
NK = Chain(ZPOS, "nonneg")
NKK = Chain(NK, "nonneg")


def _trinomial(s) -> IntPoly:
    n, a, b = s
    return q_multinomial([a, b, n - a - b]) if a + b <= n else ZERO


CHAIN_FAMILIES = [
    PolyFamily.from_function(NK, Window(9, ((0, 9),)), lambda s: q_binomial(*s)),
    PolyFamily.from_function(NKK, Window(6, ((0, 6),)), _trinomial),
]
FAMILIES = {
    "zpos": ZPOS_FAMILIES,
    "free": FREE_FAMILIES,
    "chain": CHAIN_FAMILIES,
}
FAULTS = ("bump", "cyclotomic", "constant", "invisible")


@st.composite
def planted(draw, kind: str) -> tuple[PolyFamily, set[str]]:
    """A passing family of the instance kind with faults at some elements:
    q^(rank-1) (``bump``), a multiple of Phi_e for some e | rank
    (``cyclotomic``), a nonzero constant (``constant``), or a multiple of
    q^rank - 1 (``invisible``, which no check can see).  A fault at rank 1
    is named apart: there a bump is a constant, which only the elements
    with s as a root can see."""
    F = draw(st.sampled_from(FAMILIES[kind]))
    inst = F.instance
    table = dict(F.polys)
    faults = set()
    for s in draw(st.lists(st.sampled_from([s for s, _ in F.polys]), min_size=1, max_size=3,
                           unique=True)):
        rank = semigroup_oracle.rank(inst, s)
        fault = draw(st.sampled_from(FAULTS))
        shift = IntPoly.monomial(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(0, 4)))
        if fault == "bump":
            bump = IntPoly.monomial(1, rank - 1)
        elif fault == "cyclotomic":
            bump = cyclotomic(draw(st.sampled_from(divisors(rank)))) * shift
        elif fault == "constant":
            bump = shift.coeffs[-1]
        else:
            bump = one_minus_q_pow(rank) * shift
        table[s] = table[s] + bump
        faults.add(fault if rank >= 2 else f"{fault} at rank 1")
    return PolyFamily(inst, F.window, tuple(table.items())), faults


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@settings(max_examples=40)
@given(data=st.data())
def test_checkers_report_what_the_oracles_report(kind, data):
    G, faults = data.draw(planted(kind))
    definition = check_qgauss_definition(G)
    roots = check_qgauss_roots(G)
    assert definition == qpoly_oracle.check_qgauss_definition(G)
    assert roots == sieve_oracle.check_qgauss_roots(G)
    if faults == {"invisible"}:
        assert definition.ok and roots.ok
    if "bump" in faults:
        assert not roots.ok


@pytest.mark.parametrize("F", [F for group in FAMILIES.values() for F in group])
def test_the_unplanted_families_pass(F):
    assert check_qgauss_definition(F).ok and check_qgauss_roots(F).ok


def definition_by_remainders(F: PolyFamily) -> FamilyReport:
    """The definition report with each detail as ``reduce_mod_q_int`` gave
    it: the remainder of the Mobius-weighted divisor sum modulo [rank]_q."""
    inst, lookup = F.instance, dict(F.polys)

    def checks():
        for s, _ in F.polys:
            rank = semigroup_oracle.rank(inst, s)
            total = ZERO
            for t, d in inst.unit_divisors(s):
                total = total + qpoly_oracle.subst_power(lookup[t], d) * mobius(d)
            remainder = qpoly_oracle.reduce_mod_q_int(total, rank)
            yield s, rank, f"remainder {remainder}" if remainder else None

    return FamilyReport.collect(checks())


def equivalence_by_remainders(F: PolyFamily, G: PolyFamily) -> FamilyReport:
    """The ``equivalent_mod`` report from the difference of each pair of
    polynomials reduced modulo q^rank - 1."""
    g = dict(G.polys)

    def checks():
        for s, p in F.polys:
            rank = semigroup_oracle.rank(F.instance, s)
            diff = reduce_mod_qn_minus_1(p - g[s], rank)
            yield s, rank, f"difference {diff}" if diff else None

    return FamilyReport.collect(checks())


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@settings(max_examples=40)
@given(data=st.data())
def test_fold_checks_report_what_the_remainders_report(kind, data):
    G, _ = data.draw(planted(kind))
    F = next(F for F in FAMILIES[kind] if (F.instance, F.window) == (G.instance, G.window))
    assert check_qgauss_definition(G) == definition_by_remainders(G)
    for left, right in ((F, G), (G, F)):
        # one Record equality: ok, checked, and each failure's element,
        # divisor and detail
        assert equivalent_mod(left, right) == equivalence_by_remainders(left, right)
    assert equivalent_mod(G, G).ok


# -- no division on a passing family -------------------------------------------------------


@pytest.fixture
def divisions(monkeypatch):
    """The divisor of each IntPoly long division made while the fixture is
    active, in call order."""
    calls = []
    original = IntPoly.__divmod__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(IntPoly, "__divmod__", counted)
    return calls


def test_checkers_divide_only_to_describe_a_failure(divisions):
    grid = PolyFamily.from_function(NK, Window(12, ((0, 12),)), lambda s: q_binomial(*s))
    fund = fund_family(FREE, Window(8))
    letters = FreeRanked((("a", 1), ("b", 1), ("c", 1)))
    censuses = [
        improper_cycle_census(6, "tubes", 2),
        (festoon_census("words", letters, Window(6)), fund_family(letters, Window(6))),
    ]
    for d in range(1, 13):
        cyclotomic(d)  # built by exact divisions, once
    divisions.clear()  # the constructions divide exactly; the checks must not
    for F in (grid, fund):
        assert check_qgauss_definition(F).ok
        assert check_qgauss_roots(F).ok
    for census, F in censuses:
        assert verify_lyndon(census).ok
        assert verify_csp(census, F).ok
        assert verify_signed_csp(census, F).ok
    assert divisions == []
    # an element that fails is decided one divisor at a time: it divides
    # by Phi_d for every d | rank, and names the value at each failing d
    s = (4, 2)
    broken = PolyFamily(NK, grid.window, tuple(
        (t, p + 1 if t == s else p) for t, p in grid.polys))
    failures = check_qgauss_roots(broken).failures
    assert [(f.element, f.divisor) for f in failures] == [
        (s, 2), (s, 4), ((8, 4), 2), ((12, 6), 3)]
    failing = [s, (8, 4), (12, 6)]
    assert divisions == [cyclotomic(d) for n, _ in failing for d in divisors(n)]
    assert len(divisions) == 13


@pytest.fixture
def fold_calls(monkeypatch):
    """The modulus n of each ``fold`` made by ``qgauss`` while the fixture
    is active, in call order."""
    calls = []
    original = qgauss.fold

    def counted(coeffs, n):
        calls.append(n)
        return original(coeffs, n)

    monkeypatch.setattr(qgauss, "fold", counted)
    return calls


def test_each_polynomial_is_folded_once(fold_calls):
    grid = PolyFamily.from_function(NK, Window(12, ((0, 12),)), lambda s: q_binomial(*s))
    assert check_qgauss_definition(grid).ok
    assert check_qgauss_roots(grid).ok
    assert fold_calls == [semigroup_oracle.rank(NK, s) for s, _ in grid.polys]
    fold_calls.clear()
    letters = FreeRanked((("a", 1), ("b", 1), ("c", 1)))
    census = festoon_census("words", letters, Window(6))
    fund = fund_family(letters, Window(6))
    assert verify_csp(census, fund).ok
    assert verify_signed_csp(census, fund).ok
    assert fold_calls == [semigroup_oracle.rank(letters, s) for s, _ in fund.polys]


@pytest.fixture
def divisor_calls(monkeypatch):
    """The n of each ``divisors(n)`` made by ``semigroup`` while the
    fixture is active: one per element whose roots are built."""
    calls = []
    original = semigroup.divisors

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(semigroup, "divisors", counted)
    return calls


def test_each_element_has_its_roots_built_once(divisor_calls):
    """A fresh instance builds the roots of each window element once per
    job, however many times the construction and the two checks ask."""
    nk = Chain(PositiveIntegers(), "nonneg")
    grid = PolyFamily.from_function(nk, Window(12, ((0, 12),)), lambda s: q_binomial(*s))
    assert check_qgauss_definition(grid).ok
    assert check_qgauss_roots(grid).ok
    assert sorted(divisor_calls) == sorted(semigroup_oracle.rank(nk, s) for s, _ in grid.polys)
    divisor_calls.clear()
    zpos = PositiveIntegers()
    lucas = dict(sequence_corpus(24))["lucas"]
    F = construct_ramanujan(SequenceSpec.from_mapping(zpos, Window(24), "a", dict(lucas.values)))
    assert check_qgauss_definition(F).ok and check_qgauss_roots(F).ok
    assert divisor_calls == list(range(1, 25))


@pytest.mark.parametrize("inst, kept, refused", [
    (PositiveIntegers(), 1, True),
    (Chain(PositiveIntegers(), "nonneg"), (1, 0), (True, 0)),
])
def test_kept_roots_refuse_what_validation_refuses(inst, kept, refused):
    """``True`` hashes as 1, so a lookup before the element check would
    hand it the kept roots of 1."""
    assert inst.unit_divisors(kept) == [(kept, 1)]
    assert inst._divisor_roots(kept) is inst._divisor_roots(kept)
    for call in (inst.unit_divisors, inst.sort_key):
        with pytest.raises(ValueError, match="invalid element"):
            call(refused)


@pytest.mark.parametrize("config, kept, refused", [
    ({"family": "words", "beads": [["a", 1], ["b", 1]], "window": {"max_rank": 5}},
     (1, 0), [(True, 0), (-1, 2)]),
    ({"family": "festoons-colored", "c": {"instance": {"kind": "zpos", "window": {"max_rank": 6}},
                                          "role": "c", "support": [[1, 1], [2, 1]]}},
     1, [True]),
])
def test_a_full_job_leaves_the_public_reads_checked(config, kept, refused):
    """The kernels read the roots unchecked, and a whole ``csp`` job keeps
    the roots of every window element, ``kept`` among them; the public
    reads must still refuse what validation refuses."""
    job = cli._decode_csp(config)
    assert cli.cmd_csp(*job)[1] == 0
    inst = job[1] if len(job) == 3 else job[1].instance  # beads, or a sequence's
    assert kept in inst._roots
    reads = (inst.unit_divisors, inst.sort_key, lambda s: encode_element(inst, s))
    for s in refused:
        for read in reads:
            with pytest.raises(ValueError, match="invalid element"):
                read(s)


GOLDEN = {case["job"]: case
          for case in json.loads(Path(__file__).with_name("golden_configs.json").read_text())}


@pytest.mark.parametrize("job, listed", [
    ("sieving/words", comb(7 + 4, 4) - 1),  # the nonzero 4-tuples of total <= 7
    ("sieving/festoons-colored-10", 10),
    ("sieving/festoons-colored-12", 12),
    # twice per element of the window 1..36: at the lister's entry, and encoded
    ("sieving/festoons-repeated", 2 * 36),
    ("congruence/q-binomial-grid", 22 * 23),  # (n, k) for 1 <= n <= 22, 0 <= k <= 22
    ("congruence/seq-trace2", 120),
    ("congruence/seq-trace3", 120),
    ("tubings/tubings-tubes", 6 * 7),  # (n, k) for 1 <= n <= 6, 0 <= k <= 6
    ("tubings/tubings-all", 6),
    ("tubings/tubings-free", 6 * 6),  # (n, k) for 1 <= n, k <= 6
    ("tubings/tubings-colored", 5 * 6),  # (n, k) for 1 <= n <= 5, 0 <= k <= 5
])
def test_elements_are_validated_where_they_enter(monkeypatch, tmp_path, job, listed):
    """A job validates each element where it enters: at most once per
    window element (its output line encodes it), twice where a public
    lister validates it too, and once per decoded support element; the
    kernels and the tables built over the window listing read them
    unchecked."""
    calls = []
    for cls in (semigroup._SemigroupBase, semigroup.PositiveIntegers):
        def counted(self, s, original=cls.validate):
            calls.append(s)
            return original(self, s)

        monkeypatch.setattr(cls, "validate", counted)
    case = GOLDEN[job]
    sources = [case["config"][key] for key in ("sequence", "b", "c") if key in case["config"]]
    decoded = sum(len(source["support"]) for source in sources)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(case["config"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([case["command"], "--config", str(path), "--format", "json"]) == 0
    assert len(calls) <= listed + decoded


# -- roots of an element ---------------------------------------------------------------------

MULTIPLIERS = [1, 2, 3, 4, 6, 12, 30, 60]


@st.composite
def multiples(draw) -> tuple[object, object]:
    """(instance, m * b) for a valid element b, so that roots exist."""
    kind = draw(st.sampled_from(["zpos", "chain", "free"]))
    if kind == "zpos":
        return ZPOS, draw(st.integers(1, 5)) * draw(st.sampled_from(MULTIPLIERS))
    if kind == "chain":
        inst = ZPOS
        for extra in draw(st.lists(st.sampled_from(["ints", "nonneg", "pos"]),
                                   min_size=1, max_size=3)):
            inst = Chain(inst, extra)
    else:
        lengths = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3))
        inst = FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths)))
    base = draw(st.tuples(*[st.integers(-3, 5)] * len(inst.row)))
    assume(semigroup_oracle.is_valid(inst, base))
    m = draw(st.sampled_from(MULTIPLIERS))
    return inst, tuple(c * m for c in base)


@settings(max_examples=150)
@given(multiples())
def test_roots_match_the_oracle(case):
    inst, s = case
    assert inst.unit_divisors(s) == semigroup_oracle.unit_divisors(inst, s)
    roots = inst._divisor_roots(s)  # s is valid: unit_divisors checked it
    assert [d for d, _ in roots] == divisors(semigroup_oracle.rank(inst, s))
    for d, t in roots:
        assert ([] if t is None else [t]) == semigroup_oracle.root_list(inst, s, d)
