"""The package's frozen records behave as frozen dataclasses did.

Each ``semigroup.Record`` class is pinned to its field names and compared
with a ``dataclasses.make_dataclass(..., frozen=True)`` twin built from the
same field values: the repr, ``==`` and ``!=`` within one class and across
classes, the hash (so set and dict orders that depend on it are kept),
refused assignment and a wrong number of arguments.  The records are those
that decoding and running every ``golden_configs.json`` job builds, a few
built by hand, and Hypothesis-drawn windows and instances.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sievekit import cli, gaussseq, objects, qgauss, semigroup, transport
from sievekit.semigroup import (EXTRA_KINDS, Chain, FamilyCheckFailure, FreeRanked,
                                PositiveIntegers, Record, Window)
from sievekit.transport import Morphism

GOLDEN_JOBS = json.loads(Path(__file__).with_name("golden_configs.json").read_text())

FIELDS = {  # each record class's fields, as its dataclass declared them
    semigroup.Window: ("max_rank", "extra_bounds", "max_total"),
    semigroup.FamilyCheckFailure: ("element", "divisor", "detail"),
    semigroup.FamilyReport: ("ok", "checked", "failures"),
    semigroup.PositiveIntegers: (),
    semigroup.Chain: ("base", "extra"),
    semigroup.FreeRanked: ("beads",),
    transport.Morphism: ("source", "target", "matrix"),
    gaussseq.SequenceSpec: ("instance", "window", "role", "values"),
    gaussseq.TruncatedSeries: ("coeffs", "order"),
    qgauss.PolyFamily: ("instance", "window", "polys"),
    objects.CyclicFamily: ("instance", "window", "sets"),
    qgauss.Census: ("instance", "window", "rows"),
}
WINDOW_FIELDS = ["max_rank", ("extra_bounds", object, dataclasses.field(default=())),
                 ("max_total", object, dataclasses.field(default=None))]
TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, WINDOW_FIELDS if cls is Window else names,
                                    frozen=True)
    for cls, names in FIELDS.items()
}
PER_JOB = 8  # records of each class kept from one golden job


def twin(record: Record):
    return TWINS[type(record)](*(getattr(record, name) for name in FIELDS[type(record)]))


def hashed(value):
    """The hash of ``value``, or the type of the error hashing raised."""
    try:
        return hash(value)
    except TypeError as e:
        return type(e)


def check_record(record: Record) -> None:
    names = FIELDS[type(record)]
    other = twin(record)
    assert repr(record) == repr(other)
    assert hashed(record) == hashed(other)
    assert record == record and not record != record
    assert record != other and other != record  # the twin is another class
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(other, name, None)
    values = [getattr(record, name) for name in names]
    for args in (values + [None], [] if type(record) is Window else values[:-1]):
        if len(args) != len(values):
            with pytest.raises(TypeError):
                type(record)(*args)
            with pytest.raises(TypeError):
                type(other)(*args)


def check_pair(a: Record, b: Record) -> None:
    """``==`` and ``!=`` of two records agree with their twins'."""
    ta, tb = twin(a), twin(b)
    if type(a) is not type(b):
        assert a.__eq__(b) is NotImplemented
    assert (a == b) == (ta == tb)
    assert (a != b) == (ta != tb)


def collect(monkeypatch) -> dict:
    """Patch record construction to keep up to PER_JOB records of each
    class; returns the dict it fills."""
    kept: dict = {}
    init = Record.__init__

    def keep(self, *args):
        init(self, *args)
        found = kept.setdefault(type(self), [])
        if len(found) < PER_JOB:
            found.append(self)

    monkeypatch.setattr(Record, "__init__", keep)
    return kept


def all_subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | all_subclasses(direct)}


def test_every_record_class_is_pinned():
    assert all_subclasses(Record) == set(FIELDS)
    for cls, names in FIELDS.items():
        assert cls._fields == names


@pytest.mark.parametrize("case", GOLDEN_JOBS, ids=lambda case: case["job"])
def test_golden_job_records_match_their_dataclass_twins(tmp_path, monkeypatch, case):
    kept = collect(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(case["config"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([case["command"], "--config", str(path), "--format", "json"]) \
            == case["code"]
    monkeypatch.undo()
    records = [r for found in kept.values() for r in found]
    assert records or case["command"] == "bijection"
    for record in records:
        check_record(record)
    for a, b in itertools.product(records, repeat=2):
        check_pair(a, b)


def test_hand_built_records_match_their_dataclass_twins():
    zpos = PositiveIntegers()
    nk = Chain(zpos, "nonneg")
    records = [
        Morphism(nk, zpos, [[1, 0]]),
        Morphism(nk, zpos, [(1, 0)]),
        Morphism(zpos, zpos, [(2,)]),
        FamilyCheckFailure((3, 1), 3, "detail"),
        FamilyCheckFailure((3, 1), None, "detail"),
        semigroup.FamilyReport.collect([(1, 1, None), (2, 2, "fails")]),
        semigroup.FamilyReport.collect([]),
    ]
    for record in records:
        check_record(record)
    for a, b in itertools.product(records, repeat=2):
        check_pair(a, b)


bounds = st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda p: (p[0], p[0] + p[1]))
windows = st.builds(
    lambda rank, eb, total: Window(rank, eb, max_total=total),
    st.integers(1, 6),
    st.one_of(st.just(()), bounds, st.lists(bounds, max_size=3).map(tuple)),
    st.none() | st.integers(1, 6),
)
chains = st.recursive(
    st.just(PositiveIntegers()),
    lambda base: st.builds(Chain, base, st.sampled_from(EXTRA_KINDS)),
    max_leaves=3,
)
free_ranked = st.lists(st.integers(-2, 4), min_size=1, max_size=4).map(
    lambda lengths: FreeRanked(tuple((f"b{i}", n) for i, n in enumerate(lengths))))
records = st.one_of(windows, chains, free_ranked)


@given(records, records)
def test_drawn_records_match_their_dataclass_twins(a, b):
    check_record(a)
    check_record(b)
    check_pair(a, b)
    check_pair(b, a)
