"""Random configs for the commands: every run ends in exit 0, 1 or 2.

Tubing sizes stay at most 6 and ranks at most 8 where they are in range
(bead lengths at most 3 and weights at most 3 in absolute value),
so each run takes milliseconds; larger integers are out of range and
refused up front.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import cli

JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=6),
    st.none(),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
SIZE = st.one_of(st.integers(1, 6), st.integers(-5, 0), st.integers(13, 10**30), JUNK)
COLORS = st.one_of(st.integers(1, 3), st.integers(-3, 0), st.integers(10**4, 10**30), JUNK)
GRADING = st.one_of(st.sampled_from(["free", "tubes", "all", "wheel", ""]), JUNK)
KIND = st.one_of(st.sampled_from(["interval", "cycle", "path", ""]), JUNK)


@st.composite
def configs(draw, fields: dict) -> dict:
    """Each field present or missing, sometimes an unknown key more."""
    cfg = {key: draw(value) for key, value in fields.items() if draw(st.booleans())}
    if draw(st.integers(0, 4)) == 0:
        cfg[draw(st.sampled_from(["extra", "max_N", "colour"]))] = draw(SIZE)
    return cfg


def run(command: str, cfg) -> int:
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, "--config", path, "--format", "json"])
    finally:
        os.unlink(path)


@settings(max_examples=150, deadline=None)
@given(configs({"kind": KIND, "max_n": SIZE}))
def test_bijection_configs_end_in_an_exit_code(cfg):
    assert run("bijection", cfg) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(configs({"family": st.just("tubings-cycle"), "max_rank": SIZE,
                "grading": GRADING, "colors": COLORS}))
def test_tubing_csp_configs_end_in_an_exit_code(cfg):
    assert run("csp", cfg) in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(st.one_of(JUNK, st.integers()))
def test_non_object_configs_are_config_errors(cfg):
    assert run("bijection", cfg) == 1
    assert run("csp", cfg) == 1


# -- seq, qgauss and riordan ------------------------------------------------------
#
# These configs are mostly well formed, so that runs get past the guards into
# the transforms, constructions and checks; each field is now and then junk
# or missing, and now and then an unknown key is added.


def nearly(valid, broken=JUNK):
    """Mostly ``valid``, one time in twenty ``broken``."""
    return st.integers(0, 19).flatmap(lambda i: broken if i == 19 else valid)


@st.composite
def jobs(draw, fields: dict) -> dict:
    """Each field missing one time in twenty, an unknown key more one time in
    thirty."""
    cfg = {key: draw(value) for key, value in fields.items()
           if draw(st.integers(0, 19)) < 19}
    if draw(st.integers(0, 29)) == 29:
        cfg["colour"] = draw(SIZE)
    return cfg


BOUND = st.integers(-3, 4)
EXTRA_BOUNDS = nearly(
    st.one_of(
        st.lists(st.lists(BOUND, min_size=2, max_size=2).map(sorted), min_size=1, max_size=3),
        st.lists(BOUND, min_size=2, max_size=2).map(sorted),  # a bare pair
    ),
    st.one_of(st.lists(st.lists(nearly(BOUND), max_size=3), max_size=3), JUNK),
)
WINDOW = nearly(jobs({"max_rank": nearly(st.integers(1, 8)), "extra_bounds": EXTRA_BOUNDS,
                      "max_total": nearly(st.integers(1, 6))}))
BEADS = nearly(st.lists(
    nearly(st.tuples(nearly(st.sampled_from(["a", "b", "c"])),
                     nearly(st.integers(-1, 3))).map(list)),
    min_size=1, max_size=3,
))
EXTRA = nearly(st.sampled_from(["ints", "nonneg", "pos"]))
VALUE = nearly(st.integers(-3, 3))


@st.composite
def sequences(draw, roles: str = "abc") -> dict:
    """A sequence config whose support elements mostly fit its instance, its
    role mostly one of ``roles``."""
    kind = draw(nearly(st.sampled_from(["zpos", "chain", "free"])))
    fields = {"kind": st.just(kind), "window": WINDOW}
    element = st.integers(0, 8)
    if kind == "chain":
        nested = draw(st.booleans())
        base = jobs({"kind": st.just("chain"), "extra": EXTRA}) if nested else st.just("zpos")
        fields.update(base=nearly(base), extra=EXTRA)
        size = 3 if nested else 2
        element = st.lists(st.integers(-2, 8), min_size=size, max_size=size)
    elif kind == "free":
        fields["beads"] = BEADS
        element = st.dictionaries(st.sampled_from(["a", "b", "c", "z"]),
                                  st.integers(0, 3), max_size=3)
    instance = draw(jobs(fields))
    window = instance.get("window")
    rank = window.get("max_rank") if isinstance(window, dict) else None
    if kind == "zpos" and type(rank) is int and rank <= 8:
        # a full support, which a role-a sequence needs
        elements = st.just(list(range(1, rank + 1)))
    else:
        elements = st.lists(nearly(element), max_size=4)
    support = nearly(elements.flatmap(
        lambda es: st.tuples(*(st.tuples(st.just(e), VALUE).map(list) for e in es)).map(list)
    ))
    return draw(nearly(jobs({"instance": st.just(instance),
                             "role": nearly(st.sampled_from(roles)),
                             "support": support})))


CHECKS = nearly(st.lists(nearly(st.sampled_from(["definition", "roots"])), max_size=2))


@settings(max_examples=150, deadline=None)
@given(jobs({"sequence": sequences()}))
def test_seq_configs_end_in_an_exit_code(cfg):
    assert run("seq", cfg) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(jobs({
    "construction": nearly(st.sampled_from(["ramanujan", "from-b", "from-c", "fund"])),
    "sequence": sequences(), "beads": BEADS, "window": WINDOW, "checks": CHECKS,
}))
def test_qgauss_construction_configs_end_in_an_exit_code(cfg):
    assert run("qgauss", cfg) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(jobs({
    "closed_form": nearly(jobs({
        "name": nearly(st.sampled_from(["q-binomial", "q-power"])),
        "window": WINDOW,
        "base": VALUE,
    })),
    "checks": CHECKS,
}))
def test_qgauss_closed_form_configs_end_in_an_exit_code(cfg):
    assert run("qgauss", cfg) in (0, 1, 2)


UNIT_HEAD = st.builds(lambda head, tail: [head, *tail],
                      nearly(st.sampled_from([1, -1, 2])), st.lists(VALUE, max_size=3))


@settings(max_examples=150, deadline=None)
@given(jobs({"series": nearly(jobs({"numer": nearly(UNIT_HEAD), "denom": nearly(UNIT_HEAD)})),
             "max_n": nearly(st.one_of(st.integers(1, 8), st.integers(-2, 0),
                                       st.integers(25, 10**30)))}))
def test_riordan_configs_end_in_an_exit_code(cfg):
    assert run("riordan", cfg) in (0, 1, 2)


# -- csp over words and festoons --------------------------------------------------


@st.composite
def bead_jobs(draw) -> dict:
    """Words or festoons by content, bead labels distinct and bead lengths
    mostly valid for the family."""
    family = draw(nearly(st.sampled_from(["words", "festoons-content"])))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    length = st.just(1) if family == "words" else st.integers(1, 3)
    beads = [[label, draw(nearly(length, st.integers(-1, 3) | JUNK))] for label in labels]
    return draw(jobs({"family": st.just(family), "beads": nearly(st.just(beads), BEADS),
                      "window": WINDOW}))


@settings(max_examples=150, deadline=None)
@given(bead_jobs())
def test_word_and_content_csp_configs_end_in_an_exit_code(cfg):
    assert run("csp", cfg) in (0, 1, 2)


@st.composite
def festoon_jobs(draw) -> dict:
    """A festoon family with a sequence of its role, one time in twenty under
    the other family's key."""
    name = draw(nearly(st.sampled_from(
        ["festoons-colored", "festoons-repeated", "signed-festoons"])))
    key = "b" if name == "festoons-repeated" else "c"
    if draw(st.integers(0, 19)) == 19:
        key = "c" if key == "b" else "b"
    return draw(jobs({"family": st.just(name), key: sequences(key)}))


@settings(max_examples=150, deadline=None)
@given(festoon_jobs())
def test_festoon_csp_configs_end_in_an_exit_code(cfg):
    assert run("csp", cfg) in (0, 1, 2)
