"""Random configs for the tubing commands: every run ends in exit 0, 1 or 2.

Sizes stay at most 6 where they are in range, so each run takes
milliseconds; larger integers are out of range and refused up front.
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
