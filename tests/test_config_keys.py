"""The decoding of every object in the golden job configs
(``golden_configs.json``): a key that no job reads, added beside the keys
of any object, is refused, and a config missing any one key exits 0 or 1,
never with a traceback."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from sievekit import cli

GOLDEN_JOBS = json.loads(Path(__file__).with_name("golden_configs.json").read_text())


def object_paths(value, path=()):
    """The path of each JSON object in ``value``, ``value`` itself first."""
    if isinstance(value, dict):
        yield path
        for key, item in value.items():
            yield from object_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from object_paths(item, path + (i,))


def at(config: dict, path: tuple) -> dict:
    """The object at ``path`` in ``config``."""
    for key in path:
        config = config[key]
    return config


def edited(config: dict, path: tuple, edit) -> dict:
    """A copy of ``config`` with ``edit`` applied to the object at ``path``."""
    config = copy.deepcopy(config)
    edit(at(config, path))
    return config


def run(tmp_path, capsys, command: str, config: dict) -> tuple[int, str]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(path), "--format", "json"])
    return code, capsys.readouterr().err


def case_id(case: tuple) -> str:
    job, path, *key = case
    return "/".join([job["job"], *map(str, path), *key])


OBJECTS = [(job, path) for job in GOLDEN_JOBS for path in object_paths(job["config"])]
KEYS = [(job, path, key) for job, path in OBJECTS for key in at(job["config"], path)]


def test_every_golden_object_is_counted():
    assert len(GOLDEN_JOBS) == 22 and len(OBJECTS) == 61


@pytest.mark.parametrize("case", OBJECTS, ids=case_id)
def test_an_unknown_key_is_refused(tmp_path, capsys, case):
    job, path = case
    config = edited(job["config"], path, lambda obj: obj.__setitem__("mystery", 1))
    code, err = run(tmp_path, capsys, job["command"], config)
    assert code == 1
    assert err.startswith("config error:")


@pytest.mark.parametrize("case", KEYS, ids=case_id)
def test_a_dropped_key_ends_in_a_clean_exit(tmp_path, capsys, case):
    job, path, key = case
    config = edited(job["config"], path, lambda obj: obj.pop(key))
    code, err = run(tmp_path, capsys, job["command"], config)
    assert code in (0, 1)
    assert code == 0 or err.startswith("config error:")
