"""Each CLI command loads only the library modules it runs.

``cli`` imports the library inside each command's decode and run, so a job
compiles and runs only the modules of its command (README, "Start-up").
Every job of ``golden_configs.json`` runs here as a fresh
``python -S -X importtime -m sievekit`` process.  Its exit code and the
SHA-256 of its stdout must match the golden file: the in-process golden
test, which imports the whole package, cannot see an import that breaks
only in a fresh interpreter.  The ``sievekit`` modules that
``-X importtime`` names on stderr must be exactly the command's set, and
no start loads ``SLOW_STDLIB``.  ``-S`` skips ``site``, whose ``.pth``
files may preload stdlib modules on one machine and not on another.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_JOBS = json.loads(Path(__file__).with_name("golden_configs.json").read_text())

ENTRY = {"cli", "arith", "semigroup"}  # what importing cli loads
SEQUENCES = ENTRY | {"gaussseq"}  # seq, riordan
POLYNOMIALS = SEQUENCES | {"qpoly", "qgauss"}  # qgauss
FESTOONS = POLYNOMIALS | {"objects"}  # csp over words and festoons
EVERY_MODULE = FESTOONS | {"tubings"}  # csp tubings-cycle
BIJECTIONS = ENTRY | {"tubings"}  # bijection
# no command loads transport; importing it loads the modules it builds on
TRANSPORT = {"arith", "semigroup", "gaussseq", "qpoly", "qgauss", "transport"}

# stdlib modules no start needs: every job's arithmetic is integral, and
# the records and annotations need neither dataclasses nor typing, and the
# help text has a fixed width, so no terminal size is read through shutil
SLOW_STDLIB = {"fractions", "decimal", "dataclasses", "inspect", "typing", "shutil"}


def expected_modules(command: str, config: dict) -> set[str]:
    if command == "qgauss":
        return POLYNOMIALS
    if command == "csp":
        return EVERY_MODULE if config["family"] == "tubings-cycle" else FESTOONS
    if command == "bijection":
        return BIJECTIONS
    return SEQUENCES


def run_fresh(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh ``python -S -X importtime`` run and the names of the modules
    it imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                         capture_output=True, env=env, timeout=120)
    lines = res.stderr.decode().splitlines()
    return res, {line.rsplit("|", 1)[1].strip() for line in lines
                 if line.startswith("import time:")}


def library_modules(modules: set[str]) -> set[str]:
    """The sievekit modules among ``modules``, without the package prefix
    (the package itself is left out)."""
    return {m.removeprefix("sievekit.") for m in modules if m.startswith("sievekit.")}


@pytest.mark.parametrize("case", GOLDEN_JOBS, ids=lambda case: case["job"])
def test_a_cold_job_loads_only_its_command_modules(tmp_path, case):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(case["config"]))
    res, modules = run_fresh("-m", "sievekit", case["command"], "--config", str(path),
                             "--format", "json")
    assert res.returncode == case["code"], res.stderr.decode()[-2000:]
    assert hashlib.sha256(res.stdout).hexdigest() == case["sha256"]
    assert library_modules(modules) == expected_modules(case["command"], case["config"])
    assert not modules & SLOW_STDLIB


@pytest.mark.parametrize("args", [("-c", "import sievekit.cli"), ("-m", "sievekit", "--help")],
                         ids=["import", "help"])
def test_importing_cli_loads_only_the_decoders(args):
    res, modules = run_fresh(*args)
    assert res.returncode == 0, res.stderr.decode()[-2000:]
    assert library_modules(modules) == ENTRY
    assert not modules & SLOW_STDLIB


def test_importing_transport_loads_only_what_it_builds_on():
    # in process, tests import qgauss first and so hide an import cycle
    res, modules = run_fresh("-c", "import sievekit.transport")
    assert res.returncode == 0, res.stderr.decode()[-2000:]
    assert library_modules(modules) == TRANSPORT
    assert not modules & SLOW_STDLIB
