"""The benchmark's tracer still finds every library name it patches.

``bench/tracer.py`` wraps functions, methods and classes of sievekit by
name; a rename or deletion there breaks only traced benchmark runs.  This
test installs the tracer in a fresh interpreter, so such a change fails
the test suite instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import sievekit.cli
import tracer
finish = tracer.install(tracer.Tracer())
finish()
"""


def test_tracer_installs_on_the_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
