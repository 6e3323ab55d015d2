"""Byte identity of the CLI on the benchmark's job configs.

``golden_configs.json`` freezes the seed-1 config of every job of the
three benchmark workloads, with the exit code and the SHA-256 of the
``--format json`` stdout of ``cli.main``.  Each test runs one config in
process and compares both, so a change that moves any output fails here.

A change that alters output on purpose regenerates the file, from the
repository root, and says so in ``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden_stdout.py --regenerate
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from sievekit import cli

GOLDEN = Path(__file__).with_name("golden_configs.json")


def run(command: str, config: dict, path: Path) -> tuple[int, str]:
    """(exit code, SHA-256 of stdout) of one in-process CLI run."""
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--format", "json"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def regenerate() -> None:
    """Rewrite the golden file from the benchmark's seed-1 jobs."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    import jobs

    cases = []
    scratch = GOLDEN.with_name("golden_run.json")
    try:
        for workload in jobs.WORKLOADS:
            for job in jobs.generate(workload, 1):
                code, digest = run(job.command, job.config, scratch)
                cases.append({"job": f"{workload}/{job.name}", "command": job.command,
                              "config": job.config, "code": code, "sha256": digest})
    finally:
        scratch.unlink(missing_ok=True)
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n")  # one job a line


if __name__ == "__main__":  # before the cases are read, which needs the file
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    regenerate()
    raise SystemExit


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: case["job"]
)
def test_stdout_is_byte_identical(tmp_path, case):
    code, digest = run(case["command"], case["config"], tmp_path / "cfg.json")
    assert (code, digest) == (case["code"], case["sha256"])
