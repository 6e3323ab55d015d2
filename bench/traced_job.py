"""Run one sievekit CLI job in this process under the tracer.

    python bench/traced_job.py TRACE_OUT JOB_ID COMMAND CONFIG

with ``src`` on PYTHONPATH.  The job's JSON output goes to stdout exactly
as ``python -m sievekit COMMAND --config CONFIG --format json`` prints it,
and the exit code is the CLI's; the spans, counters and cache statistics
are written to TRACE_OUT as JSON when the job ends.
"""

from __future__ import annotations

import json
import sys

import sievekit.cli

import tracer as tr


def main(argv: list[str]) -> int:
    trace_out, job, command, config = argv
    t = tr.Tracer(int(job))
    finish = tr.install(t)
    code = sievekit.cli.main([command, "--config", config, "--format", "json"])
    sys.stdout.flush()
    data = finish()
    data["records"] = t.records
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
