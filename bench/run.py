"""Seeded cold/warm benchmark of the sievekit CLI.

    python3 bench/run.py --workload congruence --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed generates the workload's job list
(``jobs.py``); every job is a CLI config with its expected exit code and an
invariant computed without sievekit.  One job runs at a time, no threads:
a closed loop with a single client.

``--trace 0`` measures the end-to-end metrics.  Each round times three
fresh interpreters importing ``sievekit.cli`` (set-up), then runs the job
list cold (one fresh ``python -m sievekit`` process per job) and warm (the
same jobs through ``sievekit.cli.main`` in this process, after one untimed
pass).  Rounds repeat until ``--seconds`` have passed, at least three; a
job's time is its median over the rounds, and set-up is the median of all
its samples.  Every timed interval is scaled to a reference machine speed
read by a probe before and after it (``SpeedScale``); the benchmark and its
jobs share one CPU so that the probe reads the CPU the jobs run on.

``--trace 1`` measures the per-layer metrics.  Each round runs the job list
cold twice, untraced and under the tracer (``traced_job.py``); the trace
overhead is the difference.  The spans of the first traced round are
written to ``.bench_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the run context and the SHA-256 of the
workload's concatenated stdout.  The exit code is 1 when any job fails
(timeout, wrong exit code, output that is not JSON, a broken invariant or
output that differs between runs) and 2 when sievekit is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import jobs as jb  # noqa: E402
import tracer as tr  # noqa: E402

SETUP_PER_ROUND = 3
PROBE_SAMPLES = 5
PROBE_REF_S = 0.005  # the probe's usual reading on a 2-vCPU Xeon VM
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
JOB_TIMEOUT = 60


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


# -- run context ---------------------------------------------------------------


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _probe_work() -> None:
    """A fixed piece of pure-Python work like sievekit's own, and no sievekit.

    Big-integer polynomial products and exact division, a set of word
    permutations closed under rotation, dict counting, tuple sorting and
    Fraction sums.
    """
    p = [(k * 7919) % 23 - 11 for k in range(70)]
    a = list(range(1, 90))
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            prod[i + j] += x * y * 12345678901
    q = [1, 0, 0, 0, 0, 0, -1]
    num = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            num[i + j] += x * y
    for i in range(len(p) - 1, -1, -1):
        c = num[i + len(q) - 1] // q[-1]
        for j, y in enumerate(q):
            num[i + j] -= c * y
    seen: set = set()
    for w in sorted(set(itertools.permutations((0, 0, 1, 1, 2, 3)))):
        if w not in seen:
            seen.update(w[k:] + w[:k] for k in range(len(w)))
    counts: dict = {}
    for k in range(6000):
        counts[(k * 7919) % 1013] = counts.get((k * 7919) % 1013, 0) + k
    sorted(((k * 31) % 97, -k, (k,)) for k in range(3000))
    sum((Fraction(k, k + 1) for k in range(1, 120)), Fraction(0))


def speed_probe() -> float:
    """Median time of PROBE_SAMPLES runs of ``_probe_work``: the machine's speed now.

    The cyclic garbage collector is off while it runs, so that the heap the
    warm passes leave behind does not change the reading.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_SAMPLES):
            start = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - start)
    finally:
        if gc_was_on:
            gc.enable()
    return statistics.median(times)


class SpeedScale:
    """Scales timed intervals to the speed of the reference machine.

    The host's speed drifts by tens of percent within seconds, as other
    tenants come and go.  A probe runs before and after every interval; the
    interval is scaled by PROBE_REF_S over the mean of the two readings, so
    it reads as the time the same work takes while the probe takes
    PROBE_REF_S.  Intervals must follow one another: the probe after one
    is the probe before the next.
    """

    def __init__(self) -> None:
        self.before = speed_probe()

    def __call__(self, seconds: float) -> float:
        after = speed_probe()
        scaled = seconds * PROBE_REF_S * 2 / (self.before + after)
        self.before = after
        return scaled


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sievekit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "speed_probe_start_s": speed_probe(),
    }


# -- running one job -------------------------------------------------------------


class Runner:
    """Runs jobs cold, warm or traced, and checks every output."""

    def __init__(self, jobs: list[jb.Job], workdir: Path) -> None:
        self.jobs = jobs
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.paths = []
        for i, job in enumerate(jobs):
            path = workdir / f"{i:02d}-{job.name}.json"
            path.write_text(json.dumps(job.config))
            self.paths.append(str(path))
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: list[bytes | None] = [None] * len(jobs)
        self.cli = None

    def _child(self, argv: list[str]) -> tuple[int | None, bytes, float, int]:
        """(exit code or None on timeout, stdout, seconds, peak RSS in KiB)."""
        err_path = self.workdir / "stderr.txt"
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
        code: int | None
        signal.alarm(JOB_TIMEOUT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            signal.alarm(0)
            code = os.waitstatus_to_exitcode(status)
        except JobTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            out, code = b"", None
        finally:
            signal.alarm(0)
            proc.stdout.close()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return code, out, elapsed, usage.ru_maxrss

    def setup_time(self) -> float:
        argv = [sys.executable, "-c", "import sievekit.cli"]
        code, _, elapsed, _ = self._child(argv)
        if code != 0:
            raise RuntimeError("import sievekit.cli failed")
        return elapsed

    def cold(self, i: int) -> tuple[float, int]:
        argv = [sys.executable, "-m", "sievekit", self.jobs[i].command,
                "--config", self.paths[i], "--format", "json"]
        code, out, elapsed, rss = self._child(argv)
        self._check(i, code, out, "cold")
        return elapsed, rss

    def traced(self, i: int, trace_path: Path) -> tuple[float, dict | None]:
        argv = [sys.executable, str(BENCH / "traced_job.py"), str(trace_path), str(i),
                self.jobs[i].command, self.paths[i]]
        code, out, elapsed, _ = self._child(argv)
        ok = self._check(i, code, out, "traced")
        if not ok or not trace_path.exists():
            return elapsed, None
        data = json.loads(trace_path.read_text())
        trace_path.unlink()
        data["stdout_bytes"] = len(out)
        return elapsed, data

    def warm(self, i: int) -> float:
        if self.cli is None:
            sys.path.insert(0, str(SRC))
            import sievekit.cli

            self.cli = sievekit.cli
        argv = [self.jobs[i].command, "--config", self.paths[i], "--format", "json"]
        buf = io.StringIO()
        code: int | None
        signal.alarm(JOB_TIMEOUT)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except JobTimeout:
            code = None
        except Exception:  # an uncaught error is a failed job, as in the CLI
            traceback.print_exc(file=sys.stderr)
            code = 1
        finally:
            elapsed = time.perf_counter() - start
            signal.alarm(0)
        self._check(i, code, buf.getvalue().encode(), "warm")
        return elapsed

    def _check(self, i: int, code: int | None, out: bytes, how: str) -> bool:
        self.attempted += 1
        job = self.jobs[i]
        reason = None
        if code is None:
            reason = f"timed out after {JOB_TIMEOUT} s"
        else:
            try:
                payload = json.loads(out)
            except ValueError:
                payload = None
                reason = f"stdout is not valid JSON (exit {code})"
            if reason is None:
                reason = jb.check_output(job, code, payload)
        if reason is None:
            if self.first_out[i] is None:
                self.first_out[i] = out
            elif out != self.first_out[i]:
                reason = "stdout differs from the first run"
        if reason is not None:
            self.failures.append(f"{job.name} ({how}): {reason}")
            return False
        return True

    def stdout_digest(self) -> str:
        h = hashlib.sha256()
        for out in self.first_out:
            h.update(out or b"")
        return h.hexdigest()


# -- the two run modes ---------------------------------------------------------------


def _sum_medians(per_job: list[list[float]]) -> float:
    return sum(statistics.median(times) for times in per_job)


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics: setup, cold and warm passes, at the reference speed.

    Every timed interval is scaled by ``SpeedScale``; the raw times are kept
    in the rows of the result file.
    """
    n = len(runner.jobs)
    runner.setup_time()  # untimed: compiles bytecode and warms the file cache
    for i in range(n):  # the untimed warm pass fills the caches
        runner.warm(i)
    setup: list[float] = []
    cold: list[list[float]] = [[] for _ in range(n)]
    warm: list[list[float]] = [[] for _ in range(n)]
    raw_cold: list[list[float]] = [[] for _ in range(n)]
    raw_warm: list[list[float]] = [[] for _ in range(n)]
    rss_kib: list[list[int]] = [[] for _ in range(n)]
    scale = SpeedScale()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for _ in range(SETUP_PER_ROUND):
            setup.append(scale(runner.setup_time()))
        for i in range(n):
            elapsed, rss = runner.cold(i)
            raw_cold[i].append(elapsed)
            cold[i].append(scale(elapsed))
            rss_kib[i].append(rss)
        for i in range(n):
            elapsed = runner.warm(i)
            raw_warm[i].append(elapsed)
            warm[i].append(scale(elapsed))
        rounds += 1
    metrics = {
        "wall_s": (_sum_medians(cold), "s"),
        "warm_wall_s": (_sum_medians(warm), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(statistics.median(r) for r in rss_kib) / 1024, "MB"),
    }
    rows = [
        {"job": job.name, "cold_s": cold[i], "warm_s": warm[i],
         "raw_cold_s": raw_cold[i], "raw_warm_s": raw_warm[i]}
        for i, job in enumerate(runner.jobs)
    ]
    return metrics, rows


def measure_traced(runner: Runner, seconds: float, trace_file: Path) -> tuple[dict, list]:
    """Per-layer metrics from traced cold passes, and the tracing overhead."""
    n = len(runner.jobs)
    runner.setup_time()  # untimed: compiles bytecode and warms the file cache
    plain: list[list[float]] = [[] for _ in range(n)]
    traced: list[list[float]] = [[] for _ in range(n)]
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
        for i in range(n):
            plain[i].append(runner.cold(i)[0])
        datas = []
        for i in range(n):
            elapsed, data = runner.traced(i, runner.workdir / f"trace-{i}.json")
            traced[i].append(elapsed)
            datas.append(data)
        if all(d is not None for d in datas):
            passes.append(tr.layer_metrics(datas))
            if rounds == 0:
                with open(trace_file, "w", encoding="utf-8") as fh:
                    json.dump({"jobs": [
                        {"job": job.name, **d} for job, d in zip(runner.jobs, datas)
                    ]}, fh)
        rounds += 1
    metrics = {}
    if passes:
        for name, unit in tr.PER_LAYER:
            metrics[name] = (statistics.median_low(p[name] for p in passes), unit)
    untraced_wall, traced_wall = _sum_medians(plain), _sum_medians(traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    rows = [
        {"job": job.name, "cold_s": plain[i], "traced_s": traced[i]}
        for i, job in enumerate(runner.jobs)
    ]
    return metrics, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jb.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sievekit" / "cli.py").is_file():
        print(f"bench: no sievekit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    context = run_context(args.workload, args.seed, bool(args.trace))
    # One CPU for this process and every job it starts, so that the speed
    # probe reads the CPU the jobs run on: the host's CPUs drift apart.
    context["cpu"] = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {context["cpu"]})
    except OSError:
        context["cpu"] = None
    jobs = jb.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        runner = Runner(jobs, Path(tmp))
        if args.trace:
            metrics, rows = measure_traced(runner, args.seconds, OUT / f"trace-{stem}.json")
        else:
            metrics, rows = measure(runner, args.seconds)
    context["loadavg_end"] = _loadavg()
    context["speed_probe_end_s"] = speed_probe()
    failed = len(runner.failures)
    digest = runner.stdout_digest()

    print("context " + json.dumps(context, sort_keys=True))
    for row in rows:
        cells = " ".join(
            f"{key}={statistics.median(v):.4f}" for key, v in row.items() if key != "job"
        )
        print(f"job {row['job']}: {cells}")
    for key in ("raw_cold_s", "raw_warm_s"):
        if key in rows[0]:
            total = sum(statistics.median(row[key]) for row in rows)
            print(f"unscaled {key} {total:.6g} s (sum of per-job medians)")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"sha256 {args.workload} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_frac {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} job runs)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, "sha256": digest, "jobs": rows,
                   "failures": runner.failures, "fail_frac": failed / runner.attempted,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
