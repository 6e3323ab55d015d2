"""Tests of the benchmark's own logic (not part of the library's test suite).

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs as jb  # noqa: E402
import run as rn  # noqa: E402
import tracer as tr  # noqa: E402


def _cli(job: jb.Job, tmp_path: Path) -> tuple[int, dict]:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job.config))
    res = subprocess.run(
        [sys.executable, "-m", "sievekit", job.command, "--config", str(path),
         "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return res.returncode, json.loads(res.stdout)


def _job(workload: str, name: str, seed: int = 3) -> jb.Job:
    return next(j for j in jb.generate(workload, seed) if j.name == name)


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", jb.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert jb.generate(workload, 11) == jb.generate(workload, 11)


@pytest.mark.parametrize("workload", ("congruence", "sieving"))
def test_seed_changes_the_inputs(workload):
    assert jb.generate(workload, 11) != jb.generate(workload, 12)


def test_role_a_supports_list_every_window_element():
    for seed in range(5):
        for job in jb.generate("congruence", seed):
            seq = job.config.get("sequence")
            if seq and seq["role"] == "a":
                max_rank = seq["instance"]["window"]["max_rank"]
                assert [n for n, _ in seq["support"]] == list(range(1, max_rank + 1))


def test_oracles_match_known_values():
    assert [jb.large_schroder(n) for n in range(1, 6)] == [2, 6, 22, 90, 394]
    assert [jb.central_delannoy(n) for n in range(5)] == [1, 3, 13, 63, 321]
    assert jb.a_from_c_row({1: 1, 2: 1}, 6) == [1, 3, 4, 7, 11, 18]
    assert jb.riordan_rows([1], [1, -1], 4)[-1] == [4, [20, 10, 4, 1]]


# -- correctness gate -------------------------------------------------------------


def test_checker_accepts_real_output_and_rejects_doctored(tmp_path):
    job = _job("congruence", "fund")
    code, payload = _cli(job, tmp_path)
    assert jb.check_output(job, code, payload) is None
    doctored = json.loads(json.dumps(payload))
    doctored["family"][3]["poly"][0] += 1
    assert jb.check_output(job, code, doctored) is not None
    assert jb.check_output(job, 2, payload) is not None


def test_checker_rejects_doctored_seq_row():
    job = _job("congruence", "seq-trace2")
    row = job.expect["a"]
    payload = {"ok": True, "elements": list(range(1, len(row) + 1)),
               "rows": {"a": list(row)}}
    assert jb.check_output(job, 0, payload) is None
    payload["rows"]["a"][7] += 1
    assert jb.check_output(job, 0, payload) == "seq row a differs from the generated row"


def test_checker_planted_rows_need_their_witness(tmp_path):
    job = _job("congruence", "planted-seq")
    code, payload = _cli(job, tmp_path)
    assert code == 2
    assert jb.check_output(job, code, payload) is None
    payload["witness"]["element"] += 1
    assert "witness" in jb.check_output(job, code, payload)


def test_checker_rejects_doctored_counts(tmp_path):
    job = _job("tubings", "tubings-all")
    code, payload = _cli(job, tmp_path)
    assert jb.check_output(job, code, payload) is None
    payload["counts"][-1][1] -= 1
    assert jb.check_output(job, code, payload) == "tubing counts differ"


# -- self-time arithmetic ------------------------------------------------------------


def _rec(id_, parent, name, layer, dur, calls=1):
    return [id_, parent, 0, name, layer, 0.0, dur, calls, dur]


def test_self_times_on_a_hand_built_tree():
    # cli.main 10s
    #   cmd_qgauss 8s (cli)
    #     construct_from_c 6s (qgauss)
    #       IntPoly.__mul__ x40, 2.5s (qpoly, aggregate)
    #       _SemigroupBase.decompositions 1s (semigroup)
    #         IntPoly.__mul__ x3, 0.25s (qpoly, aggregate)
    #     check_qgauss_roots 1.5s (qgauss)
    records = [
        _rec(0, None, "cli.main", "cli", 10.0),
        _rec(1, 0, "cmd_qgauss", "cli", 8.0),
        _rec(2, 1, "construct_from_c", "qgauss", 6.0),
        _rec(3, 2, "IntPoly.__mul__", "qpoly", 2.5, calls=40),
        _rec(4, 2, "_SemigroupBase.decompositions", "semigroup", 1.0),
        _rec(5, 4, "IntPoly.__mul__", "qpoly", 0.25, calls=3),
        _rec(6, 1, "check_qgauss_roots", "qgauss", 1.5),
    ]
    selfs = tr.self_times(records)
    assert selfs == {0: 2.0, 1: 0.5, 2: 2.5, 3: 2.5, 4: 0.75, 5: 0.25, 6: 1.5}
    layers = tr.layer_self_times(records)
    assert layers["cli"] == 2.5
    assert layers["qgauss"] == 4.0
    assert layers["qpoly"] == 2.75
    assert layers["semigroup"] == 0.75
    assert sum(layers.values()) == 10.0
    groups = tr.group_times(records)
    assert groups["qpoly.mul_s"] == 2.75
    assert groups["qgauss.construct_s"] == 6.0
    assert groups["qgauss.check_roots_s"] == 1.5
    assert tr.call_totals(records)["IntPoly.__mul__"] == 43


def test_speed_scale_uses_the_probe_readings_around_each_interval(monkeypatch):
    readings = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(rn, "speed_probe", lambda: next(readings))
    scale = rn.SpeedScale()
    assert scale(1.0) == pytest.approx(rn.PROBE_REF_S / 0.005)
    assert scale(2.0) == pytest.approx(2.0 * rn.PROBE_REF_S / 0.008)


def test_group_time_counts_nested_members_once():
    records = [
        _rec(0, None, "construct_ramanujan", "qgauss", 5.0),
        _rec(1, 0, "PolyFamily.from_function", "qgauss", 4.0),
        _rec(2, None, "PolyFamily.from_function", "qgauss", 1.0),
    ]
    assert tr.group_times(records)["qgauss.construct_s"] == 6.0


def test_tracer_aggregates_calls_under_one_parent():
    t = tr.Tracer()
    root = t.open("cli.main", "cli", aggregate=False)
    for k in range(3):
        rec = t.open("IntPoly.__mul__", "qpoly", aggregate=True)
        t.close(rec, 1.0 + k, 1.5 + k)
    t.close(root, 0.0, 10.0)
    assert len(t.records) == 2
    assert t.records[1][tr.CALLS] == 3
    assert t.records[1][tr.DUR] == 1.5
    assert tr.self_times(t.records)[0] == 8.5


def test_traced_job_accounts_for_the_whole_command(tmp_path):
    job = _job("sieving", "festoons-repeated")
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job.config))
    out = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(BENCH / "traced_job.py"), str(out), "0", job.command,
         str(cfg)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 0
    assert jb.check_output(job, 0, json.loads(res.stdout)) is None
    data = json.loads(out.read_text())
    records = data["records"]
    roots = [r for r in records if r[tr.PARENT] is None]
    assert [r[tr.NAME] for r in roots] == ["cli.main"]
    layers = tr.layer_self_times(records)
    assert sum(layers.values()) == pytest.approx(roots[0][tr.DUR])
    assert max(layers, key=layers.get) == "objects"
    data["stdout_bytes"] = len(res.stdout)
    metrics = tr.layer_metrics([data])
    assert set(metrics) == {name for name, _ in tr.PER_LAYER}
    assert metrics["objects.enumerated"] == sum(c for _, c in json.loads(res.stdout)["counts"])
    assert metrics["objects.useful_ratio"] == 1.0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jb.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == tr.PER_LAYER + [
        ("trace.untraced_wall_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "warm_wall_s", "setup_s", "peak_rss_mb",
    ]
