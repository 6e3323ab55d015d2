"""End-to-end runs of the command-line surface via subprocess."""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb

import pytest

PKG = [sys.executable, "-m", "sievekit"]


def run_cli(tmp_path, command: str, cfg: dict, fmt: str = "json", extra=()):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return subprocess.run(
        PKG + [command, "--config", str(path), "--format", fmt, *extra],
        capture_output=True,
        text=True,
    )


def zpos_sequence(role: str, support: dict, max_rank: int) -> dict:
    return {
        "instance": {"kind": "zpos", "window": {"max_rank": max_rank}},
        "role": role,
        "support": [[n, v] for n, v in support.items()],
    }


LUCAS_SEQ = zpos_sequence("c", {1: 1, 2: 1}, 8)


class TestSeq:
    def test_lucas_roles(self, tmp_path):
        res = run_cli(tmp_path, "seq", {"sequence": LUCAS_SEQ})
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["rows"]["a"] == [1, 3, 4, 7, 11, 18, 29, 47]
        assert payload["rows"]["b"] == [1, 1, 1, 1, 2, 2, 4, 5]
        assert payload["rows"]["c"] == [1, 1, 0, 0, 0, 0, 0, 0]
        assert payload["ok"] is True

    def test_lucas_table(self, tmp_path):
        res = run_cli(tmp_path, "seq", {"sequence": LUCAS_SEQ}, fmt="table")
        assert res.returncode == 0
        rows = [" ".join(line.split()) for line in res.stdout.splitlines()]
        assert "a 1 3 4 7 11 18 29 47" in rows

    def test_non_integer_transform_names_witness(self, tmp_path):
        cfg = {"sequence": zpos_sequence("a", {n: n for n in range(1, 7)}, 6)}
        res = run_cli(tmp_path, "seq", cfg)
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["ok"] is False
        assert payload["witness"]["element"] == 2
        assert "1/2" in payload["witness"]["detail"]

    def test_unknown_keys_are_config_errors(self, tmp_path):
        res = run_cli(tmp_path, "seq", {"sequence": LUCAS_SEQ, "mystery": 1})
        assert res.returncode == 1
        assert "config error" in res.stderr

    def test_missing_config_file(self, tmp_path):
        res = subprocess.run(
            PKG + ["seq", "--config", str(tmp_path / "absent.json")],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 1
        assert "config error" in res.stderr

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = subprocess.run(
            PKG + ["seq", "--config", str(path)], capture_output=True, text=True
        )
        assert res.returncode == 1
        assert "config error" in res.stderr


class TestQGauss:
    def test_ramanujan_construction(self, tmp_path):
        cfg = {
            "construction": "ramanujan",
            "sequence": zpos_sequence("a", {n: 2**n for n in range(1, 6)}, 5),
        }
        res = run_cli(tmp_path, "qgauss", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        polys = {json.dumps(e["element"]): e["poly"] for e in payload["family"]}
        assert polys["1"] == [2]
        assert polys["2"] == [3, 1]
        assert polys["3"] == [4, 2, 2]
        assert payload["checks"]["definition"]["ok"]
        assert payload["checks"]["roots"]["ok"]

    def test_closed_form_q_binomial(self, tmp_path):
        cfg = {
            "closed_form": {
                "name": "q-binomial",
                "window": {"max_rank": 5, "extra_bounds": [[0, 5]]},
            }
        }
        res = run_cli(tmp_path, "qgauss", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        polys = {json.dumps(e["element"]): e["poly"] for e in payload["family"]}
        assert polys["[4, 2]"] == [1, 1, 2, 1, 1]
        assert payload["ok"] is True

    def test_non_integer_coefficient_is_a_verification_failure(self, tmp_path):
        cfg = {
            "construction": "ramanujan",
            "sequence": zpos_sequence("a", {n: n for n in range(1, 5)}, 4),
        }
        res = run_cli(tmp_path, "qgauss", cfg)
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["witness"]["element"] == 2

    def test_single_check_selection(self, tmp_path):
        cfg = {
            "construction": "from-c",
            "sequence": LUCAS_SEQ,
            "checks": ["definition"],
        }
        res = run_cli(tmp_path, "qgauss", cfg)
        payload = json.loads(res.stdout)
        assert res.returncode == 0
        assert set(payload["checks"]) == {"definition"}

    def test_deterministic_output(self, tmp_path):
        cfg = {
            "construction": "fund",
            "beads": [["a", 1], ["b", 1]],
            "window": {"max_rank": 5},
        }
        first = run_cli(tmp_path, "qgauss", cfg)
        second = run_cli(tmp_path, "qgauss", cfg)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True


class TestCsp:
    def test_colored_festoons(self, tmp_path):
        cfg = {"family": "festoons-colored", "c": LUCAS_SEQ}
        cfg["c"] = zpos_sequence("c", {1: 1, 2: 1}, 6)
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert [c for _, c in payload["counts"]] == [1, 3, 4, 7, 11, 18]
        assert payload["checks"]["csp"]["ok"]
        assert payload["checks"]["lyndon"]["ok"]

    def test_words(self, tmp_path):
        cfg = {
            "family": "words",
            "beads": [["a", 1], ["b", 1]],
            "window": {"max_rank": 5},
        }
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 0
        assert json.loads(res.stdout)["ok"] is True

    def test_tubings_cycle(self, tmp_path):
        cfg = {"family": "tubings-cycle", "max_rank": 5, "grading": "free"}
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        counts = {json.dumps(e): c for e, c in payload["counts"]}
        assert counts["[4, 1]"] == 44
        assert counts["[5, 5]"] == 1

    def test_signed_festoons(self, tmp_path):
        cfg = {
            "family": "signed-festoons",
            "c": zpos_sequence("c", {n: -1 for n in range(1, 6)}, 5),
        }
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert [c for _, c in payload["counts"]] == [1, 3, 7, 15, 31]
        assert payload["checks"]["signed-csp"]["ok"]

    def test_unknown_family(self, tmp_path):
        res = run_cli(tmp_path, "csp", {"family": "hexagons", "max_rank": 3})
        assert res.returncode == 1
        assert "config error" in res.stderr


class TestBijection:
    def test_interval_totals(self, tmp_path):
        res = run_cli(tmp_path, "bijection", {"kind": "interval", "max_n": 5})
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["per_n"] == [[1, 2], [2, 6], [3, 22], [4, 90], [5, 394]]
        assert payload["total"] == 514

    def test_cycle_totals_table(self, tmp_path):
        res = run_cli(
            tmp_path, "bijection", {"kind": "cycle", "max_n": 5}, fmt="table"
        )
        assert res.returncode == 0
        assert "401 roundtrips OK" in res.stdout

    def test_size_cap(self, tmp_path):
        res = run_cli(tmp_path, "bijection", {"kind": "cycle", "max_n": 99})
        assert res.returncode == 1


TUBINGS = {"family": "tubings-cycle"}
Q_POWER = {"name": "q-power", "window": {"max_rank": 4}}
WORDS = {"family": "words", "window": {"max_rank": 3}}
HALF_BOUND = {"max_rank": 3, "extra_bounds": [[0, 2.5]]}
PARTIAL_A = zpos_sequence("a", {1: 1}, 2)  # a role-a support must cover the window


class TestTubingGuards:
    """Malformed or oversized jobs exit 1 at once, never coerced."""

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("bijection", {"kind": "interval", "max_n": 3.9}),
            ("bijection", {"kind": "interval", "max_n": True}),
            ("bijection", {"kind": "cycle", "max_n": "3"}),
            ("csp", {**TUBINGS, "max_rank": 2.5}),
            ("csp", {**TUBINGS, "max_rank": False}),
            ("csp", {**TUBINGS, "max_rank": 3, "colors": 1.5}),
            ("csp", {**TUBINGS, "max_rank": 3, "colors": -1}),
            ("csp", {**TUBINGS, "max_rank": 3, "colors": 0}),
            ("csp", {**TUBINGS, "max_rank": 0}),
            ("csp", {**TUBINGS, "max_rank": 11}),
            ("bijection", {"kind": "interval", "max_n": 10}),
            ("bijection", {"kind": "cycle", "max_n": 10}),
            ("seq", {"sequence": zpos_sequence("c", {1: 1.7}, 3)}),
            ("seq", {"sequence": zpos_sequence("c", {1: True}, 3)}),
            ("seq", {"sequence": zpos_sequence("c", {1: 1}, 2.5)}),
            ("qgauss", {"closed_form": {"name": "q-binomial", "window": HALF_BOUND}}),
            ("seq", {"sequence": zpos_sequence("a", {1: 1, 3: 4}, 3)}),
            ("qgauss", {"construction": "ramanujan", "sequence": PARTIAL_A}),
            ("riordan", {"series": {"numer": [1, 1]}, "max_n": 3.9}),
            ("qgauss", {"closed_form": {**Q_POWER, "base": 2.5}}),
            ("csp", {**WORDS, "beads": [["a", 1.9], ["b", 1]]}),
        ],
    )
    def test_refused(self, tmp_path, command, cfg):
        res = run_cli(tmp_path, command, cfg)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        assert res.stdout == ""

    def test_colored_count_cap_names_the_estimate(self, tmp_path):
        res = run_cli(tmp_path, "csp", {**TUBINGS, "max_rank": 7, "colors": 9})
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        # the sum over n <= 7, k < n of C(n+k-1, k) C(n-1, k) 9^k
        estimate = sum(
            comb(n + k - 1, k) * comb(n - 1, k) * 9**k
            for n in range(1, 8)
            for k in range(n)
        )
        assert str(estimate) in res.stderr


class TestRiordan:
    def test_catalan_table(self, tmp_path):
        cfg = {"series": {"numer": [1], "denom": [1, -1]}, "max_n": 6}
        res = run_cli(tmp_path, "riordan", cfg)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        for n, row in payload["rows"]:
            assert row == [comb(2 * n - k - 1, n - k) for k in range(1, n + 1)]

    def test_out_file(self, tmp_path):
        cfg = {"series": {"numer": [1, 1]}, "max_n": 4}
        out = tmp_path / "rows.json"
        res = run_cli(tmp_path, "riordan", cfg, extra=["--out", str(out)])
        assert res.returncode == 0
        assert json.loads(out.read_text())["rows"]
