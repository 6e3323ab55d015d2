"""End-to-end runs of the command-line surface via subprocess."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from helpers import run_job
from sievekit import cli, gaussseq, objects, qgauss
from sievekit import tubings as tb
from sievekit.objects import CyclicFamily
from sievekit.qgauss import PolyFamily
from sievekit.semigroup import MAX_OBJECTS, Chain, FreeRanked, PositiveIntegers

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


def listings(monkeypatch) -> list:
    """The instance classes whose windows are listed from now on, once per
    listing (``_list``; ``elements`` reads the window's kept listing)."""
    calls = []
    for cls in (PositiveIntegers, Chain, FreeRanked):
        def counted(self, window, listed=cls._list):
            calls.append(type(self))
            return listed(self, window)

        monkeypatch.setattr(cls, "_list", counted)
    return calls


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

    def test_difference_outside_the_window_is_a_config_error(self, tmp_path):
        # over integer extras, (2, 0) - (1, 1) = (1, -1) lies below the
        # window's extra bounds, so c_from_a has no "a" value there
        inst = {"kind": "chain", "base": "zpos", "extra": "ints",
                "window": {"max_rank": 2, "extra_bounds": [[0, 1]]}}
        seq = {"instance": inst, "role": "b", "support": [[[1, 1], 1]]}
        res = run_cli(tmp_path, "seq", {"sequence": seq})
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "widen the role-a spec" in res.stderr

    def test_a_window_missing_a_difference_is_refused_whatever_c_is(self, tmp_path):
        # the window above, with c = (1, 0, 0, 0): c is 0 at every t whose
        # difference s - t leaves the window, so c_from_a would never read one
        inst = {"kind": "chain", "base": "zpos", "extra": "ints",
                "window": {"max_rank": 2, "extra_bounds": [[0, 1]]}}
        support = [[[1, 0], 1], [[1, 1], 0], [[2, 0], 1], [[2, 1], 0]]
        seq = {"instance": inst, "role": "a", "support": support}
        res = run_cli(tmp_path, "seq", {"sequence": seq})
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "widen the role-a spec" in res.stderr

    @pytest.mark.parametrize("sequence, element", [
        # a value at 4 past max_rank 3, which used to be dropped
        (zpos_sequence("a", {1: 1, 2: 3, 3: 4, 4: 7}, 3), "4"),
        # a role-c value past the extra bounds, which a_from_c used to read
        ({"instance": {"kind": "chain", "extra": "nonneg",
                       "window": {"max_rank": 3, "extra_bounds": [[0, 3]]}},
          "role": "c", "support": [[[1, 0], 1], [[1, 5], 1]]}, "(1, 5)"),
    ], ids=["zpos-role-a", "chain-role-c"])
    def test_support_outside_the_window_is_a_config_error(self, tmp_path, sequence, element):
        res = run_cli(tmp_path, "seq", {"sequence": sequence})
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert f"support element {element} lies outside the window" in res.stderr

    def test_a_job_lists_its_window_once(self, monkeypatch):
        calls = listings(monkeypatch)
        payload, code = run_job("seq", {"sequence": LUCAS_SEQ})
        assert code == 0 and payload["ok"] is True
        assert calls == [PositiveIntegers]

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

    @pytest.mark.parametrize("content", [b"[" * 100_000, b'{"\xff": 1}'],
                             ids=["deeply-nested", "not-utf-8"])
    def test_unparsable_config(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        res = subprocess.run(
            PKG + ["seq", "--config", str(path)], capture_output=True, text=True
        )
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        assert "Traceback" not in res.stderr


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

    def test_from_c_with_a_large_weight(self, tmp_path):
        # the size of a weight must not set a recursion depth
        cfg = {"construction": "from-c", "sequence": zpos_sequence("c", {1: 600}, 3)}
        res = run_cli(tmp_path, "qgauss", cfg)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert [sum(e["poly"]) for e in payload["family"]] == [600, 600**2, 600**3]
        assert payload["ok"] is True

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


    @pytest.mark.parametrize("construction, role, row", [
        ("ramanujan", "a", [1, 3, 4, 7, 11, 18, 29, 47]),  # the Lucas rows
        ("from-b", "b", [1, 1, 1, 1, 2, 2, 4, 5]),
        ("from-c", "c", [1, 1]),
    ], ids=["ramanujan", "from-b", "from-c"])
    def test_a_sequence_construction_lists_its_window_once(
        self, monkeypatch, construction, role, row
    ):
        calls = listings(monkeypatch)
        support = dict(enumerate(row, start=1))
        cfg = {"construction": construction, "sequence": zpos_sequence(role, support, 8)}
        payload, code = run_job("qgauss", cfg)
        assert code == 0 and payload["ok"] is True
        assert calls == [PositiveIntegers]

    def test_fund_lists_every_element_with_a_negative_bead(self, tmp_path):
        cfg = {
            "construction": "fund",
            "beads": [["a", 4], ["b", -1]],
            "window": {"max_rank": 7, "max_total": 4},
        }
        res = run_cli(tmp_path, "qgauss", cfg)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert [e["element"] for e in payload["family"]] == [
            {"a": 1, "b": 3}, {"a": 1, "b": 2}, {"a": 1, "b": 1}, {"a": 1},
            {"a": 2, "b": 2}, {"a": 2, "b": 1},
        ]
        assert payload["checks"]["definition"]["checked"] == 6


class TestCsp:
    def test_words_over_many_letters_at_a_small_rank(self, tmp_path):
        cfg = {
            "family": "words",
            "beads": [[f"l{i:02d}", 1] for i in range(20)],
            "window": {"max_rank": 2},
        }
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert len(payload["counts"]) == 20 + 20 * 21 // 2
        assert sum(c for _, c in payload["counts"]) == 20 + 20 * 20
        assert payload["ok"] is True

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

    @pytest.mark.parametrize("cfg", [
        {"family": "words", "beads": [["a", 1], ["b", 1]], "window": {"max_rank": 5}},
        {"family": "festoons-content", "beads": [["a", 1], ["b", 1]],
         "window": {"max_rank": 5}},
        {"family": "festoons-colored", "c": zpos_sequence("c", {1: 1, 2: 1}, 6)},
    ], ids=lambda cfg: cfg["family"])
    def test_a_job_lists_its_window_once(self, monkeypatch, cfg):
        calls = listings(monkeypatch)
        payload, code = run_job("csp", cfg)
        assert code == 0 and payload["ok"] is True
        assert len(calls) == 1

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


# A free instance of beads a (length 1) and b (length 2), and a role-c
# sequence on it given as label -> multiplicity objects.
FREE_BEADS = [["a", 1], ["b", 2]]
FREE_MAX_RANK = 6
FREE_C = {(1, 0): 1, (0, 1): 2, (1, 1): 1}
FREE_C_SEQ = {
    "instance": {"kind": "free", "beads": FREE_BEADS, "window": {"max_rank": FREE_MAX_RANK}},
    "role": "c",
    "support": [[{"a": i, "b": j}, v] for (i, j), v in FREE_C.items()],
}


def free_rank(s) -> int:
    return s[0] + 2 * s[1]


def free_a() -> dict:
    """a_s = rank(s) c_s + sum over the support t < s of c_t a_(s - t), by
    plain recursion in rank order."""
    window = [(i, j) for i in range(FREE_MAX_RANK + 1) for j in range(FREE_MAX_RANK // 2 + 1)
              if 1 <= free_rank((i, j)) <= FREE_MAX_RANK]
    a: dict = {}
    for s in sorted(window, key=free_rank):
        a[s] = free_rank(s) * FREE_C.get(s, 0) + sum(
            c * a[s[0] - t[0], s[1] - t[1]]
            for t, c in FREE_C.items()
            if t != s and s[0] >= t[0] and s[1] >= t[1]
        )
    return a


def free_element(obj: dict) -> tuple:
    """The multiplicities of a printed free element (zeros left out)."""
    assert set(obj) <= {"a", "b"} and all(obj.values())
    return obj.get("a", 0), obj.get("b", 0)


class TestFreeInstance:
    """Jobs over a free instance, their support read from label objects,
    against the a row of the c-recursion."""

    def test_seq(self, tmp_path):
        res = run_cli(tmp_path, "seq", {"sequence": FREE_C_SEQ})
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        a = free_a()
        elements = [free_element(e) for e in payload["elements"]]
        assert sorted(elements) == sorted(a)
        rows = {role: dict(zip(elements, payload["rows"][role])) for role in "abc"}
        assert rows["a"] == a
        assert rows["c"] == {s: FREE_C.get(s, 0) for s in a}
        # a_s sums rank(t) b_t over the t with s = d t
        for s in a:
            assert a[s] == sum(
                free_rank((s[0] // d, s[1] // d)) * rows["b"][s[0] // d, s[1] // d]
                for d in range(1, FREE_MAX_RANK + 1)
                if s[0] % d == 0 and s[1] % d == 0
            )
        assert payload["ok"] is True

    def test_festoons_colored(self, tmp_path):
        res = run_cli(tmp_path, "csp", {"family": "festoons-colored", "c": FREE_C_SEQ})
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert {free_element(e): count for e, count in payload["counts"]} == free_a()
        assert payload["checks"]["lyndon"]["ok"] and payload["checks"]["csp"]["ok"]


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

    # Above the benchmark's sizes (interval 7, cycle 6): the large Schröder
    # numbers, sum_k C(n+k, n-k) C(2k, k) / (k+1), count the interval
    # tubings, and the central Delannoy numbers D(n-1), sum_k C(n-1, k)
    # C(n-1+k, k), the improper cycle tubings.
    @pytest.mark.parametrize("kind,row", [
        ("interval", [2, 6, 22, 90, 394, 1806, 8558, 41586]),
        ("cycle", [1, 3, 13, 63, 321, 1683, 8989, 48639]),
    ], ids=["interval", "cycle"])
    def test_max_n_8_matches_the_closed_forms(self, tmp_path, kind, row):
        def closed(n):
            if kind == "interval":
                return sum(comb(n + k, n - k) * comb(2 * k, k) // (k + 1) for k in range(n + 1))
            return sum(comb(n - 1, k) * comb(n - 1 + k, k) for k in range(n))

        assert [closed(n) for n in range(1, 9)] == row
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({"kind": kind, "max_n": 8}))
        argv = ["bijection", "--config", str(cfg), "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["per_n"] == [[n, count] for n, count in enumerate(row, 1)]
        assert payload["total"] == sum(row) and payload["ok"] is True


TUBINGS = {"family": "tubings-cycle"}
Q_POWER = {"name": "q-power", "window": {"max_rank": 4}}
WORDS = {"family": "words", "window": {"max_rank": 3}}
HALF_BOUND = {"max_rank": 3, "extra_bounds": [[0, 2.5]]}
PARTIAL_A = zpos_sequence("a", {1: 1}, 2)  # a role-a support must cover the window
ROOTLESS = {"max_rank": 2, "extra_bounds": [[2, 2]]}
# an ints extra has no default bounds, so this window cannot be enumerated
INTS_CHAIN_C = {"instance": {"kind": "chain", "window": {"max_rank": 3}},
                "role": "c", "support": []}


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
            ("riordan", {"series": {"numer": [1, 0.5]}, "max_n": 3}),
            ("riordan", {"series": {"numer": [1, "1/2"]}, "max_n": 3}),
            ("riordan", {"series": {"numer": [1], "denom": [2, 1]}, "max_n": 3}),
            ("riordan", {"series": {"numer": "11"}, "max_n": 3}),
            ("riordan", {"series": {"numer": [1], "denom": [True, -1]}, "max_n": 3}),
            ("riordan", {"series": {"numer": [1], "denom": []}, "max_n": 3}),
            ("csp", {"family": "festoons-colored", "c": zpos_sequence("c", {1: -1}, 3)}),
            ("csp", {"family": "festoons-content", "beads": [["e", 0], ["x", 1]],
                     "window": {"max_rank": 3, "max_total": 3}}),
            # extra_bounds that are not a list of (lo, hi) pairs
            ("csp", {**WORDS, "beads": [["a", 1], ["b", 1]],
                     "window": {"max_rank": 3, "extra_bounds": {"a": 1}}}),
            ("csp", {**WORDS, "beads": [["a", 1], ["b", 1]],
                     "window": {"max_rank": 3, "extra_bounds": [[0, 1, 2]]}}),
            # windows that do not fit their instance
            ("seq", {"sequence": INTS_CHAIN_C}),
            ("qgauss", {"construction": "from-c", "sequence": INTS_CHAIN_C}),
            ("csp", {"family": "festoons-colored", "c": INTS_CHAIN_C}),
            ("qgauss", {"closed_form": {"name": "q-binomial", "window": {
                "max_rank": 3, "extra_bounds": [[0, 3], [0, 3]]}}}),
            ("qgauss", {"construction": "fund", "beads": [["e", 0], ["x", 1]],
                        "window": {"max_rank": 3}}),
            # bead labels that are not strings
            ("csp", {**WORDS, "beads": [[None, 1], ["b", 1]]}),
            ("csp", {**WORDS, "beads": [[1, 1], ["1", 1]]}),
            # windows holding (2, 2) but not its root (1, 1)
            ("qgauss", {"closed_form": {"name": "q-binomial", "window": ROOTLESS}}),
            ("seq", {"sequence": {"instance": {"kind": "chain", "extra": "nonneg",
                                               "window": ROOTLESS},
                                  "role": "b", "support": []}}),
            # a construction name or a check that JSON cannot hash
            ("qgauss", {"construction": [], "sequence": LUCAS_SEQ}),
            ("qgauss", {"construction": "from-c", "sequence": LUCAS_SEQ,
                        "checks": [["roots"]]}),
            # a role other than exactly "a", "b" or "c"
            ("seq", {"sequence": {**LUCAS_SEQ, "role": "C"}}),
            ("seq", {"sequence": {**LUCAS_SEQ, "role": ["c"]}}),
            ("seq", {"sequence": {**LUCAS_SEQ, "role": " c"}}),
            ("csp", {"family": "festoons-colored", "c": {**LUCAS_SEQ, "role": "C"}}),
            # keys that belong to another qgauss construction
            ("qgauss", {"construction": "fund", "beads": [["a", 1]],
                        "window": {"max_rank": 3}, "sequence": LUCAS_SEQ}),
            ("qgauss", {"construction": "from-c", "sequence": LUCAS_SEQ,
                        "window": {"max_rank": 3}}),
            ("qgauss", {"construction": "from-c", "sequence": LUCAS_SEQ,
                        "beads": [["a", 1]]}),
            ("qgauss", {"closed_form": Q_POWER, "construction": "from-c"}),
            ("qgauss", {"closed_form": Q_POWER, "sequence": LUCAS_SEQ}),
            # no check at all, which would report "ok": true having proved nothing
            ("qgauss", {"construction": "ramanujan", "checks": [],
                        "sequence": zpos_sequence("a", {n: 2**n for n in range(1, 6)}, 5)}),
            ("qgauss", {"closed_form": Q_POWER, "checks": []}),
            # keys the job does not read, whatever their value
            ("qgauss", {"closed_form": {"name": "q-binomial", "base": 7, "window": {
                "max_rank": 3, "extra_bounds": [[0, 3]]}}}),
            ("csp", {**TUBINGS, "max_rank": 3, "grading": "free", "colors": 1}),
            ("csp", {**TUBINGS, "max_rank": 3, "grading": "all", "colors": 1}),
            # words are festoons of length-1 beads only
            ("csp", {**WORDS, "beads": [["a", 2], ["b", 1]]}),
            # a family name that JSON cannot hash
            ("csp", {**WORDS, "family": ["words"], "beads": [["a", 1]]}),
        ],
    )
    def test_refused(self, tmp_path, command, cfg):
        res = run_cli(tmp_path, command, cfg)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        assert res.stdout == ""

    @pytest.mark.parametrize("role", ["C", ["c"], " c"])
    def test_unknown_role_is_named(self, tmp_path, role):
        res = run_cli(tmp_path, "seq", {"sequence": {**LUCAS_SEQ, "role": role}})
        assert res.returncode == 1
        assert f"unknown role {role!r}" in res.stderr

    @pytest.mark.parametrize("grading", [["x"], {"free": 1}, "Free"])
    def test_unknown_grading_is_named(self, tmp_path, grading):
        res = run_cli(tmp_path, "csp", {**TUBINGS, "max_rank": 4, "grading": grading})
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        assert f"unknown grading {grading!r}" in res.stderr

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


    @pytest.mark.parametrize(
        "cfg, estimate",
        [
            ({"family": "words", "beads": [[x, 1] for x in "abcd"],
              "window": {"max_rank": 11}}, sum(4**n for n in range(1, 12))),
            ({"family": "festoons-colored", "c": zpos_sequence("c", {1: 2}, 18)},
             2**19 - 2),
            ({"family": "signed-festoons", "c": zpos_sequence("c", {1: -2}, 18)},
             2**19 - 2),
        ],
        ids=["words", "festoons-colored", "signed-festoons"],
    )
    def test_object_count_cap_names_the_estimate(self, tmp_path, cfg, estimate):
        res = run_cli(tmp_path, "csp", cfg)
        assert res.returncode == 1
        assert res.stderr.startswith("config error:")
        assert str(estimate) in res.stderr


# A chain with a "pos" extra bounded by (-3, 0) has no element: every extra
# must be at least 1.
EMPTY_POS_CHAIN = {"kind": "chain", "extra": "pos",
                   "window": {"max_rank": 3, "extra_bounds": [-3, 0]}}


class TestEmptyWindows:
    """A window with no element would run every check on nothing and
    report ok; each config entry point refuses it."""

    def refused(self, tmp_path, command, cfg):
        res = run_cli(tmp_path, command, cfg)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "no element of the instance lies in the window" in res.stderr

    def test_seq_on_an_empty_chain_window(self, tmp_path):
        seq = {"instance": EMPTY_POS_CHAIN, "role": "a", "support": []}
        self.refused(tmp_path, "seq", {"sequence": seq})

    def test_q_binomial_below_its_extra_floor(self, tmp_path):
        window = {"max_rank": 3, "extra_bounds": [[-5, -1]]}
        cfg = {"closed_form": {"name": "q-binomial", "window": window}}
        self.refused(tmp_path, "qgauss", cfg)

    def test_colored_festoons_on_an_empty_chain_window(self, tmp_path):
        c = {"instance": EMPTY_POS_CHAIN, "role": "c", "support": []}
        self.refused(tmp_path, "csp", {"family": "festoons-colored", "c": c})

    def test_fund_over_a_rank_zero_bead(self, tmp_path):
        cfg = {"construction": "fund", "beads": [["a", 0]],
               "window": {"max_rank": 3, "max_total": 3}}
        self.refused(tmp_path, "qgauss", cfg)


def _nested_chain(extras: list[str], window: dict) -> dict:
    inst: dict | str = "zpos"
    for extra in extras:
        inst = {"kind": "chain", "base": inst, "extra": extra}
    return {**inst, "window": window}


class TestWindowCap:
    """A window of more elements than the cap is refused before it is
    listed: positive integers and chains count their window up front, a
    free instance stops its walk at the cap."""

    def refused(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = subprocess.run(PKG + [command, "--config", str(path)],
                             capture_output=True, text=True, timeout=2)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "elements" in res.stderr and "cap" in res.stderr

    def test_positive_integers(self, tmp_path):
        cfg = {"sequence": zpos_sequence("b", {}, 10**9)}
        self.refused(tmp_path, "seq", cfg)

    @pytest.mark.parametrize(
        "extras, max_rank",
        # 400 * 401**3, about 2.6e10 elements; a rank too high for the
        # window's root check to run before the cap
        [(["nonneg"] * 3, 400), (["pos"], 10**9)],
        ids=["three-extras", "high-rank"],
    )
    def test_chain(self, tmp_path, extras, max_rank):
        instance = _nested_chain(extras, {"max_rank": max_rank})
        cfg = {"sequence": {"instance": instance, "role": "b", "support": []}}
        self.refused(tmp_path, "seq", cfg)

    def test_free_instance(self, tmp_path):
        # C(32, 16) - 1 words over 16 letters, about 6e8
        beads = [[f"x{i}", 1] for i in range(16)]
        cfg = {"family": "words", "beads": beads, "window": {"max_rank": 16}}
        self.refused(tmp_path, "csp", cfg)

    def test_free_instance_of_one_bead_at_a_huge_rank(self):
        # 10**9 multiplicities of one bead: counted, not listed or stacked
        cfg = {"construction": "fund", "beads": [["a", 1]],
               "window": {"max_rank": 10**9}}
        start = time.perf_counter()
        with pytest.raises(ValueError) as refusal:
            cli._decode_qgauss(cfg)
        assert time.perf_counter() - start < 1
        assert str(refusal.value).endswith(
            f"{10**9} or more window elements, above the cap of {MAX_OBJECTS}")


class TestUnreadWindowKeys:
    """A window bound that the instance never reads is refused, not
    ignored."""

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("qgauss", {"construction": "fund", "beads": [["a", 1]],
                        "window": {"max_rank": 3, "extra_bounds": [[0, 2]]}},
             "extra_bounds"),
            ("seq", {"sequence": {"instance": {"kind": "zpos",
                                               "window": {"max_rank": 3, "max_total": 2}},
                                  "role": "a", "support": []}},
             "max_total"),
            ("seq", {"sequence": {"instance": {"kind": "zpos", "window": {
                "max_rank": 3, "extra_bounds": [[0, 2]]}},
                                  "role": "a", "support": []}},
             "extra_bounds"),
            ("qgauss", {"closed_form": {"name": "q-binomial", "window": {
                "max_rank": 3, "extra_bounds": [[0, 3]], "max_total": 2}}},
             "max_total"),
        ],
        ids=["free-extra-bounds", "zpos-max-total", "zpos-extra-bounds", "chain-max-total"],
    )
    def test_refused(self, tmp_path, command, cfg, key):
        res = run_cli(tmp_path, command, cfg)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert f"window sets {key}" in res.stderr


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

    def test_unwritable_out_file_is_a_config_error(self, tmp_path):
        out = tmp_path / "absent" / "x.json"
        res = run_cli(tmp_path, "bijection", {"kind": "interval", "max_n": 3},
                      extra=["--out", str(out)])
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "Traceback" not in res.stderr


class TestRefusalPoint:
    """main reads, decodes and opens --out in one block, the one place that
    turns a refusal into a config error; the run and the render come after."""

    def run_main(self, tmp_path, command: str, cfg: dict, *extra) -> int:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return cli.main([command, "--config", str(path), "--format", "json", *extra])

    def test_a_config_error_leaves_an_existing_out_file_as_it_was(self, tmp_path):
        out = tmp_path / "rows.json"
        out.write_bytes(b'{"earlier": "output"}\n')
        cfg = {"series": {"numer": [1]}, "max_n": 25}  # past the cap of 24
        res = run_cli(tmp_path, "riordan", cfg, extra=["--out", str(out)])
        assert res.returncode == 1 and res.stderr.startswith("config error:")
        assert out.read_bytes() == b'{"earlier": "output"}\n'

    def test_an_unwritable_out_file_is_refused_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def run(*job):
            raise AssertionError("the run started")

        monkeypatch.setitem(cli._COMMANDS, "bijection", (cli._decode_bijection, run))
        out = tmp_path / "absent" / "x.json"
        code = self.run_main(tmp_path, "bijection", {"kind": "interval", "max_n": 3},
                             "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_an_error_inside_the_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        def run(*job):
            raise ValueError("inside the run")

        monkeypatch.setitem(cli._COMMANDS, "riordan", (cli._decode_riordan, run))
        with pytest.raises(ValueError, match="inside the run"):
            self.run_main(tmp_path, "riordan", {"series": {"numer": [1]}, "max_n": 3})

    def test_a_failed_run_leaves_an_existing_out_file_as_it_was(self, tmp_path, monkeypatch):
        def run(*job):
            raise RuntimeError("inside the run")

        monkeypatch.setitem(cli._COMMANDS, "bijection", (cli._decode_bijection, run))
        out = tmp_path / "keep.txt"
        out.write_bytes(b"earlier\n")
        with pytest.raises(RuntimeError, match="inside the run"):
            self.run_main(tmp_path, "bijection", {"kind": "interval", "max_n": 3},
                          "--out", str(out))
        assert out.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "keep.txt"]

    def test_a_failed_run_leaves_no_out_file_it_created(self, tmp_path, monkeypatch):
        def run(*job):
            raise RuntimeError("inside the run")

        monkeypatch.setitem(cli._COMMANDS, "bijection", (cli._decode_bijection, run))
        out = tmp_path / "absent.txt"
        with pytest.raises(RuntimeError, match="inside the run"):
            self.run_main(tmp_path, "bijection", {"kind": "interval", "max_n": 3},
                          "--out", str(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_a_longer_out_file_is_replaced_whole(self, tmp_path):
        out = tmp_path / "rows.json"
        out.write_bytes(b"earlier output, longer than the new one" * 100)
        code = self.run_main(tmp_path, "riordan", {"series": {"numer": [1]}, "max_n": 3},
                             "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["rows"]

    def test_a_fifo_as_out_file_is_written_once(self, tmp_path):
        # a second open after the run would find the reader gone: the run
        # of this job lasts long enough for the reader to see the first close
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "interval", "max_n": 7}))
        proc = subprocess.Popen(PKG + ["bijection", "--config", str(cfg), "--format", "json",
                                       "--out", str(fifo)])
        try:
            text = fifo.read_text()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
        assert json.loads(text)["ok"]

    def test_the_null_device_as_out_file_stays_a_device(self, tmp_path):
        code = self.run_main(tmp_path, "riordan", {"series": {"numer": [1]}, "max_n": 3},
                             "--out", os.devnull)
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_a_directory_as_out_file_is_refused_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        def run(*job):
            raise AssertionError("the run started")

        monkeypatch.setitem(cli._COMMANDS, "bijection", (cli._decode_bijection, run))
        code = self.run_main(tmp_path, "bijection", {"kind": "interval", "max_n": 3},
                             "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_a_deeply_nested_chain_is_a_config_error(self, tmp_path):
        # 600 nested chains pass Chain.__hash__'s recursion limit in the decode
        instance = _nested_chain(["nonneg"] * 600, {"max_rank": 1})
        cfg = {"sequence": {"instance": instance, "role": "b", "support": []}}
        res = run_cli(tmp_path, "seq", cfg)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "Traceback" not in res.stderr


class TestUsage:
    """A command line that argparse refuses exits 1 like any config error;
    2 means a verification failed."""

    @pytest.mark.parametrize("argv", [
        [],
        ["verify"],
        ["riordan", "--config", "{cfg}", "--format", "xml"],
    ], ids=["no-command", "unknown-command", "unknown-format"])
    def test_a_bad_command_line_is_a_config_error(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"series": {"numer": [1]}, "max_n": 3}))
        argv = [arg.format(cfg=cfg) for arg in argv]
        res = subprocess.run(PKG + argv, capture_output=True, text=True)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("config error:")
        assert "Traceback" not in res.stderr

    def test_help_exits_0(self):
        res = subprocess.run(PKG + ["--help"], capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout.startswith("usage: sievekit")

    def test_one_process_reuses_its_parser_and_leaks_nothing(self, tmp_path, capsys):
        """main builds its parser once per process: after a refused command
        line, runs of two commands in both formats, one taking the default
        format after a json run, print what a fresh process prints."""
        bij = tmp_path / "bij.json"
        bij.write_text(json.dumps({"kind": "cycle", "max_n": 4}))
        rio = tmp_path / "rio.json"
        rio.write_text(json.dumps({"series": {"numer": [1], "denom": [1, -1]}, "max_n": 5}))
        runs = [
            ["bijection", "--config", str(bij), "--format", "xml"],  # refused
            ["bijection", "--config", str(bij), "--format", "json"],
            ["riordan", "--config", str(rio), "--format", "json"],
            ["bijection", "--config", str(bij)],  # table, the default
            ["riordan", "--config", str(rio), "--format", "table"],
        ]
        assert cli._parser() is cli._parser()
        for argv in runs:
            fresh = subprocess.run(PKG + argv, capture_output=True, text=True)
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert code == 0 or argv[-1] == "xml"


# -- byte identity of the congruence path -----------------------------------------


def _lucas(max_n: int) -> list[int]:
    out = [1, 3]
    while len(out) < max_n:
        out.append(out[-1] + out[-2])
    return out[:max_n]


LUCAS_A = {n: v for n, v in enumerate(_lucas(24), start=1)}
PLANTED_A = {**LUCAS_A, 15: LUCAS_A[15] + 1}

# (command, config, exit code, SHA-256 of the JSON stdout of commit a645866)
GOLDEN = {
    "seq": ("seq", {"sequence": zpos_sequence("a", LUCAS_A, 24)}, 0,
            "bb4c016ad2d744d2ee1a6e04a856e170573f7adb7b5784ba4fb92908dfb440e2"),
    "ramanujan": ("qgauss", {"construction": "ramanujan",
                             "sequence": zpos_sequence("a", LUCAS_A, 24)}, 0,
                  "6d282784f0a3bb94c9754c42580a78a166acb346658f09b09b34abda0c7e6ba0"),
    "planted-ramanujan": ("qgauss", {"construction": "ramanujan",
                                     "sequence": zpos_sequence("a", PLANTED_A, 24)}, 2,
                          "5d25b44005a70a12f7a104ca752240a75b1fa7112b046ee9fcb07bf33b1b2302"),
    "from-b": ("qgauss", {"construction": "from-b",
                          "sequence": zpos_sequence(
                              "b", {n: n % 5 - 2 for n in range(1, 25)}, 24)}, 0,
               "197298e92d7be60bb88cbc64081d02393840a7873c180d17f49f93e208319c77"),
    "from-c": ("qgauss", {"construction": "from-c",
                          "sequence": zpos_sequence(
                              "c", {1: 1, 2: -2, 3: 1, 5: 2, 9: -1}, 14)}, 0,
               "5899953bccc8cacefa231e30d60ddc0478fb56af867bcc620ba78c270fa710d3"),
    "fund": ("qgauss", {"construction": "fund",
                        "beads": [["a", 1], ["b", 2], ["c", 3]],
                        "window": {"max_rank": 9}}, 0,
             "04f741d6dc7eaf7d2d1e5c8d227aac1f7b1c12b4c938ab4198ae29a4ec109e46"),
    "q-binomial-grid": ("qgauss", {"closed_form": {
        "name": "q-binomial",
        "window": {"max_rank": 12, "extra_bounds": [[0, 12]]}}}, 0,
        "d5316af7888b9a0dac34f4dbda9845778dfb3b88c9727fbb3f9884e0d0fdc078"),
    "q-power": ("qgauss", {"closed_form": {"name": "q-power", "base": -3,
                                           "window": {"max_rank": 9}}}, 0,
                "81d9d18075374cee7d32c883c64d3faef991de4007cd48fde6592b54090dc0d0"),
    "riordan-denom": ("riordan", {"series": {"numer": [1, 1, -1], "denom": [1, -1]},
                                  "max_n": 12}, 0,
                      "3873a9a2803f7783ae5edadf2f7b7e231ad37a78905e04133a8271c476f4b3aa"),
    "riordan-polynomial": ("riordan", {"series": {"numer": [1, 1, 1]}, "max_n": 12}, 0,
                           "47f404ecc7086064a8e1a7d4e5d00eb31500f866aa297e5cf5672cb7cdb8c36c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_congruence_path_stdout_is_byte_identical(tmp_path, name):
    command, cfg, code, digest = GOLDEN[name]
    res = run_cli(tmp_path, command, cfg)
    assert res.returncode == code, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


GOLDEN_JOBS = json.loads(Path(__file__).with_name("golden_configs.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_JOBS, ids=lambda case: case["job"])
def test_every_golden_job_lists_its_window_at_most_once(monkeypatch, case):
    calls = listings(monkeypatch)
    payload, code = run_job(case["command"], case["config"])
    assert code == case["code"]
    assert len(calls) <= 1


# The work the runs do, by the module that defines it, where each run
# imports it from when it starts.  predicted_count, the csp admission, calls
# a_from_b and a_from_c through the names objects bound at its import, which
# patching gaussseq leaves alone: only cmd_seq's transforms are forbidden.
WORK = {
    qgauss: ("construct_ramanujan", "construct_from_b", "construct_from_c", "fund_family",
             "check_qgauss_definition", "check_qgauss_roots", "verify_csp", "verify_lyndon",
             "verify_signed_csp"),
    objects: ("festoon_census",),
    tb: ("improper_cycle_census", "tubing_masks", "round_trip"),
    gaussseq: ("riordan_rows", "a_from_b", "b_from_a", "a_from_c", "c_from_a"),
}


def forbid_work(monkeypatch) -> None:
    """Make every work entry point raise, in the module that defines it."""
    def work(*args, **kwargs):
        raise AssertionError("work started")

    for module, names in WORK.items():
        for name in names:
            monkeypatch.setattr(module, name, work)
    monkeypatch.setattr(PolyFamily, "from_function", classmethod(work))
    monkeypatch.setattr(CyclicFamily, "from_generator", classmethod(work))


@pytest.mark.parametrize("case", GOLDEN_JOBS, ids=lambda case: case["job"])
def test_every_golden_decode_does_no_work(monkeypatch, case):
    decode, run = cli._COMMANDS[case["command"]]
    forbid_work(monkeypatch)
    job = decode(case["config"])
    with pytest.raises(AssertionError, match="work started"):  # the guard holds
        run(*job)
