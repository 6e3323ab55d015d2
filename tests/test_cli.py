"""End-to-end runs of the command-line surface via subprocess."""

from __future__ import annotations

import hashlib
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
