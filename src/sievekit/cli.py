"""Batch command-line surface over the library.

One JSON config per invocation; deterministic output (stable key order,
no timestamps).  Exit codes: 0 all checks pass, 1 configuration problem,
2 verification failure with the witness named in the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Callable

from .gaussseq import (
    NonIntegerWitness,
    SequenceSpec,
    TruncatedSeries,
    a_from_b,
    a_from_c,
    b_from_a,
    c_from_a,
    riordan_rows,
    sequence_from_config,
)
from .objects import (
    Census,
    CyclicFamily,
    festoon_census,
    festoons_repeated,
    predicted_count,
    verify_csp,
    verify_lyndon,
    verify_signed_csp,
)
from .qgauss import (
    NonIntegerCoefficient,
    PolyFamily,
    check_qgauss_definition,
    check_qgauss_roots,
    construct_from_b,
    construct_from_c,
    construct_ramanujan,
    fund_family,
)
from .qpoly import q_binomial, q_power
from .semigroup import (
    Chain,
    FreeRanked,
    PositiveIntegers,
    Window,
    admit,
    encode_element,
    require_keys,
    strict_int,
    window_elements,
    window_from_config,
)
from . import tubings as tb


class ConfigError(ValueError):
    pass


@contextmanager
def _refused(where: str = ""):
    """Re-raise what the library refuses (a ValueError or TypeError) as a
    ConfigError, its message prefixed by ``where``."""
    try:
        yield
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}{e}")


def _require_keys(cfg: dict, allowed: set[str], required: set[str], where: str) -> None:
    with _refused():
        require_keys(cfg, allowed, required, where)


def _strict_int(cfg: dict, key: str, where: str, default: int | None = None) -> int:
    """An integer setting; floats, strings and booleans are refused."""
    with _refused():
        return strict_int(cfg.get(key, default), f"{where}: {key}")


def _int_list(cfg: dict, key: str, where: str) -> list[int]:
    """A list of integers; floats, strings and booleans are refused."""
    value = cfg[key]
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be a list of integers, got {value!r}")
    with _refused():
        return [strict_int(v, f"{where}: {key} entry") for v in value]


def _sequence(cfg: dict, key: str) -> SequenceSpec:
    with _refused():
        return sequence_from_config(cfg[key])


def _beads(cfg: dict) -> FreeRanked:
    with _refused():
        return FreeRanked(tuple((b, length) for b, length in cfg["beads"]))


def _window(cfg: dict, instance) -> Window:
    """The config's window, refused unless it fits the instance and holds
    an element of it.  The window keeps its listing for the job."""
    with _refused():
        window = window_from_config(cfg["window"])
        window_elements(instance, window)
        return window


def _witness(payload: dict, instance, e: ValueError) -> tuple[dict, int]:
    """The failed payload naming the element where a division was not exact
    (``e`` is a NonIntegerWitness or a NonIntegerCoefficient)."""
    payload["ok"] = False
    payload["witness"] = {"element": encode_element(instance, e.element), "detail": str(e)}
    return payload, 2


def _verdict(payload: dict, reports: dict, instance) -> tuple[dict, int]:
    """The payload with each check's report under its name, and ok when
    every check holds."""
    payload["checks"] = {name: rep.to_jsonable(instance) for name, rep in reports.items()}
    payload["ok"] = all(rep.ok for rep in reports.values())
    return payload, 0 if payload["ok"] else 2


# -- seq ---------------------------------------------------------------------------


def cmd_seq(cfg: dict) -> tuple[dict, int]:
    _require_keys(cfg, {"sequence"}, {"sequence"}, "seq config")
    spec = _sequence(cfg, "sequence")
    payload: dict = {"command": "seq", "role": spec.role}
    try:
        if spec.role == "a":
            a = spec
        elif spec.role == "b":
            a = a_from_b(spec)
        else:  # SequenceSpec admits no role but a, b and c
            a = a_from_c(spec)
        b = b_from_a(a)
        c = c_from_a(a)
    except NonIntegerWitness as e:
        return _witness(payload, spec.instance, e)
    except ValueError as e:  # a difference s - t the window does not hold
        raise ConfigError(f"seq config: {e}")
    elements = spec.instance.elements(spec.window)
    payload["elements"] = [encode_element(spec.instance, s) for s in elements]
    payload["rows"] = {"a": a.row(), "b": b.row(), "c": c.row()}
    # b_from_a divided every sieve sum of a by its rank, so a is Gauss
    payload["ok"] = True
    return payload, 0


# -- qgauss ------------------------------------------------------------------------

_CONSTRUCTIONS: dict[str, tuple[str, Callable]] = {
    "ramanujan": ("a", construct_ramanujan),
    "from-b": ("b", construct_from_b),
    "from-c": ("c", construct_from_c),
}


def _closed_form_family(cfg: dict) -> PolyFamily:
    _require_keys(
        cfg, {"name", "window", "base"}, {"name", "window"}, "closed_form config"
    )
    name = cfg["name"]
    if name == "q-binomial":
        inst = Chain(PositiveIntegers(), "nonneg")
        build = lambda s: q_binomial(s[0], s[1])
    elif name == "q-power":
        lam = _strict_int(cfg, "base", "closed_form config", 2)
        inst = PositiveIntegers()
        build = lambda n: q_power(lam, n)
    else:
        raise ConfigError(f"closed_form config: unknown name {name!r}")
    return PolyFamily.from_function(inst, _window(cfg, inst), build)


def cmd_qgauss(cfg: dict) -> tuple[dict, int]:
    if not isinstance(cfg, dict):
        raise ConfigError(f"qgauss config: expected an object, got {cfg!r}")
    runs = {"definition": check_qgauss_definition, "roots": check_qgauss_roots}
    checks = cfg.get("checks", list(runs))
    # an empty list would check nothing and report ok
    if not isinstance(checks, list) or not checks or not all(
        isinstance(c, str) and c in runs for c in checks
    ):
        raise ConfigError(f"qgauss config: bad checks {checks!r}")
    payload: dict = {"command": "qgauss"}
    if "closed_form" in cfg:
        _require_keys(cfg, {"closed_form", "checks"}, set(), "qgauss config")
        family = _closed_form_family(cfg["closed_form"])
        payload["construction"] = "closed-form"
    elif "construction" in cfg:
        name = cfg["construction"]
        payload["construction"] = name
        if name == "fund":
            _require_keys(cfg, {"construction", "beads", "window", "checks"}, set(),
                          "qgauss config")
            if "beads" not in cfg or "window" not in cfg:
                raise ConfigError("qgauss config: fund needs beads and window")
            beads = _beads(cfg)
            family = fund_family(beads, _window(cfg, beads))
        else:
            _require_keys(cfg, {"construction", "sequence", "checks"}, set(), "qgauss config")
            if not isinstance(name, str) or name not in _CONSTRUCTIONS:
                raise ConfigError(f"qgauss config: unknown construction {name!r}")
            role, build = _CONSTRUCTIONS[name]
            if "sequence" not in cfg:
                raise ConfigError("qgauss config: construction needs a sequence")
            spec = _sequence(cfg, "sequence")
            if spec.role != role:
                raise ConfigError(
                    f"qgauss config: {name} needs a role-{role} sequence, "
                    f"got role-{spec.role}"
                )
            try:
                family = build(spec)
            except NonIntegerCoefficient as e:
                return _witness(payload, spec.instance, e)
    else:
        _require_keys(cfg, {"checks"}, set(), "qgauss config")
        raise ConfigError("qgauss config: needs construction or closed_form")
    payload["family"] = family.to_jsonable()
    reports = {name: check(family) for name, check in runs.items() if name in checks}
    return _verdict(payload, reports, family.instance)


# -- csp ---------------------------------------------------------------------------


def _family_festoons(cfg: dict, name: str) -> tuple[Census, PolyFamily, bool]:
    """A words or festoon family, refused before any census is built when
    it is malformed or predicts more objects than ``admit`` lets through."""
    if name in ("words", "festoons-content"):
        _require_keys(cfg, {"family", "beads", "window"}, {"beads", "window"}, "csp config")
        source = _beads(cfg)
        window = _window(cfg, source)
        if name == "words" and set(source.lengths) != {1}:
            raise ConfigError("csp config: words need all bead lengths equal to 1")
    else:
        key = "b" if name == "festoons-repeated" else "c"
        _require_keys(cfg, {"family", key}, {key}, "csp config")
        source, window = _sequence(cfg, key), None
        if source.role != key:
            raise ConfigError(
                f"csp config: {name} needs a role-{key} sequence, got role-{source.role}"
            )
    with _refused("csp config: "):
        admit(predicted_count(name, source, window), "predicted objects")
    if window is not None:
        return festoon_census(name, source, window), fund_family(source, window), False
    if key == "b":
        # festoon_census counts this family as well, but the benchmark's
        # trace (bench/tracer.py, bench/tests/test_bench.py) reads the
        # objects layer of this job from the span of festoons_repeated and
        # its object count; the job moves to the census with the benchmark.
        fam = CyclicFamily.from_generator(
            source.instance, source.window, lambda s: festoons_repeated(source, s)
        )
        return fam.census(), construct_from_b(source), False
    return festoon_census(name, source), construct_from_c(source), name == "signed-festoons"


def _family_tubings(cfg: dict) -> tuple[Census, PolyFamily, bool]:
    _require_keys(
        cfg,
        {"family", "max_rank", "grading", "colors"},
        {"max_rank"},
        "csp config",
    )
    max_rank = _strict_int(cfg, "max_rank", "csp config")
    colors = _strict_int(cfg, "colors", "csp config", 1)
    grading = cfg.get("grading", "tubes")
    with _refused("csp config: "):
        census, poly = tb.improper_cycle_census(max_rank, grading, colors)
    return census, poly, False


def cmd_csp(cfg: dict) -> tuple[dict, int]:
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("csp config: missing family name")
    name = cfg["family"]
    if name in ("words", "festoons-content", "festoons-colored", "festoons-repeated",
                "signed-festoons"):
        census, poly, signed = _family_festoons(cfg, name)
    elif name == "tubings-cycle":
        census, poly, signed = _family_tubings(cfg)
    else:
        raise ConfigError(
            f"csp config: {name!r} is not a cyclic family "
            "(expected words, festoons-content, festoons-colored, "
            "festoons-repeated, signed-festoons, or tubings-cycle)"
        )
    payload: dict = {"command": "csp", "family": name}
    inst = census.instance
    payload["counts"] = [[encode_element(inst, s), count] for s, count, _ in census.rows]
    if signed:
        reports = {"signed-csp": verify_signed_csp(census, poly)}
    else:
        reports = {"lyndon": verify_lyndon(census), "csp": verify_csp(census, poly)}
    return _verdict(payload, reports, inst)


# -- bijection ---------------------------------------------------------------------


def cmd_bijection(cfg: dict) -> tuple[dict, int]:
    """Round-trip every tubing of each size through the bijection.

    Per size n the tubings stream past as bitsets; each must map to a path
    of the target set P_n and come back.  That makes the map injective
    into P_n, and a tubing count equal to |P_n| makes it a bijection, so
    neither the paths nor the images are stored.  The witness is the first
    tubing that fails, else the smallest path in the symmetric difference
    of the images and P_n, which only a count mismatch collects.
    """
    _require_keys(cfg, {"kind", "max_n"}, {"kind", "max_n"}, "bijection config")
    kind = cfg["kind"]
    max_n = _strict_int(cfg, "max_n", "bijection config")
    with _refused("bijection config: "):
        tb.check_bijection_job(kind, max_n)
    payload: dict = {"command": "bijection", "kind": kind, "per_n": []}
    total = 0
    for n in range(1, max_n + 1):
        if kind == "interval":
            length, target = 2 * n, "schroder"
            fwd, inv = tb.interval_mask_to_schroder, tb.schroder_to_interval_mask
        else:
            length, target = 2 * (n - 1), "delannoy"
            fwd, inv = tb.cycle_mask_to_delannoy, tb.delannoy_to_cycle_mask
        count = 0
        for bits, _ in tb.tubing_masks(n, kind):
            p = fwd(n, bits)
            if not tb.is_path(p, length, target) or inv(n, p) != bits:
                tubing = tb.tubing_to_jsonable(tb.mask_to_tubing(n, bits, kind))
                witness = {"n": n, "tubing": tubing, "path": p}
                break
            count += 1
        else:
            if count == tb.count_paths(length, target):
                payload["per_n"].append([n, count])
                total += count
                continue
            images = {fwd(n, bits) for bits, _ in tb.tubing_masks(n, kind)}
            odd = images.symmetric_difference(tb.enumerate_paths(length, target))
            witness = {"n": n, "path": min(odd), "detail": "image mismatch"}
        payload["ok"] = False
        payload["witness"] = witness
        return payload, 2
    payload["total"] = total
    payload["ok"] = True
    return payload, 0


# -- riordan -----------------------------------------------------------------------


def cmd_riordan(cfg: dict) -> tuple[dict, int]:
    _require_keys(cfg, {"series", "max_n"}, {"series", "max_n"}, "riordan config")
    series = cfg["series"]
    _require_keys(series, {"numer", "denom"}, {"numer"}, "riordan series")
    max_n = _strict_int(cfg, "max_n", "riordan config")
    if not 1 <= max_n <= 24:
        raise ConfigError("riordan config: max_n must be in 1..24")
    order = max_n + 1
    numer = _int_list(series, "numer", "riordan series")
    denom = _int_list(series, "denom", "riordan series") if "denom" in series else [1]
    if not denom or denom[0] not in (1, -1):
        raise ConfigError(f"riordan series: denom must start with 1 or -1, got {denom}")
    with _refused("riordan series: "):
        D = TruncatedSeries.from_rational(numer, denom, order)
    return {"command": "riordan", "rows": riordan_rows(D, max_n), "ok": True}, 0


# -- rendering and entry -----------------------------------------------------------


def _render_table(payload: dict) -> str:
    lines: list[str] = []
    cmd = payload.get("command")
    if cmd == "seq" and "rows" in payload:
        headers = ["element"] + [json.dumps(e) for e in payload["elements"]]
        rows = [[role] + [str(v) for v in payload["rows"][role]] for role in "abc"]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    elif cmd == "qgauss" and "family" in payload:
        for entry in payload["family"]:
            lines.append(f"{json.dumps(entry['element'])}: {entry['poly']}")
    elif cmd == "csp" and "counts" in payload:
        for elem, count in payload["counts"]:
            lines.append(f"{json.dumps(elem)}: {count} objects")
    elif cmd == "bijection" and payload.get("ok"):
        for n, count in payload["per_n"]:
            lines.append(f"n={n}: {count} roundtrips")
        lines.append(f"{payload['total']} roundtrips OK")
    elif cmd == "riordan":
        for n, row in payload["rows"]:
            lines.append(f"n={n}: " + " ".join(str(v) for v in row))
    for name, rep in sorted(payload.get("checks", {}).items()):
        lines.append(
            f"check {name}: {'ok' if rep['ok'] else 'FAILED'}"
            f" ({rep['checked']} checked)"
        )
        for fl in rep.get("failures", [])[:5]:
            lines.append(f"  failure: {json.dumps(fl)}")
    if "witness" in payload and payload["witness"]:
        lines.append(f"verification failure: {json.dumps(payload['witness'], sort_keys=True)}")
    if not payload.get("ok", True) and "witness" not in payload:
        lines.append("verification failure (see checks)")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "seq": cmd_seq,
    "qgauss": cmd_qgauss,
    "csp": cmd_csp,
    "bijection": cmd_bijection,
    "riordan": cmd_riordan,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sievekit",
        description="sieve congruences, sieving polynomials, and their object families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON job config")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--out", help="write output here instead of stdout")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not JSON, too deep
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        payload, code = _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_table(payload)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"config error: --out: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
