"""Batch command-line surface over the library.

One JSON config per invocation; deterministic output (stable key order,
no timestamps).  Exit codes: 0 all checks pass, 1 configuration problem,
2 verification failure with the witness named in the output.

Each command decodes its whole config in one ``_refused`` block, which
calls the library's decoders and job checks and turns what they refuse
into a ConfigError.  No work starts before the block ends: the
constructions, censuses, round trips and checks run after it, so an
error inside them stays a traceback and is never taken for a config
error.  A new job source decodes its config inside its command's block.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Callable

from .gaussseq import (
    NonIntegerWitness,
    TruncatedSeries,
    a_from_b,
    a_from_c,
    b_from_a,
    c_from_a,
    riordan_rows,
    sequence_from_config,
)
from .objects import (
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
def _refused():
    """Re-raise what the library refuses while a config is decoded (a
    ValueError or TypeError) as a ConfigError with the same message; a
    ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


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
    with _refused():
        require_keys(cfg, {"sequence"}, {"sequence"}, "seq config")
        spec = sequence_from_config(cfg["sequence"])
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

# Each construction with the role of the sequence it builds from; fund
# (role None) builds from beads and a window instead.
_CONSTRUCTIONS: dict[str, tuple[str | None, Callable]] = {
    "ramanujan": ("a", construct_ramanujan),
    "from-b": ("b", construct_from_b),
    "from-c": ("c", construct_from_c),
    "fund": (None, fund_family),
}
_CHECKS = {"definition": check_qgauss_definition, "roots": check_qgauss_roots}


def _closed_form(cfg: dict) -> tuple:
    """The instance, window and polynomial of a closed_form config; only
    q-power reads a base."""
    require_keys(cfg, {"name", "window", "base"}, {"name", "window"}, "closed_form config")
    name = cfg["name"]
    if name == "q-binomial":
        require_keys(cfg, {"name", "window"}, set(), "q-binomial config")
        inst, poly = Chain(PositiveIntegers(), "nonneg"), lambda s: q_binomial(s[0], s[1])
    elif name == "q-power":
        lam = strict_int(cfg.get("base", 2), "closed_form config: base")
        inst, poly = PositiveIntegers(), lambda n: q_power(lam, n)
    else:
        raise ConfigError(f"closed_form config: unknown name {name!r}")
    window = window_from_config(cfg["window"])
    window_elements(inst, window)
    return inst, window, poly


def cmd_qgauss(cfg: dict) -> tuple[dict, int]:
    with _refused():
        keys = {"closed_form", "construction", "sequence", "beads", "window", "checks"}
        require_keys(cfg, keys, set(), "qgauss config")
        checks = cfg.get("checks", list(_CHECKS))
        # an empty list would check nothing and report ok
        if not isinstance(checks, list) or not checks or not all(
            isinstance(c, str) and c in _CHECKS for c in checks
        ):
            raise ConfigError(f"qgauss config: bad checks {checks!r}")
        name = cfg.get("construction")
        if "closed_form" in cfg:  # and no construction
            require_keys(cfg, {"closed_form", "checks"}, set(), "qgauss config")
            name, build = "closed-form", PolyFamily.from_function
            args = _closed_form(cfg["closed_form"])
        elif isinstance(name, str) and name in _CONSTRUCTIONS:
            role, build = _CONSTRUCTIONS[name]
            keys = {"construction", *(("beads", "window") if role is None else ("sequence",))}
            require_keys(cfg, keys | {"checks"}, keys, "qgauss config")
            if role is None:
                beads, window = FreeRanked(cfg["beads"]), window_from_config(cfg["window"])
                window_elements(beads, window)
                args = (beads, window)
            else:
                spec = sequence_from_config(cfg["sequence"])
                if spec.role != role:
                    raise ConfigError(
                        f"qgauss config: {name} needs a role-{role} sequence, "
                        f"got role-{spec.role}"
                    )
                args = (spec,)
        else:
            raise ConfigError(
                "qgauss config: needs closed_form or a construction of "
                f"{', '.join(_CONSTRUCTIONS)}, got {name!r}"
            )
    payload: dict = {"command": "qgauss", "construction": name}
    try:
        family = build(*args)
    except NonIntegerCoefficient as e:  # only a sequence construction divides
        return _witness(payload, args[0].instance, e)
    payload["family"] = family.to_jsonable()
    reports = {c: check(family) for c, check in _CHECKS.items() if c in checks}
    return _verdict(payload, reports, family.instance)


# -- csp ---------------------------------------------------------------------------

# Each festoon family with the key it reads besides "family": "beads" (and
# a window), or the role of the sequence it reads under that role's name.
_FESTOONS = {
    "words": "beads",
    "festoons-content": "beads",
    "festoons-repeated": "b",
    "festoons-colored": "c",
    "signed-festoons": "c",
}


def cmd_csp(cfg: dict) -> tuple[dict, int]:
    """Count a cyclic family per element and run the sieving checks.  A
    family that predicts more objects than ``admit`` lets through is
    refused before its census is built."""
    with _refused():
        if not isinstance(cfg, dict) or "family" not in cfg:
            raise ConfigError("csp config: missing family name")
        name, window = cfg["family"], None
        if name == "tubings-cycle":
            grading = cfg.get("grading", "tubes")
            keys = {"family", "max_rank", "grading", *(("colors",) if grading == "tubes" else ())}
            require_keys(cfg, keys, {"max_rank"}, "csp config")  # only tubes reads colors
            max_rank = strict_int(cfg["max_rank"], "csp config: max_rank")
            colors = strict_int(cfg.get("colors", 1), "csp config: colors")
            tb.check_improper_job(max_rank, grading, colors)
        elif isinstance(name, str) and name in _FESTOONS:
            key = _FESTOONS[name]
            keys = {"family", key, *(("window",) if key == "beads" else ())}
            require_keys(cfg, keys, keys, "csp config")
            if key == "beads":
                source, window = FreeRanked(cfg["beads"]), window_from_config(cfg["window"])
                window_elements(source, window)
            else:
                source = sequence_from_config(cfg[key])
            admit(predicted_count(name, source, window), "predicted objects")
        else:
            raise ConfigError(
                f"csp config: {name!r} is not a cyclic family "
                f"(expected {', '.join(_FESTOONS)} or tubings-cycle)"
            )
    if name == "tubings-cycle":
        census, poly = tb.improper_cycle_census(max_rank, grading, colors)
    elif window is not None:
        census, poly = festoon_census(name, source, window), fund_family(source, window)
    elif name == "festoons-repeated":
        # festoon_census counts this family as well, but the benchmark's
        # trace (bench/tracer.py, bench/tests/test_bench.py) reads the
        # objects layer of this job from the span of festoons_repeated and
        # its object count; the job moves to the census with the benchmark.
        fam = CyclicFamily.from_generator(
            source.instance, source.window, lambda s: festoons_repeated(source, s)
        )
        census, poly = fam.census(), construct_from_b(source)
    else:
        census, poly = festoon_census(name, source), construct_from_c(source)
    payload: dict = {"command": "csp", "family": name}
    inst = census.instance
    payload["counts"] = [[encode_element(inst, s), count] for s, count, _ in census.rows]
    if name == "signed-festoons":
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
    with _refused():
        require_keys(cfg, {"kind", "max_n"}, {"kind", "max_n"}, "bijection config")
        kind = cfg["kind"]
        max_n = strict_int(cfg["max_n"], "bijection config: max_n")
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
    with _refused():
        require_keys(cfg, {"series", "max_n"}, {"series", "max_n"}, "riordan config")
        series = cfg["series"]
        require_keys(series, {"numer", "denom"}, {"numer"}, "riordan series")
        max_n = strict_int(cfg["max_n"], "riordan config: max_n")
        if not 1 <= max_n <= 24:
            raise ConfigError("riordan config: max_n must be in 1..24")
        numer, denom = series["numer"], series.get("denom", [1])
        for key, coeffs in (("numer", numer), ("denom", denom)):
            if not isinstance(coeffs, list):
                raise ConfigError(f"riordan series: {key} must be a list, got {coeffs!r}")
            for v in coeffs:
                strict_int(v, f"riordan series: {key} entry")
        if not denom or denom[0] not in (1, -1):
            raise ConfigError(f"riordan series: denom must start with 1 or -1, got {denom}")
        D = TruncatedSeries.from_rational(numer, denom, max_n + 1)
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
