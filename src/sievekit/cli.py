"""Batch command-line surface over the library.

One JSON config per invocation; deterministic output (stable key order,
no timestamps).  Exit codes: 0 all checks pass, 1 configuration problem,
2 verification failure with the witness named in the output.

Each command is a pair in ``_COMMANDS``: a decode and a run.  The decode
(``_decode_<cmd>``) calls the library's decoders and job checks, raises
their ValueError on what they refuse, and returns the run's arguments; it
does no work.  The run (``cmd_<cmd>``) builds, counts, round-trips and
checks.  ``main`` is the one place that turns a refusal into a config
error: it parses the command line, reads, decodes and opens ``--out``
in one block, then runs and renders, so an error inside the run stays a
traceback and is never taken for a config error.  A new job source
decodes its config in its command's decode.

Every job is a fresh process, so the module level holds only what every
command reads: the command line, JSON and the ``semigroup`` decoders.
Each decode and run imports the rest of the library it uses at the top
of its body, and a job loads only its command's modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii

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


def _decode_seq(cfg: dict) -> tuple:
    from .gaussseq import sequence_from_config

    require_keys(cfg, {"sequence"}, {"sequence"}, "seq config")
    spec = sequence_from_config(cfg["sequence"])
    if isinstance(spec.instance, Chain):  # c_from_a reads differences s - t
        spec.instance.check_differences(spec.window)
    return (spec,)


def cmd_seq(spec) -> tuple[dict, int]:
    from .gaussseq import NonIntegerWitness, a_from_b, a_from_c, b_from_a, c_from_a

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
    elements = spec.instance.elements(spec.window)
    payload["elements"] = [encode_element(spec.instance, s) for s in elements]
    payload["rows"] = {"a": a.row(), "b": b.row(), "c": c.row()}
    # b_from_a divided every sieve sum of a by its rank, so a is Gauss
    payload["ok"] = True
    return payload, 0


# -- qgauss ------------------------------------------------------------------------

def _closed_form(cfg: dict) -> tuple:
    """The instance, window and polynomial of a closed_form config; only
    q-power reads a base."""
    from .qpoly import q_binomial, q_power

    require_keys(cfg, {"name", "window", "base"}, {"name", "window"}, "closed_form config")
    name = cfg["name"]
    if name == "q-binomial":
        require_keys(cfg, {"name", "window"}, set(), "q-binomial config")
        inst, poly = Chain(PositiveIntegers(), "nonneg"), lambda s: q_binomial(s[0], s[1])
    elif name == "q-power":
        lam = strict_int(cfg.get("base", 2), "closed_form config: base")
        inst, poly = PositiveIntegers(), lambda n: q_power(lam, n)
    else:
        raise ValueError(f"closed_form config: unknown name {name!r}")
    window = window_from_config(cfg["window"])
    window_elements(inst, window)
    return inst, window, poly


def _decode_qgauss(cfg: dict) -> tuple:
    """The construction's name, its build callable, its arguments and the checks."""
    from .gaussseq import sequence_from_config
    from .qgauss import (PolyFamily, check_qgauss_definition, check_qgauss_roots,
                         construct_from_b, construct_from_c, construct_ramanujan,
                         fund_family)

    # Each construction with the role of the sequence it builds from; fund
    # (role None) builds from beads and a window instead.
    constructions = {"ramanujan": ("a", construct_ramanujan), "from-b": ("b", construct_from_b),
                     "from-c": ("c", construct_from_c), "fund": (None, fund_family)}
    known = {"definition": check_qgauss_definition, "roots": check_qgauss_roots}
    keys = {"closed_form", "construction", "sequence", "beads", "window", "checks"}
    require_keys(cfg, keys, set(), "qgauss config")
    checks = cfg.get("checks", list(known))
    # an empty list would check nothing and report ok
    if not isinstance(checks, list) or not checks or not all(
        isinstance(c, str) and c in known for c in checks
    ):
        raise ValueError(f"qgauss config: bad checks {checks!r}")
    checks = {c: check for c, check in known.items() if c in checks}
    name = cfg.get("construction")
    if "closed_form" in cfg:  # and no construction
        require_keys(cfg, {"closed_form", "checks"}, set(), "qgauss config")
        return "closed-form", PolyFamily.from_function, _closed_form(cfg["closed_form"]), checks
    if not (isinstance(name, str) and name in constructions):
        raise ValueError(
            "qgauss config: needs closed_form or a construction of "
            f"{', '.join(constructions)}, got {name!r}"
        )
    role, build = constructions[name]
    keys = {"construction", *(("beads", "window") if role is None else ("sequence",))}
    require_keys(cfg, keys | {"checks"}, keys, "qgauss config")
    if role is None:
        beads, window = FreeRanked(cfg["beads"]), window_from_config(cfg["window"])
        window_elements(beads, window)
        return name, build, (beads, window), checks
    spec = sequence_from_config(cfg["sequence"])
    if spec.role != role:
        raise ValueError(
            f"qgauss config: {name} needs a role-{role} sequence, got role-{spec.role}"
        )
    return name, build, (spec,), checks


def cmd_qgauss(name: str, build, args: tuple, checks: dict) -> tuple[dict, int]:
    from .qgauss import NonIntegerCoefficient

    payload: dict = {"command": "qgauss", "construction": name}
    try:
        family = build(*args)
    except NonIntegerCoefficient as e:  # only a sequence construction divides
        return _witness(payload, args[0].instance, e)
    payload["family"] = family.to_jsonable()
    reports = {c: check(family) for c, check in checks.items()}
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


def _decode_csp(cfg: dict) -> tuple:
    """The family name and its source: (max_rank, grading, colors) for
    tubings-cycle, the beads and a window, or a sequence.  A family that
    predicts more objects than ``admit`` lets through is refused here."""
    from .gaussseq import sequence_from_config
    from .objects import predicted_count

    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ValueError("csp config: missing family name")
    name = cfg["family"]
    if name == "tubings-cycle":
        from .tubings import check_improper_job  # only this family loads tubings

        grading = cfg.get("grading", "tubes")
        keys = {"family", "max_rank", "grading", *(("colors",) if grading == "tubes" else ())}
        require_keys(cfg, keys, {"max_rank"}, "csp config")  # only tubes reads colors
        max_rank = strict_int(cfg["max_rank"], "csp config: max_rank")
        colors = strict_int(cfg.get("colors", 1), "csp config: colors")
        check_improper_job(max_rank, grading, colors)
        return name, max_rank, grading, colors
    if not (isinstance(name, str) and name in _FESTOONS):
        raise ValueError(
            f"csp config: {name!r} is not a cyclic family "
            f"(expected {', '.join(_FESTOONS)} or tubings-cycle)"
        )
    key = _FESTOONS[name]
    keys = {"family", key, *(("window",) if key == "beads" else ())}
    require_keys(cfg, keys, keys, "csp config")
    if key == "beads":
        source = (FreeRanked(cfg["beads"]), window_from_config(cfg["window"]))
        window_elements(*source)
    else:
        source = (sequence_from_config(cfg[key]),)
    admit(predicted_count(name, *source), "predicted objects")
    return (name, *source)


def cmd_csp(name: str, *source) -> tuple[dict, int]:
    """Count a cyclic family per element and run the sieving checks, over
    the source that ``_decode_csp`` returns."""
    from .objects import (CyclicFamily, festoon_census, festoons_repeated, verify_csp,
                          verify_lyndon, verify_signed_csp)
    from .qgauss import construct_from_b, construct_from_c, fund_family

    if name == "tubings-cycle":
        from .tubings import improper_cycle_census  # only this family loads tubings

        census, poly = improper_cycle_census(*source)
    elif len(source) == 2:  # beads and a window
        census, poly = festoon_census(name, *source), fund_family(*source)
    elif name == "festoons-repeated":
        # festoon_census counts this family as well, but the benchmark's
        # trace (bench/tracer.py, bench/tests/test_bench.py) reads the
        # objects layer of this job from the span of festoons_repeated and
        # its object count; the job moves to the census with the benchmark.
        (b,) = source
        fam = CyclicFamily.from_generator(b.instance, b.window, lambda s: festoons_repeated(b, s))
        census, poly = fam.census(), construct_from_b(b)
    else:
        census, poly = festoon_census(name, *source), construct_from_c(*source)
    payload: dict = {"command": "csp", "family": name}
    inst = census.instance
    payload["counts"] = [[encode_element(inst, s), count] for s, count, _ in census.rows]
    if name == "signed-festoons":
        reports = {"signed-csp": verify_signed_csp(census, poly)}
    else:
        reports = {"lyndon": verify_lyndon(census), "csp": verify_csp(census, poly)}
    return _verdict(payload, reports, inst)


# -- bijection ---------------------------------------------------------------------


def _decode_bijection(cfg: dict) -> tuple:
    from .tubings import check_bijection_job

    require_keys(cfg, {"kind", "max_n"}, {"kind", "max_n"}, "bijection config")
    kind, max_n = cfg["kind"], strict_int(cfg["max_n"], "bijection config: max_n")
    check_bijection_job(kind, max_n)
    return kind, max_n


def cmd_bijection(kind: str, max_n: int) -> tuple[dict, int]:
    """Round-trip every tubing of each size through the bijection.

    Per size n each tubing must map to a path of the target set P_n and
    come back (``tubings.round_trip``).  That makes the map injective into
    P_n, and a tubing count equal to |P_n| makes it a bijection, so no
    path or image is stored.  The witness is the first tubing that fails,
    else the smallest path in the symmetric difference of the images and
    P_n, which only a count mismatch collects.
    """
    from . import tubings as tb

    payload: dict = {"command": "bijection", "kind": kind, "per_n": []}
    total = 0
    for n in range(1, max_n + 1):
        target = (2 * n, "schroder") if kind == "interval" else (2 * (n - 1), "delannoy")
        count, failed = tb.round_trip(n, kind)
        if failed:
            bits, path = failed
            tubing = tb.tubing_to_jsonable(tb.mask_to_tubing(n, bits, kind))
            witness = {"n": n, "tubing": tubing, "path": path}
        elif count == tb.count_paths(*target):
            payload["per_n"].append([n, count])
            total += count
            continue
        else:
            images = {path for _, path in tb.tubing_paths(n, kind)}
            odd = images.symmetric_difference(tb.enumerate_paths(*target))
            witness = {"n": n, "path": min(odd), "detail": "image mismatch"}
        payload.update(ok=False, witness=witness)
        return payload, 2
    payload.update(total=total, ok=True)
    return payload, 0


# -- riordan -----------------------------------------------------------------------


def _decode_riordan(cfg: dict) -> tuple:
    from .gaussseq import TruncatedSeries

    require_keys(cfg, {"series", "max_n"}, {"series", "max_n"}, "riordan config")
    series = cfg["series"]
    require_keys(series, {"numer", "denom"}, {"numer"}, "riordan series")
    max_n = strict_int(cfg["max_n"], "riordan config: max_n")
    if not 1 <= max_n <= 24:
        raise ValueError("riordan config: max_n must be in 1..24")
    numer, denom = series["numer"], series.get("denom", [1])
    for key, coeffs in (("numer", numer), ("denom", denom)):
        if not isinstance(coeffs, list):
            raise ValueError(f"riordan series: {key} must be a list, got {coeffs!r}")
    return TruncatedSeries.from_rational(numer, denom, max_n + 1), max_n


def cmd_riordan(D: TruncatedSeries, max_n: int) -> tuple[dict, int]:
    from .gaussseq import riordan_rows

    return {"command": "riordan", "rows": riordan_rows(D, max_n), "ok": True}, 0


# -- rendering and entry -----------------------------------------------------------


def _render_json(o, pad: str = "") -> str:
    """``json.dumps(o, sort_keys=True, indent=2)`` without the pure-Python
    encoder that ``indent`` selects; a float or a non-str key raises TypeError."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, dict):  # the C string encoder refuses a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_render_json(v, inner)}"
                 for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)):
        ints = {*map(type, o)} <= {int}  # every polynomial and row: one join
        items = map(int.__repr__, o) if ints else [_render_json(x, inner) for x in o]
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    ends = "{}" if isinstance(o, dict) else "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}" if o else ends


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


_COMMANDS = {  # each command's decode and run
    "seq": (_decode_seq, cmd_seq),
    "qgauss": (_decode_qgauss, cmd_qgauss),
    "csp": (_decode_csp, cmd_csp),
    "bijection": (_decode_bijection, cmd_bijection),
    "riordan": (_decode_riordan, cmd_riordan),
}


def _refuse(message: str):
    """The parsers' error hook: a bad command line is a config error, not
    argparse's exit 2, which here means a verification failed."""
    raise ValueError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves no state on it."""
    # a fixed width, what a non-terminal gets, spares argparse its shutil import
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="sievekit",
        description="sieve congruences, sieving polynomials, and their object families",
        formatter_class=formatter,
    )
    parser.error = _refuse
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, formatter_class=formatter)
        p.error = _refuse
        p.add_argument("--config", required=True, help="path to a JSON job config")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--out", help="write output here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    # --out is opened after the decode, so a config error leaves an existing
    # file as it was, and before the run, so a bad path costs no work.  It is
    # opened to append, and a regular file is cut only once the render ends,
    # so a failed run leaves it as it was too, and removes one it created.
    try:
        args = parser.parse_args(argv)
        decode, run = _COMMANDS[args.command]
        with open(args.config, "r", encoding="utf-8") as fh:
            job = decode(json.load(fh))
        created = args.out and not os.path.lexists(args.out)
        out = open(args.out, "a", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except (OSError, ValueError, TypeError, RecursionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        with out as fh:
            payload, code = run(*job)
            text = (_render_json(payload) + "\n"
                    if args.format == "json" else _render_table(payload))
            if args.out and os.path.isfile(args.out):  # a device or a pipe takes no cut
                fh.truncate(0)
            fh.write(text)
    except BaseException:
        if created:
            os.unlink(args.out)
        raise
    return code


if __name__ == "__main__":
    raise SystemExit(main())
