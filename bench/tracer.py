"""Span tracing of sievekit from outside the package.

``install`` wraps the public functions of each module, patching every
module namespace (and module-level dispatch table) that bound the function
at import time, and methods on their class.  Three kinds of wrapper:

* span: recorded one by one with name, layer, start, end, parent span id
  and job id (CLI commands, constructions, checkers, enumerators,
  bijection maps, transforms);
* aggregate: timed like a span, but all calls under one parent span are
  folded into one record carrying the call count and summed duration
  (polynomial arithmetic, q-analogues, number theory, unit divisors);
* counter: call count only, no clock reads (the hottest inner functions).

A layer's self time is the duration of its spans minus the time covered
by their child spans; time in stdlib code counts toward the enclosing span.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# Record layout: one list per span or aggregate.
ID, PARENT, JOB, NAME, LAYER, START, END, CALLS, DUR = range(9)

LAYERS = ("arith", "qpoly", "semigroup", "gaussseq", "qgauss", "objects", "tubings", "cli")

# Inclusive-time groups reported per layer: group -> span names.  Nested
# spans of one group are counted once, through their outermost member.
GROUPS = {
    "qpoly.mul_s": {"IntPoly.__mul__"},
    "qpoly.divmod_s": {"IntPoly.__divmod__"},
    "qpoly.root_eval_s": {"eval_at_primitive_root"},
    "semigroup.decompositions_s": {"_SemigroupBase.decompositions"},
    "gaussseq.transform_s": {"a_from_b", "b_from_a", "a_from_c", "c_from_a"},
    "gaussseq.check_s": {"check_gauss"},
    "gaussseq.series_s": {
        "TruncatedSeries.from_rational", "TruncatedSeries.from_coeffs",
        "riordan_count", "solve_functional_equation",
    },
    "qgauss.construct_s": {
        "construct_ramanujan", "construct_from_b", "construct_from_c",
        "fund_family", "PolyFamily.from_function",
    },
    "qgauss.check_definition_s": {"check_qgauss_definition"},
    "qgauss.check_roots_s": {"check_qgauss_roots"},
    "objects.enumerate_s": {
        "words_with_content", "festoons_by_content", "festoons_colored",
        "festoons_repeated", "signed_festoons",
    },
    "objects.canonicalize_s": {"_canonical"},
    "objects.verify_s": {"verify_lyndon", "verify_csp", "verify_signed_csp"},
    "tubings.enumerate_s": {"enumerate_tubings"},
    "tubings.bijection_s": {
        "interval_tubing_to_schroder", "schroder_to_interval_tubing",
        "cycle_tubing_to_delannoy", "delannoy_to_cycle_tubing",
    },
    "tubings.paths_s": {"enumerate_paths"},
    "tubings.family_s": {
        "tubings_by_free_vertices", "tubings_by_tube_count", "tubings_all_improper",
        "free_vertex_polynomial", "tube_count_polynomial", "improper_total_polynomial",
    },
}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, job: int = 0) -> None:
        self.records: list[list] = []
        self.counts: Counter = Counter()
        # (enumerator, plain arguments) whose candidate counts are computed
        # after the job, outside every span.
        self.deferred: list[tuple] = []
        self.job = job
        self._stack: list[list] = []
        self._aggregates: dict[tuple, list] = {}

    def open(self, name: str, layer: str, aggregate: bool) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        if aggregate:
            key = (parent, name)
            rec = self._aggregates.get(key)
            if rec is None:
                rec = [len(self.records), parent, self.job, name, layer, None, None, 0, 0.0]
                self._aggregates[key] = rec
                self.records.append(rec)
        else:
            rec = [len(self.records), parent, self.job, name, layer, None, None, 0, 0.0]
            self.records.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: list, start: float, end: float) -> None:
        self._stack.pop()
        if rec[START] is None:
            rec[START] = start
        rec[END] = end
        rec[CALLS] += 1
        rec[DUR] += end - start


def span_wrapper(tracer: Tracer, fn, name: str, layer: str, aggregate: bool, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name, layer, aggregate)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec, start, perf_counter())
        if after is not None:
            after(args, result)
        return result

    return wrapper


def counter_wrapper(counts: Counter, fn, key: str, accept_key: str | None = None):
    if accept_key is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if result:
                counts[accept_key] += 1
            return result

    return wrapper


# -- offline arithmetic on the recorded tree ------------------------------------


def self_times(records: list[list]) -> dict[int, float]:
    """Per record: its duration minus the durations of its direct children."""
    out = {rec[ID]: rec[DUR] for rec in records}
    for rec in records:
        if rec[PARENT] is not None:
            out[rec[PARENT]] -= rec[DUR]
    return out


def layer_self_times(records: list[list]) -> dict[str, float]:
    selfs = self_times(records)
    out = {layer: 0.0 for layer in LAYERS}
    for rec in records:
        out[rec[LAYER]] = out.get(rec[LAYER], 0.0) + selfs[rec[ID]]
    return out


def group_times(records: list[list], groups: dict[str, set] = GROUPS) -> dict[str, float]:
    """Inclusive time per group, counting only spans with no ancestor in it."""
    by_id = {rec[ID]: rec for rec in records}
    out = {group: 0.0 for group in groups}
    for group, names in groups.items():
        for rec in records:
            if rec[NAME] not in names:
                continue
            parent = rec[PARENT]
            nested = False
            while parent is not None:
                if by_id[parent][NAME] in names:
                    nested = True
                    break
                parent = by_id[parent][PARENT]
            if not nested:
                out[group] += rec[DUR]
    return out


def call_totals(records: list[list]) -> Counter:
    out: Counter = Counter()
    for rec in records:
        out[rec[NAME]] += rec[CALLS]
    return out


# -- patching sievekit -------------------------------------------------------------


def _rebind(modules, old, new) -> None:
    """Replace ``old`` by ``new`` in every module namespace and dispatch table."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new
                    elif isinstance(v, tuple) and any(x is old for x in v):
                        value[k] = tuple(new if x is old else x for x in v)


def _patch_method(cls, attr: str, make) -> None:
    """Wrap a method, and every alias of it on the class (``__rmul__``)."""
    old = vars(cls)[attr]
    new = make(old)
    for key, value in list(vars(cls).items()):
        if value is old:
            setattr(cls, key, new)


def _sequence_values(spec) -> dict:
    return {t: v for t, v in spec.values if v}


def install(tracer: Tracer):
    """Patch sievekit in place; returns the end-of-job hook.

    Call once per process, after ``import sievekit.cli``.
    """
    from sievekit import arith, cli, gaussseq, objects, qgauss, qpoly, semigroup
    from sievekit import tubings as tb

    from jobs import candidates

    modules = (arith, qpoly, semigroup, gaussseq, qgauss, objects, tb, cli)
    counts = tracer.counts
    caches = {
        "factorize": arith.factorize,
        "q_int": qpoly.q_int,
        "q_factorial": qpoly.q_factorial,
        "q_binomial": qpoly.q_binomial,
        "_q_exp_nonneg": qpoly._q_exp_nonneg,
        "cyclotomic": qpoly.cyclotomic,
    }

    def degree(args, result) -> None:
        if isinstance(result, tuple):
            result = result[0]
        deg = len(result.coeffs) - 1
        if deg > counts["qpoly.max_degree"]:
            counts["qpoly.max_degree"] = deg

    def checked(args, result) -> None:
        counts["qgauss.checks"] += result.checked

    def tubings_out(args, result) -> None:
        counts["tubings.tubings"] += len(result)

    def roundtrip(args, result) -> None:
        counts["tubings.roundtrips"] += 1

    def enumerated(name):
        def after(args, result):
            if name == "signed_festoons":
                counts["objects.enumerated"] += len(result[0]) + len(result[1])
            else:
                counts["objects.enumerated"] += len(result)
            if name == "words_with_content":
                data = ([m for _, m in args[0]],)
            elif name == "festoons_by_content":
                data = (list(args[0].lengths), list(args[1]))
            else:
                spec, s = args
                data = (_sequence_values(spec), s)
            tracer.deferred.append((name, data))
        return after

    def span(mod, attr, layer, aggregate=False, after=None, name=None):
        old = getattr(mod, attr)
        new = span_wrapper(tracer, old, name or attr, layer, aggregate, after)
        _rebind(modules, old, new)

    def method_span(cls, attr, layer, aggregate=False, after=None):
        _patch_method(cls, attr, lambda old: span_wrapper(
            tracer, old, f"{cls.__name__}.{attr}", layer, aggregate, after))

    def count(mod_or_cls, attr, key, accept_key=None, method=False):
        if method:
            _patch_method(mod_or_cls, attr,
                          lambda old: counter_wrapper(counts, old, key, accept_key))
        else:
            old = getattr(mod_or_cls, attr)
            _rebind(modules, old, counter_wrapper(counts, old, key, accept_key))

    # arith: number theory, timed in aggregate.
    for attr in ("divisors", "factorize", "mobius", "totient", "ramanujan_sum"):
        span(arith, attr, "arith", aggregate=True)
    # qpoly: arithmetic and q-analogues, timed in aggregate.
    method_span(qpoly.IntPoly, "__mul__", "qpoly", True, degree)
    method_span(qpoly.IntPoly, "__divmod__", "qpoly", True, degree)
    for attr in ("q_int", "q_factorial", "q_binomial", "q_multinomial", "q_power",
                 "_q_exp_nonneg", "cyclotomic", "eval_at_primitive_root"):
        span(qpoly, attr, "qpoly", aggregate=True)
    # semigroup
    for cls in (semigroup._SemigroupBase, semigroup.PositiveIntegers,
                semigroup.Chain, semigroup.FreeRanked):
        if "validate" in vars(cls):
            count(cls, "validate", "semigroup.validate_calls", method=True)
        if "elements" in vars(cls):
            method_span(cls, "elements", "semigroup")
    method_span(semigroup._SemigroupBase, "unit_divisors", "semigroup", True)
    method_span(semigroup._SemigroupBase, "decompositions", "semigroup")
    # gaussseq
    count(gaussseq.SequenceSpec, "value", "gaussseq.value_calls", method=True)
    for attr in ("sequence_from_config", "a_from_b", "b_from_a", "a_from_c",
                 "c_from_a", "check_gauss", "riordan_count", "solve_functional_equation"):
        span(gaussseq, attr, "gaussseq")
    for attr in ("from_rational", "from_coeffs"):
        old = getattr(gaussseq.TruncatedSeries, attr).__func__
        new = span_wrapper(tracer, old, f"TruncatedSeries.{attr}", "gaussseq", False)
        setattr(gaussseq.TruncatedSeries, attr, classmethod(new))
    # qgauss
    count(qgauss.PolyFamily, "value", "qgauss.value_calls", method=True)
    for attr in ("construct_ramanujan", "construct_from_b", "construct_from_c",
                 "fund_family"):
        span(qgauss, attr, "qgauss")
    for attr in ("check_qgauss_definition", "check_qgauss_roots"):
        span(qgauss, attr, "qgauss", after=checked)
    old = qgauss.PolyFamily.from_function.__func__
    qgauss.PolyFamily.from_function = classmethod(
        span_wrapper(tracer, old, "PolyFamily.from_function", "qgauss", False))
    # objects
    count(objects.CyclicObject, "__lt__", "objects.object_lt_calls", method=True)
    count(objects, "fixed_points", "objects.fixed_points_calls")
    for attr in ("words_with_content", "festoons_by_content", "festoons_colored",
                 "festoons_repeated", "signed_festoons"):
        span(objects, attr, "objects", after=enumerated(attr))
    for attr in ("_canonical", "verify_lyndon", "verify_csp", "verify_signed_csp"):
        span(objects, attr, "objects")
    old = objects.CyclicFamily.from_generator.__func__
    objects.CyclicFamily.from_generator = classmethod(
        span_wrapper(tracer, old, "CyclicFamily.from_generator", "objects", False))
    # tubings
    count(tb, "tube_vertices", "tubings.tube_vertices_calls")
    count(tb, "tubes_compatible", "tubings.compat_calls", "tubings.compat_accepted")
    span(tb, "enumerate_tubings", "tubings", after=tubings_out)
    span(tb, "free_vertices", "tubings", aggregate=True)
    for attr in ("interval_tubing_to_schroder", "cycle_tubing_to_delannoy"):
        span(tb, attr, "tubings", after=roundtrip)
    for attr in ("schroder_to_interval_tubing", "delannoy_to_cycle_tubing",
                 "enumerate_paths", "tubings_by_free_vertices", "tubings_by_tube_count",
                 "tubings_all_improper", "free_vertex_polynomial",
                 "tube_count_polynomial", "improper_total_polynomial"):
        span(tb, attr, "tubings")
    # cli: the entry point and the command table.
    span(cli, "main", "cli", name="cli.main")
    for attr in ("cmd_seq", "cmd_qgauss", "cmd_csp", "cmd_bijection", "cmd_riordan"):
        span(cli, attr, "cli")

    def finish() -> dict:
        """Counters of the finished job, with lru_cache statistics as
        ``{name: [hits, misses, currsize]}``."""
        for name, data in tracer.deferred:
            counts["objects.candidates"] += candidates(name, data)
        tracer.deferred.clear()
        out = {"counts": dict(counts), "caches": {}}
        for name, fn in caches.items():
            info = fn.cache_info()
            out["caches"][name] = [info.hits, info.misses, info.currsize]
        return out

    return finish


# -- per-layer metrics of one traced pass ------------------------------------------

QPOLY_CACHES = ("q_int", "q_factorial", "q_binomial", "_q_exp_nonneg", "cyclotomic")
ARITH_NAMES = ("divisors", "factorize", "mobius", "totient", "ramanujan_sum")

PER_LAYER = [
    ("arith.self_s", "s"), ("arith.calls", "count"),
    ("arith.factorize_hit_ratio", "ratio"),
    ("qpoly.self_s", "s"), ("qpoly.mul_calls", "count"), ("qpoly.mul_s", "s"),
    ("qpoly.divmod_calls", "count"), ("qpoly.divmod_s", "s"),
    ("qpoly.root_eval_calls", "count"), ("qpoly.root_eval_s", "s"),
    ("qpoly.cache_hit_ratio", "ratio"), ("qpoly.cache_entries", "count"),
    ("qpoly.max_degree", "count"),
    ("semigroup.self_s", "s"), ("semigroup.validate_calls", "count"),
    ("semigroup.unit_divisors_calls", "count"),
    ("semigroup.decompositions_calls", "count"), ("semigroup.decompositions_s", "s"),
    ("gaussseq.self_s", "s"), ("gaussseq.value_calls", "count"),
    ("gaussseq.transform_s", "s"), ("gaussseq.check_s", "s"), ("gaussseq.series_s", "s"),
    ("qgauss.self_s", "s"), ("qgauss.construct_s", "s"),
    ("qgauss.check_definition_s", "s"), ("qgauss.check_roots_s", "s"),
    ("qgauss.checks", "count"), ("qgauss.value_calls", "count"),
    ("objects.self_s", "s"), ("objects.enumerate_s", "s"), ("objects.enumerated", "count"),
    ("objects.candidates", "count"), ("objects.useful_ratio", "ratio"),
    ("objects.canonicalize_s", "s"), ("objects.object_lt_calls", "count"),
    ("objects.verify_s", "s"), ("objects.fixed_points_calls", "count"),
    ("tubings.self_s", "s"), ("tubings.enumerate_s", "s"), ("tubings.tubings", "count"),
    ("tubings.compat_calls", "count"), ("tubings.compat_accept_ratio", "ratio"),
    ("tubings.tube_vertices_calls", "count"), ("tubings.bijection_s", "s"),
    ("tubings.roundtrips", "count"), ("tubings.paths_s", "s"), ("tubings.family_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from each job's trace data.

    A job's data holds ``records``, ``counts``, ``caches`` (as written by
    ``traced_job.py``) and ``stdout_bytes``.  Times and counts are summed
    over jobs; ratios are taken over the summed parts.
    """
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    counts: Counter = Counter()
    calls: Counter = Counter()
    cache: dict[str, list[int]] = {}
    for job in jobs:
        records = job["records"]
        for layer, value in layer_self_times(records).items():
            out[f"{layer}.self_s"] += value
        for group, value in group_times(records).items():
            out[group] += value
        calls.update(call_totals(records))
        for key, value in job["counts"].items():
            if key == "qpoly.max_degree":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
        for name, info in job["caches"].items():
            total = cache.setdefault(name, [0, 0, 0])
            for k in range(3):
                total[k] += info[k]
        out["cli.output_bytes"] += job["stdout_bytes"]
    for key in ("semigroup.validate_calls", "gaussseq.value_calls", "qgauss.checks",
                "qgauss.value_calls", "objects.enumerated", "objects.candidates",
                "objects.object_lt_calls", "objects.fixed_points_calls",
                "tubings.tubings", "tubings.compat_calls",
                "tubings.tube_vertices_calls", "tubings.roundtrips", "qpoly.max_degree"):
        out[key] = counts[key]
    out["arith.calls"] = sum(calls[name] for name in ARITH_NAMES)
    hits, misses, _ = cache.get("factorize", [0, 0, 0])
    out["arith.factorize_hit_ratio"] = _ratio(hits, hits + misses)
    out["qpoly.mul_calls"] = calls["IntPoly.__mul__"]
    out["qpoly.divmod_calls"] = calls["IntPoly.__divmod__"]
    out["qpoly.root_eval_calls"] = calls["eval_at_primitive_root"]
    q_hits = sum(cache.get(name, [0, 0, 0])[0] for name in QPOLY_CACHES)
    q_misses = sum(cache.get(name, [0, 0, 0])[1] for name in QPOLY_CACHES)
    out["qpoly.cache_hit_ratio"] = _ratio(q_hits, q_hits + q_misses)
    out["qpoly.cache_entries"] = sum(cache.get(name, [0, 0, 0])[2] for name in QPOLY_CACHES)
    out["semigroup.unit_divisors_calls"] = calls["_SemigroupBase.unit_divisors"]
    out["semigroup.decompositions_calls"] = calls["_SemigroupBase.decompositions"]
    out["objects.useful_ratio"] = _ratio(counts["objects.enumerated"],
                                         counts["objects.candidates"])
    out["tubings.compat_accept_ratio"] = _ratio(counts["tubings.compat_accepted"],
                                                counts["tubings.compat_calls"])
    return out
