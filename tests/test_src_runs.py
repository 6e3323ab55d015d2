"""Every function and method in ``src/sievekit`` runs in some command-line
job, except the listed ones, each with its reason.

One fresh interpreter traces calls (``sys.settrace``, call events only)
while ``cli.main`` runs every job of ``golden_configs.json`` as JSON, and
every job of ``reach_configs.json`` as JSON and as a table: a corpus of
refusals, witnesses and small jobs on the instance kinds that the
benchmark jobs leave out, each with its exit code.  Each module-level
function, and each method of a module-level class, whose code never ran
is listed; the list must equal ``UNRUN``, whose every entry gives one of
``REASONS``.  A new definition that no job runs fails here: it gets a
job, moves to a test oracle, or leaves ``src/``, and its tests move to
what stays.  So the list can only shrink; a definition that a tracer
hook pins joins it with ``HOOK`` when its last job caller leaves.

A run cannot see a class or a constant that nothing reads, so each
module-level class and constant must also be named by other code in
``src/`` (comments and strings do not count).

The traced run alone, from the repository root:

    PYTHONPATH=src python tests/test_src_runs.py
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path
from types import FunctionType

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sievekit"
GOLDEN = json.loads((TESTS / "golden_configs.json").read_text())
CORPUS = json.loads((TESTS / "reach_configs.json").read_text())
JOBS = [(case, "json") for case in GOLDEN] + [  # (case, format) of each run
    (case, fmt) for case in CORPUS for fmt in ("json", "table")]

HOOK = "a tracer hook"
BY_HOOK = "called only by a hook"
ITEM_6, ITEM_8, ITEM_9 = (f"awaiting ROADMAP item {n}" for n in (6, 8, 9))
FAILURE = "a failure report that no CLI input reaches (item 17)"
DEMO = "demo API"
RECORD = "the record protocol"
RAW_PAIRS = "the entry check of records built from raw pairs"
REASONS = {HOOK, BY_HOOK, ITEM_6, ITEM_8, ITEM_9, FAILURE, DEMO, RECORD, RAW_PAIRS}

# The functions that bench/tracer.py patches by name, and no command runs;
# tests/test_bench_hooks.py fails if one goes.  They leave after ROADMAP
# item 1 lets a hook go missing.
TRACER_HOOKS = {
    "gaussseq.check_gauss",
    "gaussseq.riordan_count",
    "gaussseq.solve_functional_equation",
    "objects.festoons_by_content",
    "objects.festoons_colored",
    "objects.signed_festoons",
    "objects.words_with_content",
    "qpoly.q_factorial",
    "tubings.cycle_tubing_to_delannoy",
    "tubings.delannoy_to_cycle_tubing",
    "tubings.enumerate_tubings",
    "tubings.free_vertices",
    "tubings.interval_tubing_to_schroder",
    "tubings.schroder_to_interval_tubing",
    "tubings.tube_vertices",
    "tubings.tubes_compatible",
    "tubings.tubings_all_improper",
    "tubings.tubings_by_free_vertices",
    "tubings.tubings_by_tube_count",
}

UNRUN = {name: HOOK for name in TRACER_HOOKS} | {
    "semigroup._SemigroupBase.unit_divisors": HOOK,  # a method the tracer wraps
    # a method the tracer wraps; only eval_at_primitive_root's failure path calls it
    "qpoly.IntPoly.__divmod__": HOOK,
    "gaussseq.TruncatedSeries.coeff": BY_HOOK,
    "objects._content_items": BY_HOOK,
    "qpoly.q_int": BY_HOOK,
    "tubings._Graph.bits": BY_HOOK,
    "tubings._Graph.indices": BY_HOOK,
    "tubings.is_tubing": BY_HOOK,
    "tubings.mask_to_path": BY_HOOK,
    "tubings.path_to_mask": BY_HOOK,
    "gaussseq.SequenceSpec.from_mapping": ITEM_6,  # a_from_matrix_trace's
    "gaussseq.a_from_matrix_trace": ITEM_6,
    "qgauss.equivalent_mod": ITEM_8,
    "transport.Morphism.__post_init__": ITEM_9,
    "transport._boundary_contact": ITEM_9,
    "transport._fiber_directions": ITEM_9,
    "transport.apply_morphism": ITEM_9,
    "transport.check_morphism": ITEM_9,
    "transport.multiply": ITEM_9,
    "transport.pullback": ITEM_9,
    "transport.pushforward": ITEM_9,
    # a failed root check
    "qpoly.cyclotomic": FAILURE,
    "qpoly.eval_at_primitive_root": FAILURE,
    "qpoly.reduce_mod_qn_minus_1": FAILURE,
    # the bijection's witness
    "tubings._Graph.tubing": FAILURE,
    "tubings._bits": FAILURE,
    "tubings._tube_set": FAILURE,
    "tubings.enumerate_paths": FAILURE,
    "tubings.mask_to_tubing": FAILURE,
    "tubings.tubing_paths": FAILURE,
    "tubings.tubing_to_jsonable": FAILURE,
    "qgauss.PolyFamily.value": DEMO,
    "qpoly.IntPoly.__call__": DEMO,
    "qpoly.IntPoly.__neg__": DEMO,
    "qpoly.IntPoly.__sub__": DEMO,
    "objects.CyclicObject.__getnewargs__": RECORD,
    "objects.CyclicObject.__repr__": RECORD,
    "qpoly.IntPoly.__bool__": RECORD,
    "qpoly.IntPoly.__eq__": RECORD,
    "qpoly.IntPoly.__hash__": RECORD,
    "qpoly.IntPoly.__repr__": RECORD,
    "qpoly.IntPoly.__setattr__": RECORD,
    "qpoly.IntPoly.__str__": RECORD,
    "semigroup.Record.__repr__": RECORD,
    "semigroup.Record.__setattr__": RECORD,
    "semigroup._SemigroupBase.sort_key": RAW_PAIRS,  # window_table's
}


def _functions(obj):
    """The functions that a module-level function, or a class member
    (method, class or static method, property, cached property), runs as."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if isinstance(f, FunctionType)]
    if isinstance(obj, functools.cached_property):
        obj = obj.func
    while hasattr(obj, "__wrapped__"):  # an lru_cache's
        obj = obj.__wrapped__
    return [obj] if isinstance(obj, FunctionType) else []


def definitions() -> dict:
    """``{code: "module.qualname"}`` for every module-level function and
    every method of a module-level class in ``src/sievekit``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"sievekit.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for fn in (f for member in members for f in _functions(member)):
                if "<locals>" not in fn.__qualname__:
                    out[fn.__code__] = f"{path.stem}.{fn.__qualname__}"
    return out


def run_jobs() -> tuple[set, dict]:
    """The code objects that ran while ``cli.main`` ran every job, and the
    exit code of each job and format."""
    from sievekit import cli

    ran: set = set()

    def tracer(frame, event, arg):  # a global tracer sees only calls
        ran.add(frame.f_code)

    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        sys.settrace(tracer)
        try:
            for case, fmt in JOBS:
                path.write_text(json.dumps(case["config"]))
                argv = [case["command"], "--config", str(path), *case.get("args", ()),
                        "--format", fmt]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes[f"{case['job']} {fmt}"] = cli.main(argv)
        finally:
            sys.settrace(None)
    return ran, codes


def unnamed() -> set[str]:
    """``module.name`` of each module-level class or constant (but
    ``__version__``) whose name occurs once as a code token across
    ``src/``: at its own definition."""
    uses: Counter = Counter()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        uses.update(t.string for t in tokens if t.type == tokenize.NAME)
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                defined.append((node.name, path.stem))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.extend((t.id, path.stem) for t in targets
                           if isinstance(t, ast.Name) and t.id != "__version__")
    return {f"{module}.{name}" for name, module in defined if uses[name] == 1}


def traced() -> dict:
    ran, codes = run_jobs()
    unrun = sorted(name for code, name in definitions().items() if code not in ran)
    return {"unrun": unrun, "codes": codes}


def test_every_listed_definition_has_a_reason():
    assert all(UNRUN[name] == HOOK for name in TRACER_HOOKS)
    assert set(UNRUN.values()) <= REASONS


def test_every_unlisted_definition_runs_in_a_job():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == {f"{case['job']} {fmt}": case["code"] for case, fmt in JOBS}
    unrun = set(out["unrun"])
    assert unrun - UNRUN.keys() == set(), "never ran: give it a job, or take it out of src/"
    assert UNRUN.keys() - unrun == set(), "runs now: take it off UNRUN"


def test_every_class_and_constant_is_named():
    assert unnamed() == set()


if __name__ == "__main__":
    json.dump(traced(), sys.stdout, indent=1)
