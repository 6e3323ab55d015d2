"""Every module-level function, class and constant in ``src/sievekit`` is
named by other code in ``src/``, and every method or property of those
classes other than a dunder is read as an attribute there, except the
listed ones, each with its reason.

A definition that only tests, demos or the benchmark call serves no
command; it belongs in a test oracle, or leaves.  Nor does a ``src/`` call
kept only so that a name has a caller serve a command: that name leaves
too, and its tests are ported to the kernel or oracle that replaces it.  A
new definition that no code in ``src/`` names fails this test, so the list
can only shrink.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sievekit"

# Patched by name in bench/tracer.py, and tests/test_bench_hooks.py fails
# if one goes: these leave after ROADMAP item 1 lets a hook go missing.
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
# Each waits on the ROADMAP item that gives it a command.
AWAITING_A_COMMAND = {
    "qgauss.equivalent_mod",  # item 4, the formula check
    "gaussseq.a_from_matrix_trace",  # item 6, closed walks
    "transport.check_morphism",  # item 9, transport
    "transport.multiply",
    "transport.pullback",
    "transport.pushforward",
}


def unreferenced() -> set[str]:
    """``module.name`` of each module-level def, class or constant (but
    ``__version__``) whose name occurs once as a code token across ``src/``
    (comments and strings do not count): at its own definition.  And
    ``module.Class.name`` of each non-dunder method or property that no
    code in ``src/`` reads as an attribute (``.name``): a local variable or
    a function of the same name does not count."""
    uses: Counter = Counter()
    attributes: set = set()
    defined, members = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        uses.update(t.string for t in tokens if t.type == tokenize.NAME)
        tree = ast.parse(text)
        attributes.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.stem}.{node.name}"))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (t.id, f"{path.stem}.{t.id}") for t in targets
                    if isinstance(t, ast.Name) and t.id != "__version__"
                )
            if isinstance(node, ast.ClassDef):
                members.extend(
                    (member.name, f"{path.stem}.{node.name}.{member.name}")
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                )
    return {qualified for name, qualified in defined if uses[name] == 1} | {
        qualified for name, qualified in members if name not in attributes
    }


def test_no_new_definition_goes_unreferenced():
    assert unreferenced() == TRACER_HOOKS | AWAITING_A_COMMAND
