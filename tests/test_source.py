"""Rules on the package's source text."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_lines_are_at_most_100_characters():
    # The package's size is measured in lines, so a line may not grow past 100 columns instead.
    long_lines = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if len(line.rstrip("\n")) > 100:
                    long_lines.append(f"{os.path.basename(path)}:{number}")
    assert long_lines == []


def test_every_private_definition_is_referenced():
    # A private function or class that nothing names is dead code: the package is measured
    # in lines, and only its public names may go unused inside it.
    defined, referenced = {}, set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{os.path.basename(path)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert sorted(place for name, place in defined.items() if name not in referenced) == []


def test_the_integral_rule_lives_in_generic_only():
    # One routine owns every black-box integral's box, sums, bar and tolerance; a second
    # module that names these pieces could split the rule again.
    owned = ("resolve_integration_box", "_evaluate_grid", "_log_trapezoid_sum", "BOX_SDS",
             "ROUNDING_ULPS")
    named = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        if os.path.basename(path) == "generic.py":
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                named += [f"{os.path.basename(path)}:{number} {name}"
                          for name in owned if re.search(rf"\b{name}\b", line)]
    assert named == []


def _definitions(module):
    with open(os.path.join(ROOT, "src", "evidkit", module), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return tree, {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_each_closed_form_decision_is_made_once():
    # The design's C-order copy, the finiteness test and Laplace's reference gate each have
    # one home; a second copy of a decision can drift from the first.
    glm, functions = _definitions("glm.py")
    imported = {alias.name for node in ast.walk(glm) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(glm) if isinstance(node, ast.ImportFrom)}
    assert "math" not in imported
    assert [arg.arg for arg in functions["_precision"].args.args] == ["spec"]
    copies = [node for node in ast.walk(glm)
              if isinstance(node, ast.Attribute) and node.attr == "ascontiguousarray"]
    assert len(copies) == 1
    _, functions = _definitions("evidence.py")
    gates = [node for node in ast.walk(functions["evidence_laplace"])
             if isinstance(node, ast.Name) and node.id == "DEFAULT_GRID"]
    assert len(gates) == 1


def _calls_to(tree, name):
    """The calls in ``tree`` of a function or class named ``name``, bare or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_a_search_start_ends_in_one_record():
    # Every start of the MAP search ends in one _Mode, failed or converged, and only the
    # one-start _search turns a failed record into ConvergenceFailure: a second home for a
    # failed start, or a second copy of its best iterate, could drift from the first.
    built, tested = [], []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        module = os.path.basename(path)
        built += [(module, node.lineno) for node in _calls_to(tree, "ConvergenceFailure")]
        tested += [f"{module}:{node.lineno}" for node in _calls_to(tree, "isinstance")
                   if "ConvergenceFailure" in ast.unparse(node.args[1])]
    _, functions = _definitions("generic.py")
    in_search = [("generic.py", node.lineno)
                 for node in _calls_to(functions["_search"], "ConvergenceFailure")]
    assert in_search and built == in_search
    assert tested == []
    assert [node.lineno for node in ast.walk(functions["_search_all"])
            if isinstance(node, ast.Name) and node.id == "best"
            and isinstance(node.ctx, ast.Store)] == []


def test_every_stencil_is_taken_at_its_point():
    # One near-bound rule: a stencil's step shrinks to fit the support, and the stencil stays
    # at theta.  A moved centre, a projected trial or a gradient carried back through the
    # Hessian would be a second rule, right only where the curvature is constant.
    named = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            if "_stencil_centres" in handle.read():
                named.append(os.path.basename(path))
    assert named == []
    _, functions = _definitions("generic.py")
    assert _calls_to(functions["_search_all"], "clip") == []
    assert _calls_to(functions["_search_all"], "einsum") == []
    _, functions = _definitions("evidence.py")
    stencils = _calls_to(functions["_laplace_mode"], "_stencil_derivatives")
    assert stencils and all("bounds" in [keyword.arg for keyword in call.keywords]
                            for call in stencils)
