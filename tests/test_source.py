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


def _named_outside(owned, home="generic.py"):
    """``module:line name`` for every line outside ``home`` that names one of ``owned``."""
    named = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        if os.path.basename(path) == home:
            continue
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                named += [f"{os.path.basename(path)}:{number} {name}"
                          for name in owned if re.search(rf"\b{name}\b", line)]
    return named


def test_the_integral_rule_lives_in_generic_only():
    # One routine owns every black-box integral's box, sums, bar and tolerance; a second
    # module that names these pieces could split the rule again.
    assert _named_outside(("resolve_integration_box", "_evaluate_grid",
                           "_log_trapezoid_sum", "BOX_SDS", "ROUNDING_ULPS")) == []


def test_the_search_rule_lives_in_generic_only():
    # The MAP search, its stencil, its record and its start box have one home, and the
    # estimators take the MAP step from it: a second module naming them must change with it.
    assert _named_outside(("_search", "_search_all", "_Mode", "_stencil_derivatives",
                           "GRAD_STEP", "HESS_STEP", "_declared_box")) == []


def test_one_cholesky_routine():
    # Every Gaussian is factored by glm's one routine, potrf, and its draws solved by trtrs: a
    # second routine rounds differently from d = 5 on, so one model would get two factors.
    assert _named_outside(("cholesky", "solve_triangular", "get_lapack_funcs", "LinAlgError"),
                          home="glm.py") == []


def test_one_table_of_default_grids():
    # Each supported dimension has one row of grid sizes; a second table could disagree with
    # it, or lack a row it has.
    tables = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        tables += [(os.path.basename(path), target.id) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                   for target in node.targets
                   if isinstance(target, ast.Name) and "GRID" in target.id]
    assert tables == [("generic.py", "DEFAULT_GRID")]


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
    # Each caller of the solve tests its own right-hand side, and names what is not finite.
    assert _calls_to(functions["_cholesky_solve"], "isfinite") == []
    _, functions = _definitions("evidence.py")
    gates = [node for node in ast.walk(functions["evidence_laplace"])
             if isinstance(node, ast.Name) and node.id == "DEFAULT_GRID"]
    assert len(gates) == 1


def test_every_count_is_checked_by_one_rule():
    # One check refuses a fraction and a count below its least value; a hand-written copy
    # could truncate 41.5 to 41 without a word, as each of these once did.
    generic, functions = _definitions("generic.py")
    spec = next(node for node in ast.walk(generic)
                if isinstance(node, ast.ClassDef) and node.name == "GenericModelSpec")
    evidence = _definitions("evidence.py")[1]
    selection = _definitions("selection.py")[1]
    checked = [next(node for node in spec.body if getattr(node, "name", None) == "__post_init__"),
               functions["_check_grid"], functions["_evaluate_grid"], evidence["bic_penalty"],
               evidence["_check_sample_sizes"], evidence["compare_penalties"],
               evidence["evidence_importance"], selection["_check_degrees"],
               selection["_check_true_degree"], selection["scaled_polynomial_design"]]
    assert all(_calls_to(function, "_check_count") for function in checked)


def test_no_argument_is_truncated_by_int():
    # int(2.9) is 2 without a word: a function that casts its own argument with int() picks a
    # degree, a seed or a size its caller never named, where _check_count would refuse it.
    casts = []
    for module in ("evidence.py", "generic.py", "selection.py"):
        for function in _definitions(module)[1].values():
            arguments = function.args
            names = {arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                         *arguments.kwonlyargs, arguments.vararg,
                                         arguments.kwarg) if arg is not None}
            casts += [f"{module}:{call.lineno} int({call.args[0].id})"
                      for call in _calls_to(function, "int") if call.args
                      and isinstance(call.args[0], ast.Name) and call.args[0].id in names]
    assert casts == []


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
    stencils = _calls_to(functions["_laplace_mode"], "_stencil_derivatives")
    assert stencils and all("bounds" in [keyword.arg for keyword in call.keywords]
                            for call in stencils)
