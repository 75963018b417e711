"""Structural rules of the package source that no single behaviour test pins."""

import ast
from pathlib import Path

import sweepctrl

PACKAGE = Path(sweepctrl.__file__).parent

# The certificate rule lives in one builder; a loaded certificate is the only other kind.
CERTIFICATE_BUILDERS = {("optimizer.py", "_certificate"), ("optimality.py", "certificate_from_dict")}


def _constructions(name: str):
    """(module file, enclosing function) of every call of `name` in the package source."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def test_only_the_certificate_builders_construct_a_dual_certificate():
    found = _constructions("DualCertificate")
    stray = [f"{module}: {where or 'module level'}" for module, where in found
             if (module, where) not in CERTIFICATE_BUILDERS]
    assert not stray, "DualCertificate constructed outside its builders:\n" + "\n".join(stray)
    assert set(found) == CERTIFICATE_BUILDERS  # the scan sees both builders


def test_the_cli_loads_the_scenario_and_writes_a_trajectory_in_one_place_each():
    # `main` loads the scenario for every command; a simulated trajectory and a reduced
    # solution's sampled path are the two kinds of trajectory.csv.
    in_cli = {name: sorted(where for module, where in _constructions(name) if module == "cli.py")
              for name in ("load_scenario", "trajectory_csv")}
    assert in_cli == {"load_scenario": ["main"], "trajectory_csv": ["_solution_csv", "_write_trajectory"]}


def test_the_grid_checks_have_one_door():
    # `_Evaluation.__init__` applies verify's whole input contract for every grid check: the
    # scenario fit, the control's normalization and its membership in U are called nowhere else.
    in_optimality = {name: sorted({where for module, where in _constructions(name) if module == "optimality.py"})
                     for name in ("check_rows", "_check_fit", "as_step_series")}
    assert in_optimality == {"check_rows": ["__init__"], "_check_fit": ["__init__"], "as_step_series": ["__init__"]}


def _builtin_sums():
    """(module file, enclosing function, whether it is the one argument of `math.isfinite`) of
    every call of the builtin `sum` in the package source."""
    found = []

    def visit(node, module, where, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            func = getattr(parent, "func", None)
            decides = (isinstance(func, ast.Attribute) and func.attr == "isfinite"
                       and isinstance(func.value, ast.Name) and func.value.id == "math" and parent.args == [node])
            found.append((module, where, decides))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where, node)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None, None)
    return found


def test_a_builtin_sum_only_decides_whether_a_sum_is_finite():
    # From Python 3.12 `sum` of floats compensates its rounding, so a value it gives depends on
    # the interpreter; whether the sum is finite does not.  Values are added left to right.
    found = _builtin_sums()
    stray = [f"{module}: {where or 'module level'}" for module, where, decides in found if not decides]
    assert not stray, "builtin sum() whose value is used:\n" + "\n".join(stray)
    assert {(module, where) for module, where, _ in found} == {("polyhedra.py", "_check_finite"),
                                                              ("polyhedra.py", "_project_rows")}
