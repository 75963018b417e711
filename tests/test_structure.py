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
