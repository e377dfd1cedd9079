"""One tolerance policy: each tolerance decision has one name, in one module.

Scans the modules of ``imdot`` for module-level assignments.  Every name
ending in ``_TOL`` must be one of the policy's constants, and each policy
constant must be assigned exactly once, in its home module.  A new check
reuses one of these names; it does not restate a value under a new one.
"""

import ast
from pathlib import Path

import imdot

PACKAGE = Path(imdot.__file__).parent

#: Each tolerance constant of the package and the module that defines it.
POLICY = {
    "ROUNDING_TOL": "measures",
    "FEASIBILITY_TOL": "lp",
    "GAP_TOL": "lp",
    "HIGHS_TOL": "lp",
    "DUALITY_TOL": "imd",
    "S_NULL_MASS": "imd",
    "MASS_TOL": "ot",
    "TIE_REL_TOL": "experiments",
}


def tolerance_assignments(source: str, module: str) -> list:
    """``(name, module)`` of every module-level assignment in ``source`` to a
    name that ends in ``_TOL`` or is a policy constant, one per assignment."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and (name.id.endswith("_TOL")
                                                   or name.id in POLICY):
                    found.append((name.id, module))
    return found


def test_the_scan_finds_every_tolerance_assignment():
    source = ("ROUNDING_TOL = 1e-12\n"
              "PLAN_TOL: float = 1e-8\n"
              "A_TOL, B = 1e-9, 2\n"
              "GAP_TOL += 0.0\n"
              "LOG_CLIP = 1e-12\n"
              "def f():\n    LOCAL_TOL = 1.0\n")
    assert tolerance_assignments(source, "m") == [
        ("ROUNDING_TOL", "m"), ("PLAN_TOL", "m"), ("A_TOL", "m"), ("GAP_TOL", "m")]


def test_each_tolerance_is_assigned_once_in_its_home_module():
    found = [assignment for path in sorted(PACKAGE.glob("*.py"))
             for assignment in tolerance_assignments(path.read_text(), path.stem)]
    assert sorted(found) == sorted(POLICY.items())
