"""The names that the benchmark's span tracer wraps still exist.

``perfbench/tracer.py`` rebinds ``(module, attribute)`` pairs of ``imdot``
by name, so a source change that removes or renames one of them would
only break a traced benchmark run.  Its ``TARGETS`` are read here from the
tracer's source, without importing it, so that such a change fails these
tests instead.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert targets
    missing = [(module, attr) for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
