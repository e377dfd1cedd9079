"""Guards on the package's structure, read from the source by ``ast``.

``perfbench/tracer.py`` rebinds ``(module, attribute)`` pairs of ``imdot``
by name, so a source change that removes or renames one of them would
only break a traced benchmark run.  Its ``TARGETS`` are read here from the
tracer's source, without importing it, so that such a change fails these
tests instead.  Only ``imdot.lp`` makes a HiGHS model, removes its
columns or certifies a solution: every LP goes through its one solve loop,
which alone tracks the model's columns, and the model keeps no copy of
what HiGHS holds.  And every transport
problem of ``imdot.ot`` has one LP form, with its ``beta`` columns and its
budget row: no function there tells a budget from a missing one, and only
the three problems that are not a special case of another call its solver.
Each argument kind of the input contract has one checker, in
``imdot.measures``, and every flag of ``imdot.cli`` is parsed by the one
adapter that calls them.  And the package holds only what it runs: code in
``imdot`` reads every private function, class and constant of it, so that a
reference only the tests use lives with the tests.
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


#: Names only ``imdot.lp`` may call: the one solve loop there makes every
#: HiGHS model, alone removes its columns, and certifies every solution.
SOLVER_CALLS = {"HighsModel", "certify", "delete_columns"}


def solver_calls(source: str) -> list:
    """Names in ``SOLVER_CALLS`` that ``source`` calls, bare or as an
    attribute (``lp.certify``), in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SOLVER_CALLS:
                found.append((node.lineno, name))
    return [name for _, name in sorted(found)]


def test_the_scan_finds_every_solver_call():
    source = ("from imdot.lp import HighsModel, certify\n"
              "import imdot.lp as lp\n"
              "model = HighsModel([0.0], [1.0])\n"
              "def f(x):\n    return lp.certify(x, x, x), certify(x, x, x)\n"
              "model.delete_columns([0])\n"
              "g = lp.HighsModel\n")
    assert solver_calls(source) == ["HighsModel", "certify", "certify", "delete_columns"]


def test_only_the_lp_module_makes_models_and_certifies():
    package = Path(importlib.import_module("imdot").__file__).parent
    calls = {path.stem: solver_calls(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert set(calls.pop("lp")) == SOLVER_CALLS
    assert {module: names for module, names in calls.items() if names} == {}


#: The only instance attributes of ``imdot.lp.HighsModel``: the HiGHS model
#: and its last solution.  What HiGHS holds, such as the row bounds and the
#: column count, is read back from it, never mirrored.
MODEL_ATTRIBUTES = ["_highs", "_solution"]


def _assigned(target):
    """The nodes a target of an assignment assigns: the elements of a tuple
    or list, and the container of an item."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _assigned(target.value)
    else:
        yield target


def instance_attributes(source: str, class_name: str) -> list:
    """The sorted names that the methods of class ``class_name`` in
    ``source`` assign on ``self``: by ``=``, an augmented or annotated
    assignment, an item assignment, or ``setattr``."""
    found = set()
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.ClassDef) and top.name == class_name):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                  and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"):
                found.add(ast.literal_eval(node.args[1]))
                continue
            else:
                continue
            for target in targets:
                for name in _assigned(target):
                    if (isinstance(name, ast.Attribute) and isinstance(name.value, ast.Name)
                            and name.value.id == "self"):
                        found.add(name.attr)
    return sorted(found)


def test_the_scan_finds_every_instance_attribute():
    source = ("class HighsModel:\n"
              "    def __init__(self, n):\n"
              "        self._highs, self.n_cols = object(), 0\n"
              "        self._lower: list = [0.0] * n\n"
              "    def run(self, other):\n"
              "        self.n_cols += 1\n"
              "        self._upper[self.n_cols] = 1.0\n"
              "        setattr(self, '_solution', None)\n"
              "        other.elsewhere = self.read\n"
              "class Other:\n"
              "    def __init__(self):\n"
              "        self.elsewhere = 1\n")
    assert instance_attributes(source, "HighsModel") == [
        "_highs", "_lower", "_solution", "_upper", "n_cols"]


def test_the_highs_model_mirrors_nothing_highs_holds():
    lp = Path(importlib.import_module("imdot.lp").__file__)
    assert instance_attributes(lp.read_text(), "HighsModel") == MODEL_ATTRIBUTES


#: Names of a transport problem's budgets in ``imdot.ot``.
BUDGET_NAMES = {"budget", "budgets"}


def budget_none_compares(source: str) -> list:
    """``(line, name)`` of every comparison in ``source`` between a name in
    ``BUDGET_NAMES`` and ``None``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = [o.id for o in operands if isinstance(o, ast.Name) and o.id in BUDGET_NAMES]
            if names and any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                found.append((node.lineno, names[0]))
    return sorted(found)


def test_the_scan_finds_every_budget_none_compare():
    source = ("def f(budget, budgets):\n"
              "    if budget is None or None == budgets:\n"
              "        return [b for b in budgets if budgets is not None]\n"
              "    return budget == 0\n")
    assert budget_none_compares(source) == [(2, "budget"), (2, "budgets"), (3, "budgets")]


def test_every_transport_problem_has_a_budget():
    ot = Path(importlib.import_module("imdot.ot").__file__)
    assert budget_none_compares(ot.read_text()) == []


#: The functions of ``imdot.ot`` that may call ``_solve_blocks``: the global
#: relaxation is the budget split with one class, so it has no call of its own.
BLOCK_SOLVERS = {"wasserstein1", "partial_ot_per_class", "partial_ot_beta_split_path"}


def block_solve_callers(source: str) -> list:
    """Names of the top-level functions of ``source`` that call
    ``_solve_blocks``, bare or as an attribute, once per call, in source
    order; ``None`` for a call outside every function."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "_solve_blocks":
                    found.append((node.lineno, name))
    return [name for _, name in sorted(found)]


def test_the_scan_finds_every_block_solve():
    source = ("import imdot.ot as ot\n"
              "def partial_ot_global(t):\n"
              "    def inner():\n        return _solve_blocks(t)\n"
              "    return inner(), ot._solve_blocks(t)\n"
              "value = _solve_blocks(None)\n"
              "solver = _solve_blocks\n")
    assert block_solve_callers(source) == ["partial_ot_global", "partial_ot_global", None]


def test_only_the_three_base_problems_solve_blocks():
    ot = Path(importlib.import_module("imdot.ot").__file__)
    assert set(block_solve_callers(ot.read_text())) == BLOCK_SOLVERS


#: The argument kinds of the input contract, each checked by one function of
#: ``imdot.measures``, and the one flag type of ``imdot.cli`` that calls them.
KINDS = {"_count", "_real", "_nonnegative", "_probability", "_plan", "_labels"}
FLAG_TYPE = "_flag"


def kind_definitions(source: str) -> list:
    """Names in ``KINDS`` that ``source`` defines as functions, at any depth,
    in source order."""
    found = [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in KINDS]
    return [name for _, name in sorted(found)]


def test_the_scan_finds_every_kind_definition():
    source = ("def _count(name, value):\n    return value\n"
              "class Config:\n    def _real(self, value):\n        return value\n"
              "def outer():\n    def _plan(values):\n        return values\n"
              "_probability = None\n")
    assert kind_definitions(source) == ["_count", "_real", "_plan"]


def test_each_kind_is_defined_once_in_the_measures_module():
    package = Path(importlib.import_module("imdot").__file__).parent
    found = {path.stem: kind_definitions(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert sorted(found.pop("measures")) == sorted(KINDS)
    assert {module: names for module, names in found.items() if names} == {}


def flag_types(source: str) -> list:
    """What every ``type=`` keyword of a call in ``source`` passes, in source
    order: the name of the function it calls, or else its source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "type":
                    value = keyword.value
                    called = value.func if isinstance(value, ast.Call) else None
                    name = getattr(called, "id", None) or getattr(called, "attr", None)
                    found.append((keyword.lineno, name or ast.unparse(value)))
    return [name for _, name in sorted(found)]


def test_the_scan_finds_every_flag_type():
    source = ("p.add_argument('--k', type=int)\n"
              "p.add_argument('--beta', type=_flag(_nonnegative, 'beta'))\n"
              "p.add_argument('--seed', type=lambda text: int(text))\n"
              "p.add_argument('--grid', default='0', type=cli._flag(_nonnegative, 'grid'))\n"
              "p.add_argument('--out')\n")
    assert flag_types(source) == ["int", FLAG_TYPE, "lambda text: int(text)", FLAG_TYPE]


def test_every_flag_type_is_the_one_adapter():
    cli = Path(importlib.import_module("imdot.cli").__file__)
    types = flag_types(cli.read_text())
    assert types and set(types) == {FLAG_TYPE}


def private_definitions(top) -> list:
    """The private names that the top-level statement ``top`` defines: a
    function, a class, or a constant assigned by ``=`` or an annotated
    assignment.  Dunder names such as ``__all__`` are not private."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [top.name]
    elif isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        names = [node.id for target in targets for node in _assigned(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def reads(top) -> set:
    """The names that ``top`` reads, bare or as an attribute (``ot._helper``);
    a name in a string or a docstring is no read."""
    found = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def unread_private_names(sources: dict) -> list:
    """``module.name`` of every private module-level name of ``sources``
    (module name to source) that no top-level statement of any of them but
    its own definition reads, in module and source order."""
    statements = [(module, top) for module, source in sources.items()
                  for top in ast.parse(source).body]
    read = [reads(top) for _, top in statements]
    unread = []
    for k, (module, top) in enumerate(statements):
        for name in private_definitions(top):
            if not any(name in names for j, names in enumerate(read) if j != k):
                unread.append(f"{module}.{name}")
    return unread


def test_the_scan_finds_every_unread_private_name():
    sources = {
        "a": ("_LIMIT, _unused = 3, 1\n"
              "_TABLE: dict = {}\n"
              "__all__ = ['_unused']\n"
              "def _helper():\n    return _LIMIT + len(_TABLE)\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Kept:\n    x = 1\n"
              "def _documented():\n    '''Reads nothing, as _helper() would.'''\n"),
        "b": ("import a\nfrom a import _Kept\n"
              "value = a._helper() + _Kept.x\n"),
    }
    assert unread_private_names(sources) == ["a._unused", "a._recursive", "a._documented"]


def test_the_package_holds_only_what_it_runs():
    package = Path(importlib.import_module("imdot").__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []
