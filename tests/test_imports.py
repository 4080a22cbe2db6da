"""No module of the package imports a name it never uses, and no private
top-level function or class goes unused.

`__init__.py` is skipped by the import guard: its imports are the public
re-exports. An import kept on purpose carries `# noqa: F401` on its own line,
and the only purpose allowed is a binding that `perfbench/spans.py` wraps:
once a span no longer binds it, the import goes, and once the module reads
the name itself, the mark goes.
"""

import ast
from pathlib import Path

import pytest
from test_benchmark_contract import TARGETS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairalloc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names never read as a plain name, as 'name (line n)'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401 -- kept on purpose\n"
        "    log,\n"
        ")\n"
        "np.zeros(gcd(4, 6))\n"
    )
    assert unused_imports(source) == ["os (line 2)", "log (line 7)"]


def stale_noqa_imports(source: str) -> list[str]:
    """Imports marked `# noqa: F401` whose name the module reads as a plain
    name, as 'name (line n)': the mark no longer keeps anything."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{alias.asname or alias.name.split('.')[0]} (line {alias.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
        and (alias.asname or alias.name.split(".")[0]) in used
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_stale_noqa_imports(path):
    assert stale_noqa_imports(path.read_text()) == []


def test_the_stale_noqa_guard_flags_only_marked_names_read_as_names():
    source = (
        "import os  # noqa: F401\n"
        "import numpy as np  # noqa: F401 -- read below\n"
        "from math import (\n"
        "    gcd,  # noqa: F401 -- read below\n"
        "    lcm,  # noqa: F401 -- only an attribute of the same name is read\n"
        "    log,\n"
        ")\n"
        "np.zeros(gcd(4, 6)) + log(2) + np.lcm\n"
    )
    assert stale_noqa_imports(source) == ["np (line 2)", "gcd (line 4)"]


def unbound_noqa_imports(
    sources: dict[str, str], bindings: set[tuple[str, str]]
) -> list[str]:
    """Imports marked `# noqa: F401` whose (module, name) is not among the
    bindings, as 'module.name (line n)'."""
    unbound = []
    for module, source in sources.items():
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    marked = "# noqa: F401" in lines[alias.lineno - 1]
                    if marked and (module, name) not in bindings:
                        unbound.append(f"{module}.{name} (line {alias.lineno})")
    return unbound


def test_noqa_imports_are_perfbench_bindings():
    sources = {path.stem: path.read_text() for path in ALL_MODULES}
    bindings = {binding for targets in TARGETS.values() for binding in targets}
    assert unbound_noqa_imports(sources, bindings) == []


def test_the_noqa_guard_flags_only_unbound_imports():
    sources = {
        "a": (
            "from .b import (\n"
            "    timed,  # noqa: F401 -- a span wraps it\n"
            "    kept,  # noqa: F401 -- no span wraps it\n"
            "    used,\n"
            ")\n"
        ),
        "b": "import os  # noqa: F401\nimport sys as timed  # noqa: F401\n",
    }
    bindings = {("a", "timed"), ("b", "timed")}
    assert unbound_noqa_imports(sources, bindings) == ["a.kept (line 3)", "b.os (line 1)"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed top-level defs and classes that no other top-level
    statement of any module reads, by name, attribute or import, as
    'module.name'. A def that only calls itself stays dead."""
    defined: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            statements.append(node)
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.name, node))

    def reads(node: ast.stmt) -> set[str]:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
        return names

    read_by = [(node, reads(node)) for node in statements]
    return [
        f"{module}.{name}"
        for module, name, definition in defined
        if not any(name in names for node, names in read_by if node is not definition)
    ]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text() for path in ALL_MODULES}
    assert dead_private_names(sources) == []


def test_the_dead_name_guard_flags_only_unread_private_names():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _dead():\n    return _dead()\n"
            "class _Helper:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b": "from .a import _Helper\nimport a\nx = a._used\n",
    }
    assert dead_private_names(sources) == ["a._dead"]


# The exact checks read the stored rows through a view of their own
# (`Instance.check_values`); they must not read the solvers' cached decision
# rows, which a test overwrites to show that the checks do not depend on
# them.
CHECKERS = {
    "model": ("check_values", "fairness_factor", "_worst_rivals"),
    "algorithms": ("_check_refined",),
}
DECISION_CACHES = {"scaled_rows", "row_scales"}


def names_read(function: ast.FunctionDef | ast.Module) -> set[str]:
    """Every name, attribute, imported name and string constant in the body
    of a function or module, its docstring aside."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    names = set()
    for node in (sub for statement in body for sub in ast.walk(statement)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize(
    "module, function",
    [(module, function) for module, functions in CHECKERS.items() for function in functions],
)
def test_the_checkers_read_no_decision_rows(module, function):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (definition,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    assert names_read(definition) & DECISION_CACHES == set()


def test_the_decision_row_guard_sees_attributes_and_strings_not_docstrings():
    source = (
        "def a(x):\n    '''reads no scaled_rows'''\n    return x.valuations\n"
        "def b(x):\n    return x.scaled_rows\n"
        "def c(x):\n    return getattr(x, 'row_scales')\n"
    )
    found = {
        node.name: names_read(node) & DECISION_CACHES for node in ast.parse(source).body
    }
    assert found == {"a": set(), "b": {"scaled_rows"}, "c": {"row_scales"}}


# The checks' integer view is theirs alone: no decision reads it.
CHECK_VIEW = "check_values"
DECISION_MODULES = ("envy", "matching", "files", "cli", "algorithms")
CHECK_VIEW_READERS = {"_check_refined"}  # the one check that lives in `algorithms`


def functions_naming(source: str, name: str, allowed: set[str]) -> list[str]:
    """Functions and methods, at any depth, that name `name` in their body
    (see `names_read`), apart from those in `allowed`; sorted."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in allowed
        and name in names_read(node)
    )


@pytest.mark.parametrize("module", DECISION_MODULES)
def test_no_decision_reads_the_check_view(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert functions_naming(source, CHECK_VIEW, CHECK_VIEW_READERS) == []


def test_the_check_view_guard_sees_methods_and_nested_functions():
    source = (
        "def _check_refined(x):\n    return x.check_values\n"
        "def decide(x):\n    '''reads no check_values'''\n    return x.scaled_rows\n"
        "class Picker:\n"
        "    def pick(self, x):\n        return getattr(x, 'check_values')\n"
        "def outer(x):\n"
        "    def inner():\n        return x.check_values\n"
        "    return inner\n"
    )
    assert functions_naming(source, CHECK_VIEW, CHECK_VIEW_READERS) == [
        "inner", "outer", "pick"
    ]


# The solve path builds no `Fraction` table: `Instance.valuations` is built on
# first use, and neither the decisions nor the checks of a solve name it, nor
# `model.bundle_value`, which reads it.
FRACTION_TABLE = "valuations"
FRACTION_READERS = {FRACTION_TABLE, "bundle_value"}
SOLVE_MODULES = ("algorithms", "envy", "matching")


@pytest.mark.parametrize("module", SOLVE_MODULES)
def test_the_solve_path_names_no_fraction_table(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert names_read(tree) & FRACTION_READERS == set()


def test_the_fraction_table_guard_sees_names_attributes_and_strings_not_docstrings():
    for source in (
        "def f(x):\n    return x.valuations\n",
        "def g(x):\n    return getattr(x, 'valuations')\n",
        "class C:\n    def h(self, valuations):\n        return valuations\n",
        "from .model import valuations\n",
    ):
        assert FRACTION_TABLE in names_read(ast.parse(source))
    source = "'''valuations'''\ndef f(x):\n    '''reads no valuations'''\n    return x.rows\n"
    assert FRACTION_TABLE not in names_read(ast.parse(source))
